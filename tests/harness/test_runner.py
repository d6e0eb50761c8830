"""Tests for the experiment runner and its cache."""

import os

import pytest

from repro.harness.executor import RunSpec
from repro.harness.runner import (Runner, best_static_speedups,
                                  speedups_vs_baseline)
from repro.sim.config import DEFAULT_CONFIG

SMALL = dict(threads=4, scale=0.15)


class TestRunSpec:
    def test_cache_key_deterministic(self):
        a = RunSpec("HIST", "all-near", 4)
        b = RunSpec("HIST", "all-near", 4)
        assert a.cache_key() == b.cache_key()

    def test_cache_key_differs_per_field(self):
        base = RunSpec("HIST", "all-near", 4)
        assert base.cache_key() != RunSpec("HIST", "all-near", 8).cache_key()
        assert base.cache_key() != RunSpec("HIST", "unique-near", 4).cache_key()
        assert base.cache_key() != \
            RunSpec("HIST", "all-near", 4, seed=1).cache_key()

    def test_config_overrides_in_key(self):
        spec = RunSpec("HIST", "all-near", 4)
        plain = spec.with_config(DEFAULT_CONFIG)
        changed = spec.with_config(DEFAULT_CONFIG.replace(mem_latency=7))
        assert plain.cache_key() != changed.cache_key()
        assert plain.config_overrides == ()
        assert ("mem_latency", 7) in changed.config_overrides


class TestRunner:
    def test_run_produces_result(self, tmp_runner):
        result = tmp_runner.run("RAY", "all-near", **SMALL)
        assert result.cycles > 0
        assert result.metadata["workload"] == "RAY"
        assert result.energy  # energy attached

    def test_cache_roundtrip_identical(self, tmp_runner):
        first = tmp_runner.run("RAY", "all-near", **SMALL)
        second = tmp_runner.run("RAY", "all-near", **SMALL)
        assert second.cycles == first.cycles
        assert second.stats.as_dict() == first.stats.as_dict()
        assert second.traffic.by_type() == first.traffic.by_type()
        assert second.energy == first.energy
        assert second.apki == first.apki

    def test_cache_files_created(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.run("RAY", "all-near", **SMALL)
        assert any(name.endswith(".json")
                   for _root, _dirs, names in os.walk(tmp_path)
                   for name in names)

    def test_no_cache_mode_writes_nothing(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), use_cache=False)
        runner.run("RAY", "all-near", **SMALL)
        assert not os.path.exists(tmp_path) or not os.listdir(tmp_path)

    def test_threads_validated_against_config(self, tmp_runner):
        with pytest.raises(ValueError):
            tmp_runner.run("RAY", "all-near", threads=1000)

    def test_sweep_shape(self, tmp_runner):
        grid = tmp_runner.sweep(["RAY"], ["all-near", "unique-near"], **SMALL)
        assert set(grid) == {"RAY"}
        assert set(grid["RAY"]) == {"all-near", "unique-near"}


class TestSpeedups:
    def test_speedups_vs_baseline(self, tmp_runner):
        grid = tmp_runner.sweep(["RAY"], ["all-near", "unique-near"], **SMALL)
        sp = speedups_vs_baseline(grid)
        assert sp["RAY"]["all-near"] == 1.0
        assert sp["RAY"]["unique-near"] == pytest.approx(
            grid["RAY"]["all-near"].cycles
            / grid["RAY"]["unique-near"].cycles)

    def test_best_static(self):
        speedups = {"A": {"p": 1.1, "q": 0.9}, "B": {"p": 0.8, "q": 1.3}}
        assert best_static_speedups(speedups) == {"A": 1.1, "B": 1.3}
