"""BENCHMARK.json agrees with the code, ``--smoke`` is fast and correct,
and a checkout without the program fails without printing a result."""

import json
import os
import shutil
import subprocess
import sys
import time

from bench import workloads as W
from bench.common import DEFAULT_SECONDS, RECORD, ROOT
from bench.metrics import END_TO_END, PER_LAYER

REGISTRY = os.path.join(ROOT, "BENCHMARK.json")


def _registry():
    with open(REGISTRY) as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_registry_matches_the_code():
    reg = _registry()
    assert reg["run_seconds"] == DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in reg["workloads"]] == \
        [(w.name, w.why) for w in W.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in reg["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in reg["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in PER_LAYER]
    setup = next(m for m in reg["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in reg["end_to_end"])


def test_smoke_run_is_fast_correct_and_prints_registered_metrics():
    t0 = time.monotonic()
    proc = _bench("run", "--smoke")
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 30.0
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert sorted(final) == ["attempted", "correct", "failed", "metrics"]
    assert final["correct"] and final["failed"] == 0
    records = [json.loads(line[len(RECORD):]) for line in lines
               if line.startswith(RECORD)]
    assert [r["workload"] for r in records] == list(W.WORKLOADS)
    units = {m["name"]: m["unit"] for m in _registry()["end_to_end"]}
    for r in records:
        assert set(r["metrics"]) == set(units)
        assert r["unchecked"] == 0  # smoke cells are all golden-checked
    for name, metric in final["metrics"].items():
        assert metric["unit"] == units[name.split("/", 1)[1]]
        assert metric["value"] > 0


def test_single_workload_prints_the_contract_line():
    proc = _bench("run", "--workload", "run-x4", "--smoke", "--seed", "3",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {n: m["unit"] for n, m in final["metrics"].items()} == \
        {m["name"]: m["unit"] for m in _registry()["end_to_end"]}


def test_traced_smoke_prints_every_per_layer_metric():
    proc = _bench("trace", "sweep-h", "--smoke")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {n: m["unit"] for n, m in final["metrics"].items()} == \
        {m["name"]: m["unit"] for m in _registry()["per_layer"]}
    assert final["metrics"]["trace.coverage"]["value"] >= 0.9


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(REGISTRY, tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("run", "--workload", "sweep-h", "--seed", "0",
                  "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert not line.startswith("{")
