"""Bench history and regression-check tests (no simulation involved)."""

import json

from repro.obs.bench import (BENCH_GRID, BENCH_SCHEMA, append_history,
                             bench_specs, check_regression, format_record,
                             load_history)


def _record(wall_s, cycles=1000, jobs=1, schema=BENCH_SCHEMA):
    return {"schema": schema, "timestamp": "2026-01-01T00:00:00",
            "jobs": jobs, "python": "3.11", "wall_s": wall_s,
            "simulated_cycles": cycles,
            "cells": [{"workload": "COUNTER", "policy": "all-near",
                       "threads": 8, "scale": 1.0, "cycles": cycles,
                       "amos": 10}]}


# --- planning ---------------------------------------------------------


def test_bench_specs_match_the_pinned_grid():
    specs = bench_specs()
    assert len(specs) == len(BENCH_GRID)
    for spec, (wl, pol, threads, scale) in zip(specs, BENCH_GRID):
        assert (spec.workload, spec.policy, spec.threads,
                spec.scale) == (wl, pol, threads, scale)


def test_record_carries_environment_metadata(monkeypatch):
    """Records capture the environment (additively: schema unchanged)."""
    import repro.obs.bench as bench

    # Environment fields must ride along without a schema bump — a bump
    # would orphan the whole committed regression baseline.
    assert BENCH_SCHEMA == 1
    monkeypatch.setattr(bench, "bench_specs", lambda: [])  # skip the grid
    record = bench.run_bench()
    assert record["schema"] == BENCH_SCHEMA
    assert record["python"] and record["platform"] and record["machine"]
    assert record["cpu_count"] >= 1


def test_run_bench_simulates_every_cell(monkeypatch):
    """No two bench cells make the same placement decisions, so grouping
    never merges them: the gate keeps timing one simulation per cell."""
    import repro.harness.executor as ex

    calls = []
    real = ex.engine_run

    def counting(machine, *args, **kwargs):
        calls.append(machine.policy_name)
        return real(machine, *args, **kwargs)

    monkeypatch.setattr(ex, "engine_run", counting)
    from repro.obs.bench import run_bench

    record = run_bench()
    assert len(calls) == len(BENCH_GRID)
    assert len(record["cells"]) == len(BENCH_GRID)


# --- history file -----------------------------------------------------


def test_load_history_tolerates_missing_and_corrupt(tmp_path):
    missing = tmp_path / "nope.json"
    assert load_history(str(missing)) == []
    corrupt = tmp_path / "bad.json"
    corrupt.write_text("{not json")
    assert load_history(str(corrupt)) == []
    wrong_shape = tmp_path / "dict.json"
    wrong_shape.write_text('{"a": 1}')
    assert load_history(str(wrong_shape)) == []


def test_append_history_accumulates(tmp_path):
    path = str(tmp_path / "hist.json")
    first = append_history(_record(1.0), path)
    assert len(first) == 1
    second = append_history(_record(1.1), path)
    assert len(second) == 2
    with open(path) as fh:
        on_disk = json.load(fh)
    assert on_disk == second


# --- regression check -------------------------------------------------


def test_check_no_history_is_first_baseline():
    record = _record(2.0)
    ok, msg = check_regression(record, [record])
    assert ok
    assert "first baseline" in msg


def test_check_passes_within_threshold():
    history = [_record(1.0), _record(1.1)]
    record = _record(1.12)
    history.append(record)
    ok, msg = check_regression(record, history)
    assert ok
    assert "REGRESSION" not in msg


def test_check_fails_beyond_threshold():
    history = [_record(1.0)]
    record = _record(1.3)
    history.append(record)
    ok, msg = check_regression(record, history)
    assert not ok
    assert msg.startswith("REGRESSION")


def test_check_baselines_against_the_fastest_recent():
    # One slow CI entry must not ratchet the bar down.
    history = [_record(1.0), _record(5.0)]
    record = _record(1.3)
    history.append(record)
    ok, _msg = check_regression(record, history)
    assert not ok, "baseline should be the 1.0s entry, not the 5.0s one"


def test_check_ignores_incomparable_entries():
    history = [_record(0.1, jobs=4), _record(0.1, schema=BENCH_SCHEMA + 1)]
    record = _record(9.9)
    history.append(record)
    ok, msg = check_regression(record, history)
    assert ok
    assert "first baseline" in msg


def test_check_notes_cycle_changes_without_failing():
    history = [_record(1.0, cycles=1000)]
    record = _record(1.0, cycles=2000)
    history.append(record)
    ok, msg = check_regression(record, history)
    assert ok
    assert "simulated cycles changed" in msg


def test_format_record_lists_cells():
    text = format_record(_record(1.5))
    assert "wall 1.50s" in text
    assert "COUNTER" in text
