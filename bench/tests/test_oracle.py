"""The correctness oracle: tampered results fail, unknown cells are
counted as unchecked, and failures reach the run's result line."""

import copy

from bench.common import GOLDEN_PATH, load_json, result_digest
from bench.model import model_row
from bench.oracle import Checker
from bench.run import Pass, Run, evaluate, result_line
from repro.harness import executor as ex

KEY = "WAT/present-near"


def _served_payload():
    spec = ex.make_spec("WAT", "present-near", threads=8, scale=0.5)
    return ex.serialize_result(ex.execute_spec(spec))


def _serve_run(payloads):
    """A finished serve-zipf run whose requests carry ``payloads``."""
    requests = [{"ms": 90.0 + i, "error": None,
                 "cells": [[KEY, result_digest(p), "cache", 0.2]]}
                for i, p in enumerate(payloads)]
    result = {"wall_s": 1.0, "latencies_ms": [r["ms"] for r in requests],
              "ops": len(requests), "attempted": len(requests),
              "error": None, "jobs": 2, "requests": requests, "stats": {},
              "model": {}}
    run = Run("serve-zipf", 0, trace=False, smoke=False, setups=[0.3])
    run.passes.append(Pass(0.3, len(requests), result, 0))
    return run


def test_golden_payload_passes():
    payload = _served_payload()
    golden = load_json(GOLDEN_PATH)["cells"][KEY]["result_sha256"]
    assert result_digest(payload) == golden
    record = evaluate(_serve_run([payload, payload]))
    assert record["correct"] and record["failed"] == 0
    assert record["checked"] == 2 and record["unchecked"] == 0


def test_tampered_served_payload_is_a_failure():
    payload = _served_payload()
    tampered = copy.deepcopy(payload)
    tampered["stats"]["l1_hits"] += 1
    record = evaluate(_serve_run([payload, tampered]))
    assert record["failed"] == 1 and not record["correct"]
    assert any("result_sha256" in f for f in record["failures"])
    line = result_line(record)
    assert (line["correct"], line["attempted"], line["failed"]) == \
        (False, 2, 1)


def test_cell_without_reference_is_unchecked_not_passed():
    checker = Checker("sweep-h", seed=12345, reference={"workloads": {}})
    assert checker.check("HIST/all-near", "0" * 64)
    assert (checker.checked, checker.unchecked) == (0, 1)


def test_seed_free_cells_are_checked_at_any_seed():
    reference = {"workloads": {"sweep-h": {
        "GME/all-near": {"*": "a" * 64},
        "HIST/all-near": {"0": "b" * 64}}}}
    checker = Checker("sweep-h", seed=7, reference=reference)
    assert checker.check("GME/all-near", "a" * 64)
    assert not checker.check("GME/all-near", "c" * 64)
    assert checker.check("HIST/all-near", "d" * 64)  # no seed-7 digest
    assert (checker.checked, checker.unchecked) == (2, 1)


def test_model_row_counts_simulated_ops():
    row = model_row(_served_payload())
    assert row["ops"] > 0 and row["cycles"] > 0
