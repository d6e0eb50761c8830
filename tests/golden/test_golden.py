"""Golden-trace differential tests: simulated behaviour is pinned.

Every cell of the pinned grid (Table III workloads x three policies) is
re-simulated and compared — stats digest *and* trace-stream digest —
against the committed corpus in ``digests.json``.  A failure here means
the simulator's observable behaviour changed: if that is intentional,
regenerate with ``repro golden --update`` and commit the digest diff;
if not, the optimization/refactor that caused it is wrong.
"""

import hashlib
import json
import os

import pytest

from repro.harness import golden
from repro.harness.executor import CACHE_VERSION, execute_spec
from repro.harness.golden import (DEFAULT_DIGEST_PATH, GOLDEN_SCHEMA,
                                  Sha256Writer, cell_key, compute_digests,
                                  digest_cell, golden_main, golden_specs,
                                  grid_fingerprint, grouped_problems,
                                  load_digests, make_spec, stale_cells)
from repro.sim.events import TraceSink

DIGEST_PATH = os.path.join(os.path.dirname(__file__), "digests.json")

SPECS = {cell_key(spec): spec for spec in golden_specs()}


@pytest.fixture(scope="module")
def corpus():
    try:
        return load_digests(DIGEST_PATH)
    except FileNotFoundError:  # pragma: no cover - corpus is committed
        pytest.fail(f"golden corpus missing at {DIGEST_PATH}; "
                    f"run `repro golden --update`")


def test_default_path_points_at_this_corpus():
    assert os.path.basename(DEFAULT_DIGEST_PATH) == "digests.json"
    assert os.path.normpath(DEFAULT_DIGEST_PATH).split(os.sep)[-2] == "golden"


def test_corpus_schema_and_grid_pin(corpus):
    """The committed corpus matches the grid the harness plans today."""
    assert corpus["schema"] == GOLDEN_SCHEMA
    assert corpus["grid"]["grid_sha256"] == grid_fingerprint()
    assert set(corpus["cells"]) == set(SPECS)


@pytest.mark.parametrize("key", sorted(SPECS))
def test_cell_bit_identical(corpus, key):
    """One grid cell re-simulates to the committed digests exactly."""
    committed = corpus["cells"].get(key)
    assert committed is not None, f"cell {key} missing from corpus"
    fresh = digest_cell(SPECS[key])
    assert fresh == committed, (
        f"{key}: simulated behaviour drifted from the golden corpus; "
        f"intentional changes must be regenerated with "
        f"`repro golden --update`")


def test_grouped_quiet_path_matches_corpus(corpus):
    """The cells above run with a digest sink attached, which activates
    the event bus; this runs the grid on a quiet bus, through the grouped
    sweep path, and compares every ``result_sha256``."""
    assert grouped_problems(corpus["cells"]) == []


def test_pooled_digests_match_in_process_digests(corpus):
    """``repro golden --jobs N`` digests cells in the shared process
    pool; two cheap cells come back equal to the in-process ones."""
    specs = [SPECS["WAT/present-near"], SPECS["WAT/all-near"]]
    pooled = compute_digests(specs, jobs=2)
    assert pooled == compute_digests(specs, jobs=1)
    assert pooled == {key: corpus["cells"][key] for key in pooled}


def test_trace_digest_matches_trace_file(tmp_path):
    """The in-memory trace hasher equals hashing a --trace JSONL file,
    and digest_cell reports that hash."""
    spec = make_spec("COUNTER", "all-near", threads=4, scale=0.5)
    trace_path = tmp_path / "trace.jsonl"
    file_sink = TraceSink(str(trace_path))
    digest = Sha256Writer()
    hash_sink = TraceSink(digest)
    execute_spec(spec, extra_sinks=(file_sink, hash_sink))
    file_sink.close()
    on_disk = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    assert digest.hexdigest() == on_disk
    assert hash_sink.events_written == file_sink.events_written
    cell = digest_cell(spec)
    assert cell["trace_sha256"] == on_disk
    assert cell["trace_events"] == file_sink.events_written


def test_digest_cell_is_reproducible():
    """Digesting the same cell twice in one process is deterministic."""
    spec = make_spec("HIST", "dynamo-reuse-pn", threads=4, scale=0.25)
    assert digest_cell(spec) == digest_cell(spec)


def test_corpus_file_is_sorted_and_versioned(corpus):
    """Stable on-disk shape: sorted cells, grid block present."""
    with open(DIGEST_PATH) as fh:
        raw = json.load(fh)
    keys = list(raw["cells"])
    assert keys == sorted(keys)
    for field in ("threads", "scale", "seed", "policies", "grid_sha256"):
        assert field in raw["grid"]


# --- cache soundness: digests and the cache key version move together ----


def test_committed_cache_version_is_the_executors(corpus):
    """The corpus records the version the result cache is keyed by."""
    assert corpus["cache_version"] == CACHE_VERSION


def test_stale_cells_are_changed_results_under_the_same_version():
    committed = {"cache_version": CACHE_VERSION, "cells": {
        "A/p": {"result_sha256": "a", "trace_sha256": "t"},
        "B/p": {"result_sha256": "b", "trace_sha256": "t"}}}
    fresh = {"A/p": {"result_sha256": "a", "trace_sha256": "moved"},
             "B/p": {"result_sha256": "moved", "trace_sha256": "t"},
             "C/p": {"result_sha256": "new", "trace_sha256": "t"}}
    # A trace-only change or a new cell leaves cached results valid.
    assert stale_cells(committed, fresh) == ["B/p"]
    bumped = dict(committed, cache_version=CACHE_VERSION - 1)
    assert stale_cells(bumped, fresh) == []


def test_update_refuses_stale_cells_and_writes_nothing(tmp_path,
                                                       monkeypatch):
    path = tmp_path / "digests.json"
    cells = {"A/p": {"result_sha256": "a"}, "B/p": {"result_sha256": "b"}}
    golden.save_digests(cells, str(path))
    before = path.read_text()
    monkeypatch.setattr(golden, "compute_digests", lambda jobs=1: dict(
        cells, **{"B/p": {"result_sha256": "moved"}}))
    code, report = golden_main(str(path), update=True)
    assert code == 1
    assert "refusing to update" in report
    assert report.splitlines()[1:] == ["  B/p"]
    assert path.read_text() == before
