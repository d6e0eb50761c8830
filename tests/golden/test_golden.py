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

from repro.harness.executor import execute_spec
from repro.harness.golden import (DEFAULT_DIGEST_PATH, GOLDEN_SCHEMA,
                                  TraceDigestSink, cell_key, digest_cell,
                                  golden_specs, grid_fingerprint,
                                  grouped_problems, load_digests, make_spec)
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


def test_trace_digest_matches_trace_file(tmp_path):
    """The in-memory trace hasher equals hashing a --trace JSONL file."""
    spec = make_spec("COUNTER", "all-near", threads=4, scale=0.5)
    trace_path = tmp_path / "trace.jsonl"
    file_sink = TraceSink(str(trace_path))
    hash_sink = TraceDigestSink()
    execute_spec(spec, extra_sinks=(file_sink, hash_sink))
    file_sink.close()
    on_disk = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    assert hash_sink.hexdigest() == on_disk
    assert hash_sink.events == file_sink.events_written


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
