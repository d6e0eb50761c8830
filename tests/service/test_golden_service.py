"""Golden-pinned end-to-end: served results are bit-identical.

The service boots with the *real* simulator and serves a batch of
golden-corpus cells over real HTTP; each returned ``result`` payload
must hash to exactly the ``result_sha256`` committed in
``tests/golden/digests.json``.  This pins the whole pipeline — request
validation, scheduling, simulation, serialization, cache write, cache
read — to the same oracle the simulator itself is pinned to.
"""

import hashlib
import json
import os

from repro.harness.golden import (GOLDEN_SCALE, GOLDEN_SEED,
                                  GOLDEN_THREADS, load_digests)

DIGESTS = load_digests(os.path.join(os.path.dirname(__file__), os.pardir,
                                    "golden", "digests.json"))

#: Three cheap golden cells across distinct workloads *and* policies.
GOLDEN_CELLS = [
    {"workload": "WAT", "policy": "present-near"},
    {"workload": "BAR", "policy": "all-near"},
    {"workload": "HIST", "policy": "dynamo-reuse-pn"},
]


def _cells():
    return [dict(c, threads=GOLDEN_THREADS, scale=GOLDEN_SCALE,
                 seed=GOLDEN_SEED) for c in GOLDEN_CELLS]


def _served_sha(cell):
    return hashlib.sha256(
        json.dumps(cell["result"], sort_keys=True).encode()).hexdigest()


def test_served_batch_is_bit_identical_to_golden_digests(real_service):
    server, client = real_service
    job = client.run_batch(_cells())
    assert job["counts"]["error"] == 0
    for sent, cell in zip(GOLDEN_CELLS, job["cells"]):
        key = f"{sent['workload']}/{sent['policy']}"
        want = DIGESTS["cells"][key]["result_sha256"]
        assert _served_sha(cell) == want, \
            f"served {key} drifted from the golden digest"
        assert cell["result"]["cycles"] == DIGESTS["cells"][key]["cycles"]

    # Round 2: the same batch is answered from the cache, bit-identical
    # again, and the stats endpoint reports the hits.
    again = client.run_batch(_cells())
    assert [c["source"] for c in again["cells"]] == ["cache"] * 3
    for sent, cell in zip(GOLDEN_CELLS, again["cells"]):
        key = f"{sent['workload']}/{sent['policy']}"
        assert _served_sha(cell) == DIGESTS["cells"][key]["result_sha256"]

    status, stats = client.get("/v1/stats")
    assert status == 200
    assert stats["cache"]["hit_ratio"] > 0
    assert stats["cache"]["hits"] >= 3
    assert stats["cache"]["computed"] == 3


def test_cold_restart_serves_golden_hits_from_disk(make_service, tmp_path):
    """A second server over the same cache dir hits without simulating."""
    from repro.harness.executor import ResultStore, execute_spec

    cache_dir = str(tmp_path / "shared-cache")
    _server1, client1 = make_service(compute=execute_spec, workers=2,
                                     store=ResultStore(cache_dir))
    client1.run_batch(_cells()[:1])

    def never(spec):
        raise AssertionError("restart should serve from disk, not compute")

    _server2, client2 = make_service(compute=never, workers=2,
                                     store=ResultStore(cache_dir))
    job = client2.run_batch(_cells()[:1])
    cell = job["cells"][0]
    assert cell["source"] == "cache"
    key = f"{GOLDEN_CELLS[0]['workload']}/{GOLDEN_CELLS[0]['policy']}"
    assert _served_sha(cell) == DIGESTS["cells"][key]["result_sha256"]


def test_payload_is_identical_computed_memo_and_disk(make_service,
                                                     tmp_path):
    """One golden cell served three ways: just computed, from the memo,
    and from a cold store on the same directory.  The payloads are
    equal and golden, and serving hits leaves the first job's payload
    untouched (the memo's wire form is shared, never mutated)."""
    from repro.harness.executor import ResultStore, execute_spec

    cache_dir = str(tmp_path / "shared-cache")
    cell = _cells()[:1]
    key = f"{GOLDEN_CELLS[0]['workload']}/{GOLDEN_CELLS[0]['policy']}"
    want = DIGESTS["cells"][key]["result_sha256"]

    _server, client = make_service(compute=execute_spec, workers=1,
                                   store=ResultStore(cache_dir))
    first = client.run_batch(cell)
    memo = client.run_batch(cell)

    def never(spec):
        raise AssertionError("a cold store must read the disk entry")

    _cold, cold_client = make_service(compute=never, workers=1,
                                      store=ResultStore(cache_dir))
    disk = cold_client.run_batch(cell)

    served = [job["cells"][0] for job in (first, memo, disk)]
    assert [c["source"] for c in served] == ["computed", "cache", "cache"]
    assert served[0]["result"] == served[1]["result"] == served[2]["result"]
    assert [_served_sha(c) for c in served] == [want] * 3

    client.run_batch(cell)  # one more memo hit
    status, again = client.get(f"/v1/batch/{first['job']}")
    assert status == 200
    assert again["cells"][0]["result"] == served[0]["result"]
    assert _served_sha(again["cells"][0]) == want
