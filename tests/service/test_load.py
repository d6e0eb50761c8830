"""Deterministic Zipf load replay against the in-process server.

A fixed-seed Zipf-80/20 trace of 500 single-cell requests is replayed
by 8 client threads over real HTTP.  Because the trace is seeded and
the stub compute is deterministic, the assertions are exact, not
statistical:

* every request succeeds and every response passes the torn-read
  invariants (all fields derived from one per-spec number agree);
* single-flight dedup holds: the server computed each distinct spec of
  the trace exactly once (``computed == distinct``);
* the accounting identity ``hits + joined + computed == requests``
  holds and the hit ratio clears the floor the trace shape implies.
"""

import collections
import threading
import time

from repro.workloads.txn.zipf import ZipfSampler
from tests.service.conftest import assert_untorn, stub_compute

UNIVERSE_SIZE = 24
REQUESTS = 500
CLIENT_THREADS = 8
TRACE_SEED = 42
#: Small universes need a steeper law than the web-caching alpha=1.16
#: for the 80/20 split: at 24 items, alpha=1.5 puts ~80% of requests on
#: the top ~20% of ranks.
ALPHA = 1.5

#: The ranked spec universe: rank 0 is the hottest cell.
UNIVERSE = [
    {"workload": "HIST", "policy": "all-near", "threads": 8,
     "scale": 0.5, "seed": s}
    for s in range(UNIVERSE_SIZE)
]


def _trace(seed=TRACE_SEED):
    """Popularity ranks of the replayed requests (rank 0 hottest)."""
    sampler = ZipfSampler(UNIVERSE_SIZE, ALPHA, seed=seed)
    return [sampler.sample() for _ in range(REQUESTS)]


# --- the trace itself -------------------------------------------------


def test_trace_is_deterministic_and_zipf_shaped():
    trace = _trace()
    assert trace == _trace(), "same seed, same trace"
    assert _trace(seed=7) != trace, "different seed, different trace"
    # 80/20 shape: the top 20% of ranks absorb ~80% of requests.
    head = int(UNIVERSE_SIZE * 0.2)
    share = sum(1 for rank in trace if rank < head) / len(trace)
    assert 0.65 <= share <= 0.92, f"head share {share} not Zipf-like"
    hottest = collections.Counter(trace).most_common(1)[0][0]
    assert hottest in range(3), "a top rank dominates the trace"


# --- the replay -------------------------------------------------------


def test_zipf_replay_hit_ratio_dedup_and_untorn_reads(make_service):
    slow_calls = []

    def measured_compute(spec):
        # A small, deterministic delay widens the single-flight window
        # so joins actually happen under the 8 client threads.
        slow_calls.append(spec.cache_key())
        time.sleep(0.002)
        return stub_compute(spec)

    server, client = make_service(compute=measured_compute, workers=4)
    trace = _trace()
    distinct = len(set(trace))

    lock = threading.Lock()
    cursor = iter(trace)
    failures = []

    def next_request():
        with lock:
            return next(cursor, None)

    def client_thread():
        while True:
            rank = next_request()
            if rank is None:
                return
            cell = UNIVERSE[rank]
            try:
                job = client.run_batch([cell], wait=60)
                served = job["cells"][0]
                assert served["status"] == "done", served
                assert_untorn(cell, served["result"])
            except AssertionError as exc:
                with lock:
                    failures.append(str(exc))

    threads = [threading.Thread(target=client_thread)
               for _ in range(CLIENT_THREADS)]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_s = time.monotonic() - t0

    assert failures == [], failures[:5]

    stats = server.scheduler.stats()
    cache = stats["cache"]

    # Single-flight dedup: compute count == distinct miss count.
    assert cache["computed"] == distinct
    assert len(slow_calls) == distinct
    assert len(set(slow_calls)) == distinct

    # Accounting identity over the whole replay.
    assert stats["cells"]["submitted"] == REQUESTS
    assert stats["cells"]["completed"] == REQUESTS
    assert stats["cells"]["errors"] == 0
    assert cache["hits"] + cache["joined"] + cache["computed"] == REQUESTS

    # Hit-ratio floor: only computes and joins are not hits, and joins
    # can only happen while one of the `distinct` flights is open, with
    # at most CLIENT_THREADS-1 joiners each.
    floor = 1 - (distinct * CLIENT_THREADS) / REQUESTS
    assert cache["hit_ratio"] >= floor, \
        f"hit ratio {cache['hit_ratio']:.3f} below floor {floor:.3f}"
    # And in practice the Zipf head keeps it high.
    assert cache["hit_ratio"] >= 0.80

    # Tail-latency sanity: the histogram saw every request, and the
    # p99 stayed within the replay's own wall time.
    assert stats["latency"]["count"] == REQUESTS
    assert stats["latency"]["p50_ms"] <= stats["latency"]["p99_ms"]
    assert stats["latency"]["p99_ms"] <= wall_s * 1e3
