"""Result-store correctness: eviction, interleavings, the flight re-check.

The store property test drives random store/load/evict interleavings
against a shadow model and checks two invariants after every step:
a load never returns a *wrong* result (stale-but-evicted is a miss,
never corruption) and the on-disk footprint never exceeds the byte
budget after an eviction pass.  The scheduler tests pin what the
flight does itself: a result stored after ``submit`` missed is served
from the store, never recomputed, a flight that raises anything
settles every cell parked on its key, and a result is serialized once
per miss and never per hit.
"""

import json
import os
import tempfile
import threading

from hypothesis import given, settings, strategies as st

from repro.harness import executor as executor_module
from repro.harness.executor import (ResultStore, make_spec,
                                    serialize_result)
from repro.service import scheduler as scheduler_module
from repro.service.scheduler import Scheduler
from tests.service.conftest import stub_compute

SPECS = [make_spec("HIST", "all-near", threads=8, scale=0.5, seed=s)
         for s in range(5)]


# --- the scheduler's flight -------------------------------------------


def test_result_stored_while_flight_queued_is_a_hit(tmp_path):
    x, y = SPECS[0], SPECS[1]
    entered = threading.Event()
    release = threading.Event()
    seen = []

    def blocking(spec):
        seen.append(spec.cache_key())
        entered.set()
        release.wait(10)
        return stub_compute(spec)

    scheduler = Scheduler(ResultStore(str(tmp_path)), workers=1,
                          compute=blocking)
    try:
        job_x = scheduler.submit([x])
        assert entered.wait(10), "X's flight holds the only thread"
        job_y = scheduler.submit([y])
        assert scheduler.stats()["cells"]["queue_depth"] == 1
        scheduler.store.store(y, stub_compute(y))
        release.set()
        assert job_x.wait(10) and job_y.wait(10)
    finally:
        release.set()
        scheduler.shutdown()

    cell = job_y.cells[0]
    assert cell.status == "done"
    assert cell.source == "cache"
    assert cell.result == serialize_result(stub_compute(y))
    assert seen == [x.cache_key()], "compute never sees Y"
    stats = scheduler.stats()
    cache = stats["cache"]
    assert cache["hits"] == 1
    assert cache["computed"] == 1
    assert cache["hits"] + cache["computed"] + cache["joined"] \
        + cache["errors"] == stats["cells"]["completed"] == 2


def test_flight_raising_base_exception_strands_no_cell(tmp_path):
    calls = []

    def exits_once(spec):
        calls.append(spec.cache_key())
        if len(calls) == 1:
            raise SystemExit(3)
        return stub_compute(spec)

    scheduler = Scheduler(ResultStore(str(tmp_path)), workers=1,
                          compute=exits_once)
    try:
        job = scheduler.submit([SPECS[0], SPECS[0]])
        assert job.wait(10), "the leader and its joiner both settle"
        assert [c.status for c in job.cells] == ["error", "error"]
        assert job.cells[0].error == "SystemExit: 3"
        retry = scheduler.submit([SPECS[0]])
        assert retry.wait(10)
    finally:
        scheduler.shutdown()
    assert retry.cells[0].source == "computed", "the key was released"
    assert len(calls) == 2


def test_miss_serializes_once_and_hits_never(tmp_path, monkeypatch):
    """A miss flight builds the wire form once (the store and the cells
    share it); a hit, from the memo or from disk, serializes nothing."""
    calls = []

    def counting(result):
        calls.append(result.policy)
        return serialize_result(result)

    monkeypatch.setattr(scheduler_module, "serialize_result", counting)
    monkeypatch.setattr(executor_module, "serialize_result", counting)
    scheduler = Scheduler(ResultStore(str(tmp_path)), workers=1,
                          compute=stub_compute)
    cold = Scheduler(ResultStore(str(tmp_path)), workers=1,
                     compute=stub_compute)
    try:
        miss = scheduler.submit([SPECS[0]])
        assert miss.wait(10)
        assert len(calls) == 1
        hit = scheduler.submit([SPECS[0]])
        disk = cold.submit([SPECS[0]])
        assert hit.done and disk.done, "hits settle inside submit"
    finally:
        scheduler.shutdown()
        cold.shutdown()
    assert len(calls) == 1, "hits must not serialize"
    assert [j.cells[0].source for j in (miss, hit, disk)] == \
        ["computed", "cache", "cache"]
    assert hit.cells[0].result is miss.cells[0].result
    assert disk.cells[0].result == miss.cells[0].result


# --- store/load/evict interleavings (property test) -------------------


def _entry_bytes():
    with tempfile.TemporaryDirectory() as d:
        probe = ResultStore(d)
        probe.store(SPECS[0], stub_compute(SPECS[0]))
        return os.path.getsize(probe.path_for(SPECS[0]))


ENTRY_BYTES = _entry_bytes()

ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, 4)),
        st.tuples(st.just("load"), st.integers(0, 4)),
        st.tuples(st.just("evict"), st.just(0)),
    ),
    min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(trace=ops)
def test_store_interleavings_never_lie_and_respect_budget(trace):
    """Any store/load/evict sequence: loads are right-or-miss, disk fits."""
    budget = ENTRY_BYTES * 2 + ENTRY_BYTES // 2  # room for two entries
    with tempfile.TemporaryDirectory() as cache_dir:
        store = ResultStore(cache_dir, memo_entries=2, byte_budget=budget)
        expected = {s.cache_key(): json.dumps(
            serialize_result(stub_compute(s)), sort_keys=True)
            for s in SPECS}
        for op, i in trace:
            spec = SPECS[i]
            if op == "store":
                store.store(spec, stub_compute(spec))
                assert store.disk_bytes() <= budget, \
                    "byte budget exceeded after store"
            elif op == "load":
                result = store.load(spec)
                if result is not None:
                    wire = json.dumps(serialize_result(result),
                                      sort_keys=True)
                    assert wire == expected[spec.cache_key()], \
                        "load returned a wrong result"
                kept = store.load(spec, wire=True)
                if kept is not None:
                    assert json.dumps(kept, sort_keys=True) == \
                        expected[spec.cache_key()], \
                        "load returned a wrong wire form"
            else:
                store.evict_to_budget()
                assert store.disk_bytes() <= budget


# --- threaded stress (no torn reads through one shared store) ---------


def test_concurrent_store_load_returns_right_or_miss(tmp_path):
    store = ResultStore(str(tmp_path), memo_entries=3,
                        byte_budget=ENTRY_BYTES * 3)
    expected = {s.cache_key(): json.dumps(
        serialize_result(stub_compute(s)), sort_keys=True)
        for s in SPECS}
    wrong = []

    def worker(tid):
        for round_no in range(30):
            spec = SPECS[(tid + round_no) % len(SPECS)]
            store.store(spec, stub_compute(spec))
            loaded = store.load(SPECS[round_no % len(SPECS)])
            if loaded is not None:
                wire = json.dumps(serialize_result(loaded),
                                  sort_keys=True)
                if wire != expected[SPECS[round_no %
                                          len(SPECS)].cache_key()]:
                    wrong.append(wire)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert wrong == [], "a concurrent load observed a wrong/torn result"
    assert len(store._memo) <= 3, "memo cap holds under concurrency"
