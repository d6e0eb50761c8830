"""Executor-layer tests: serialization fidelity, store safety, parallelism.

The cache contract is strict round-tripping: what the store writes must
deserialize to an equal result, anything it does not recognize must read
as a miss (never as a half-populated result), and a parallel sweep must
produce byte-identical cache files to a serial one.
"""

import dataclasses
import functools
import json
import multiprocessing
import os
import pickle
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import executor as ex
from repro.harness.executor import (CacheSchemaError, Executor, ResultStore,
                                    _execute_group_serialized,
                                    deserialize_result, env_int,
                                    make_executor, make_spec,
                                    serialize_result)
from repro.harness.report import speedups_vs_baseline
from repro.noc.message import MsgType, TrafficMeter
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.results import MachineStats, SimulationResult

# --- round-trip property test ----------------------------------------

counts = st.integers(min_value=0, max_value=2**40)
json_scalars = st.one_of(
    st.integers(min_value=-2**31, max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20), st.booleans(), st.none())

result_strategy = st.builds(
    SimulationResult,
    policy=st.sampled_from(["all-near", "unique-near", "dynamo-reuse-pn"]),
    cycles=counts,
    per_core_finish=st.lists(counts, max_size=8),
    instructions=counts,
    amos_committed=counts,
    stats=st.fixed_dictionaries(
        {name: counts for name in MachineStats.__slots__}
    ).map(MachineStats.from_dict),
    traffic=st.fixed_dictionaries(
        {msg: counts for msg in MsgType}
    ).map(lambda msgs: _meter(msgs)),
    near_decisions=counts,
    far_decisions=counts,
    energy=st.dictionaries(st.text(min_size=1, max_size=10),
                           st.floats(min_value=0, max_value=1e12),
                           max_size=5),
    metadata=st.dictionaries(st.text(min_size=1, max_size=10),
                             json_scalars, max_size=5),
)


def _meter(msgs):
    meter = TrafficMeter()
    for msg, count in msgs.items():
        meter.messages[msg] = count
    meter.flits = sum(msg.flits * n for msg, n in msgs.items())
    meter.flit_hops = 3 * meter.flits
    return meter


@settings(max_examples=50, deadline=None)
@given(result=result_strategy)
def test_serialize_round_trip(result):
    """serialize -> JSON -> deserialize -> serialize is the identity."""
    data = serialize_result(result)
    wire = json.loads(json.dumps(data))
    rebuilt = deserialize_result(wire)
    assert serialize_result(rebuilt) == data
    assert json.dumps(serialize_result(rebuilt), sort_keys=True) == \
        json.dumps(data, sort_keys=True)
    assert rebuilt.stats.as_dict() == result.stats.as_dict()
    assert rebuilt.traffic.by_type() == result.traffic.by_type()
    assert rebuilt.metadata == result.metadata


# --- schema strictness ------------------------------------------------


def _tiny_result():
    return SimulationResult(
        policy="all-near", cycles=100, per_core_finish=[100],
        instructions=10, amos_committed=2, stats=MachineStats(),
        traffic=TrafficMeter(), metadata={"workload": "X"})


def test_deserialize_rejects_unknown_field():
    data = serialize_result(_tiny_result())
    data["surprise"] = 1
    with pytest.raises(CacheSchemaError, match="surprise"):
        deserialize_result(data)


def test_deserialize_rejects_missing_field():
    data = serialize_result(_tiny_result())
    del data["near_decisions"]
    with pytest.raises(CacheSchemaError, match="near_decisions"):
        deserialize_result(data)


def test_deserialize_rejects_stats_drift():
    data = serialize_result(_tiny_result())
    data["stats"]["new_counter"] = 7
    with pytest.raises(CacheSchemaError, match="new_counter"):
        deserialize_result(data)
    data = serialize_result(_tiny_result())
    del data["stats"]["snoops"]
    with pytest.raises(CacheSchemaError, match="snoops"):
        deserialize_result(data)


def test_deserialize_rejects_unknown_message_type():
    data = serialize_result(_tiny_result())
    data["messages"]["WARP_DRIVE"] = 3
    with pytest.raises(CacheSchemaError, match="WARP_DRIVE"):
        deserialize_result(data)


def test_machine_stats_from_dict_names_fields():
    with pytest.raises(ValueError, match="bogus"):
        MachineStats.from_dict({"bogus": 1})


# --- the store --------------------------------------------------------

SPEC = make_spec("HIST", "all-near", threads=4, scale=0.1)


def _plant(store, spec, text):
    """Write raw ``text`` under the spec's (sharded) cache path."""
    path = store.path_for(spec)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def test_store_miss_on_schema_drift(tmp_path):
    """A cache file from a different revision re-runs, never resurrects."""
    store = ResultStore(str(tmp_path))
    data = serialize_result(_tiny_result())
    data["from_the_future"] = True
    _plant(store, SPEC, json.dumps(data))
    assert store.load(SPEC) is None


def test_store_miss_on_corrupt_json(tmp_path):
    store = ResultStore(str(tmp_path))
    # Torn write from a crashed run.
    _plant(store, SPEC, '{"policy": "all-ne')
    assert store.load(SPEC) is None


def test_store_miss_on_directory_entry(tmp_path):
    """A cache entry that is a *directory* reads as a miss, not a crash."""
    store = ResultStore(str(tmp_path))
    os.makedirs(store.path_for(SPEC))
    assert store.load(SPEC) is None


def test_store_miss_on_shard_squatted_by_file(tmp_path):
    """A stray file where the shard dir should be reads as a miss."""
    store = ResultStore(str(tmp_path))
    with open(store.shard_dir(SPEC.cache_key()), "w") as fh:
        fh.write("not a directory")
    assert store.load(SPEC) is None  # NotADirectoryError swallowed


def test_store_round_trip_and_memo(tmp_path):
    store = ResultStore(str(tmp_path))
    result = _tiny_result()
    store.store(SPEC, result)
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")], \
        "temp files must never outlive a store"
    loaded = store.load(SPEC)
    assert loaded is result, "memo should serve the stored object"
    fresh = ResultStore(str(tmp_path))
    first = fresh.load(SPEC)
    assert first is not None
    assert fresh.load(SPEC) is first, "second load must hit the memo"
    assert serialize_result(first) == serialize_result(result)


def test_memo_keeps_the_wire_form_beside_the_result(tmp_path):
    """The wire form is built once when stored, kept from the parsed
    file on a disk read, and served as the same dict on every hit."""
    store = ResultStore(str(tmp_path))
    result = _tiny_result()
    store.store(SPEC, result)
    wire = store.load(SPEC, wire=True)
    assert wire == serialize_result(result)
    assert store.load(SPEC, wire=True) is wire
    fresh = ResultStore(str(tmp_path))
    parsed = fresh.load(SPEC, wire=True)
    with open(fresh.path_for(SPEC)) as fh:
        assert parsed == json.load(fh)
    assert fresh.load(SPEC, wire=True) is parsed
    assert serialize_result(fresh.load(SPEC)) == parsed


def test_store_disabled_keeps_memo_only(tmp_path):
    store = ResultStore(str(tmp_path / "never-created"), enabled=False)
    store.store(SPEC, _tiny_result())
    assert store.load(SPEC) is None, "disabled store must not serve hits"
    assert not (tmp_path / "never-created").exists()


def test_store_shards_by_key_prefix(tmp_path):
    """Entries land in 256-way key-prefix shard directories."""
    store = ResultStore(str(tmp_path))
    store.store(SPEC, _tiny_result())
    key = SPEC.cache_key()
    assert os.path.isfile(
        os.path.join(str(tmp_path), key[:2], key + ".json"))
    assert not os.path.exists(
        os.path.join(str(tmp_path), key + ".json"))


def test_store_treats_a_flat_layout_entry_as_a_miss(tmp_path):
    """Only the sharded layout is read: an entry flat under the cache
    root (the pre-shard layout) is a miss, and is left alone."""
    flat = tmp_path / (SPEC.cache_key() + ".json")
    flat.write_text(json.dumps(serialize_result(_tiny_result())))
    store = ResultStore(str(tmp_path))
    assert store.load(SPEC) is None
    assert not os.path.exists(store.path_for(SPEC))
    assert flat.exists()


def test_memo_is_a_bounded_lru(tmp_path):
    """The memo never exceeds its cap; evicted entries re-read from disk."""
    store = ResultStore(str(tmp_path), memo_entries=2)
    specs = [make_spec("HIST", "all-near", threads=4, scale=0.1, seed=s)
             for s in range(3)]
    for spec in specs:
        store.store(spec, _tiny_result())
    assert len(store._memo) == 2, "memo capped at memo_entries"
    # The oldest spec fell out of the memo but is still served from disk.
    oldest = store.load(specs[0])
    assert oldest is not None
    # Touching an entry refreshes its recency.
    store.load(specs[1])
    store.store(make_spec("HIST", "all-near", threads=4, scale=0.1, seed=9),
                _tiny_result())
    assert specs[1].cache_key() in store._memo, \
        "recently used entry survives the next insertion"


def test_memo_entries_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_MEMO_ENTRIES", raising=False)
    assert ResultStore(str(tmp_path)).memo_entries == 4096
    monkeypatch.setenv("REPRO_MEMO_ENTRIES", "7")
    assert ResultStore(str(tmp_path)).memo_entries == 7
    monkeypatch.setenv("REPRO_MEMO_ENTRIES", "0")
    with pytest.raises(ValueError, match="REPRO_MEMO_ENTRIES"):
        ResultStore(str(tmp_path))


def test_byte_budget_evicts_lru(tmp_path):
    """Writes past the byte budget evict the least-recently-used entries."""
    probe = ResultStore(str(tmp_path / "probe"))
    probe.store(SPEC, _tiny_result())
    entry_bytes = os.path.getsize(probe.path_for(SPEC))

    store = ResultStore(str(tmp_path / "real"), memo_entries=1,
                        byte_budget=entry_bytes * 2)
    specs = [make_spec("HIST", "all-near", threads=4, scale=0.1, seed=s)
             for s in range(3)]
    now = time.time()
    for i, spec in enumerate(specs):
        store.store(spec, _tiny_result())
        # Deterministic LRU order even on coarse-mtime filesystems.
        os.utime(store.path_for(spec), (now + i, now + i))
    store.evict_to_budget(protect=specs[-1].cache_key())
    assert store.disk_bytes() <= entry_bytes * 2
    assert not os.path.exists(store.path_for(specs[0])), \
        "oldest entry evicted"
    assert os.path.exists(store.path_for(specs[2])), \
        "newest entry survives"


def test_byte_budget_memo_hit_refreshes_recency(tmp_path):
    """An entry served from the memo is recent: eviction takes a colder one."""
    probe = ResultStore(str(tmp_path / "probe"))
    probe.store(SPEC, _tiny_result())
    entry_bytes = os.path.getsize(probe.path_for(SPEC))

    store = ResultStore(str(tmp_path / "real"),
                        byte_budget=entry_bytes * 5 // 2)
    a, b, c = (make_spec("HIST", "all-near", threads=4, scale=0.1, seed=s)
               for s in range(3))
    now = time.time()
    for age, spec in ((200, a), (100, b)):
        store.store(spec, _tiny_result())
        os.utime(store.path_for(spec), (now - age, now - age))
    assert store.load(a) is not None  # a memo hit
    store.store(c, _tiny_result())
    assert os.path.exists(store.path_for(a)), "hot entry survives"
    assert not os.path.exists(store.path_for(b)), "cold entry evicted"


def test_byte_budget_protects_latest_write(tmp_path):
    """A budget smaller than one entry still serves the entry just stored."""
    store = ResultStore(str(tmp_path), byte_budget=1)
    store.store(SPEC, _tiny_result())
    assert os.path.exists(store.path_for(SPEC))
    fresh = ResultStore(str(tmp_path))
    assert fresh.load(SPEC) is not None


def test_cache_bytes_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_BYTES", raising=False)
    assert ResultStore(str(tmp_path)).byte_budget is None
    monkeypatch.setenv("REPRO_CACHE_BYTES", "1048576")
    assert ResultStore(str(tmp_path)).byte_budget == 1048576
    monkeypatch.setenv("REPRO_CACHE_BYTES", "lots")
    with pytest.raises(ValueError, match="REPRO_CACHE_BYTES"):
        ResultStore(str(tmp_path))


# --- spec planning ----------------------------------------------------


def test_spec_resolves_config_from_overrides():
    config = DEFAULT_CONFIG.replace(amo_buffer_entries=0, router_latency=3)
    spec = make_spec("HIST", "all-near", threads=4, config=config)
    assert spec.resolve_config() == config
    assert make_spec("HIST", "all-near", threads=4).resolve_config() \
        is DEFAULT_CONFIG


def test_spec_rejects_too_many_threads():
    with pytest.raises(ValueError, match="cores"):
        make_spec("HIST", "all-near",
                  threads=DEFAULT_CONFIG.num_cores + 1)


#: ``cache_key()`` literals computed before keys were hashed once per
#: spec: every existing cache entry and serve key must stay addressable.
PINNED_KEYS = [
    (make_spec("WAT", "present-near", threads=8, scale=0.5, seed=0),
     "21861a904a477a43f3433cb7"),
    (make_spec("HIST", "dynamo-reuse-pn", threads=8, scale=0.5, seed=0,
               config=DEFAULT_CONFIG.replace(amt_entries=256,
                                             direct_inval_acks=True)),
     "ab745c19a56bb7579e2c92c6"),
]


@pytest.mark.parametrize("spec,key", PINNED_KEYS)
def test_cache_keys_are_pinned(spec, key):
    assert spec.cache_key() == key
    assert spec.cache_key() == key, "the kept key is the hashed one"
    # A config equal to the default but not the default object takes
    # the field walk and must land on the same key.
    walked = make_spec(spec.workload, spec.policy, threads=spec.threads,
                       scale=spec.scale, seed=spec.seed,
                       config=spec.resolve_config().replace())
    assert walked == spec and walked.cache_key() == key


def test_kept_key_stays_out_of_eq_hash_repr_and_replace():
    spec = make_spec("WAT", "present-near", threads=8, scale=0.5)
    fresh = make_spec("WAT", "present-near", threads=8, scale=0.5)
    key = spec.cache_key()
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == repr(fresh) and key not in repr(spec)
    assert dataclasses.asdict(spec) == dataclasses.asdict(fresh)
    other = dataclasses.replace(spec, seed=1)
    assert other.cache_key() != key, "replace must not carry the key over"
    assert pickle.loads(pickle.dumps(spec)).cache_key() == key


def test_with_config_of_the_base_returns_the_spec_itself():
    spec = ex.RunSpec("HIST", "all-near", 4)
    assert spec.with_config(DEFAULT_CONFIG) is spec
    changed = spec.with_config(DEFAULT_CONFIG.replace(mem_latency=7))
    assert changed.with_config(DEFAULT_CONFIG).config_overrides == (), \
        "recorded overrides are cleared, never kept by the shortcut"


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert Executor().jobs == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert Executor().jobs == 6
    assert make_executor().jobs == 6
    monkeypatch.setenv("REPRO_JOBS", "1")
    assert make_executor().jobs == 1
    with pytest.raises(ValueError, match="jobs"):
        make_executor(jobs=0)
    monkeypatch.setenv("REPRO_JOBS", "zero")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        Executor()
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        Executor()


#: The positive-int settings: default when unset or blank, and how the
#: harness reads each one.
ENV_INTS = {
    "REPRO_JOBS": (1, lambda: Executor(store=ResultStore(enabled=False)).jobs),
    "REPRO_MEMO_ENTRIES": (4096,
                           lambda: ResultStore(enabled=False).memo_entries),
    "REPRO_CACHE_BYTES": (None,
                          lambda: ResultStore(enabled=False).byte_budget),
}


@pytest.mark.parametrize("name", sorted(ENV_INTS))
@pytest.mark.parametrize("raw,want", [
    (None, "default"), ("", "default"), ("  ", "default"), ("5", 5),
    ("0", ValueError), ("-3", ValueError), ("abc", ValueError),
], ids=["unset", "empty", "blank", "5", "0", "-3", "abc"])
def test_env_int_settings(monkeypatch, name, raw, want):
    """Each setting reads as its default, its value, or a ValueError
    that names it."""
    default, read = ENV_INTS[name]
    for other in ENV_INTS:
        monkeypatch.delenv(other, raising=False)
    if raw is not None:
        monkeypatch.setenv(name, raw)
    if want is ValueError:
        with pytest.raises(ValueError, match=name):
            read()
        with pytest.raises(ValueError, match=name):
            env_int(name, default)
    else:
        expected = default if want == "default" else want
        assert read() == expected
        assert env_int(name, default) == expected


# --- serial vs parallel determinism -----------------------------------

GRID_WORKLOADS = ("HIST", "SPMV")
GRID_POLICIES = ("all-near", "unique-near", "dirty-near")


def _cache_bytes(cache_dir):
    out = {}
    for root, _dirs, names in os.walk(cache_dir):
        for name in sorted(names):
            rel = os.path.relpath(os.path.join(root, name), cache_dir)
            with open(os.path.join(root, name), "rb") as fh:
                out[rel] = fh.read()
    return out


def test_parallel_matches_serial_on_fig7_subgrid(tmp_path):
    """Cold-cache parallel sweep is byte-identical to the serial one."""
    serial = Executor(1, ResultStore(str(tmp_path / "serial")))
    parallel = Executor(4, ResultStore(str(tmp_path / "parallel")))
    kwargs = dict(threads=4, scale=0.1)
    grid_s = serial.sweep(GRID_WORKLOADS, GRID_POLICIES, **kwargs)
    grid_p = parallel.sweep(GRID_WORKLOADS, GRID_POLICIES, **kwargs)
    for wl in GRID_WORKLOADS:
        for pol in GRID_POLICIES:
            assert serialize_result(grid_p[wl][pol]) == \
                serialize_result(grid_s[wl][pol]), (wl, pol)
    speed_s = speedups_vs_baseline(grid_s)
    speed_p = speedups_vs_baseline(grid_p)
    assert speed_s == speed_p
    assert _cache_bytes(tmp_path / "serial") == \
        _cache_bytes(tmp_path / "parallel")


def test_parallel_deduplicates_and_orders(tmp_path):
    executor = Executor(2, ResultStore(str(tmp_path)))
    spec = executor.make_spec("HIST", "all-near", threads=4, scale=0.1)
    other = executor.make_spec("HIST", "unique-near", threads=4, scale=0.1)
    results = executor.run_many([spec, other, spec])
    assert results[0] is results[2], "duplicate specs run once"
    assert results[0].policy == "all-near"
    assert results[1].policy == "unique-near"


def test_lone_miss_runs_in_process(tmp_path, monkeypatch):
    """One cell, even asked for twice, starts no pool at any ``jobs``."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a lone miss started a pool")

    monkeypatch.setattr(ex, "ProcessCompute", no_pool)
    executor = Executor(4, ResultStore(str(tmp_path)))
    spec = executor.make_spec("HIST", "all-near", threads=4, scale=0.1)
    first, again = executor.run_many([spec, spec])
    assert first is again
    assert executor.run(spec) is first, "the stored result answers"


def die_once(marker, specs):
    """Kill the first worker that runs this; later calls run the group."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        return _execute_group_serialized(specs)
    os.close(fd)
    os._exit(1)


def test_parallel_sweep_survives_a_worker_death(tmp_path, monkeypatch):
    """The dead worker's tasks rerun on a fresh pool; the batch equals
    the serial one and leaves no child process behind."""
    marker = str(tmp_path / "worker-died")
    monkeypatch.setattr(ex, "_execute_group_serialized",
                        functools.partial(die_once, marker))
    specs = [make_spec(wl, pol, threads=4, scale=0.1)
             for wl in GRID_WORKLOADS for pol in GRID_POLICIES]
    parallel = make_executor(2, ResultStore(enabled=False)).run_many(specs)
    assert os.path.exists(marker), "a worker must have died"
    assert multiprocessing.active_children() == []
    serial = make_executor(1, ResultStore(enabled=False)).run_many(specs)
    assert [serialize_result(r) for r in parallel] == \
        [serialize_result(r) for r in serial]


# --- error reporting --------------------------------------------------


def test_speedups_require_baseline(tmp_executor):
    grid = tmp_executor.sweep(["HIST"], ["unique-near"],
                              threads=4, scale=0.1)
    with pytest.raises(ValueError) as err:
        speedups_vs_baseline(grid)
    assert "all-near" in str(err.value)
    assert "HIST" in str(err.value)


# --- sweep progress ---------------------------------------------------


class _FakeTTY:
    def __init__(self, tty=True):
        self.lines = []
        self._tty = tty

    def isatty(self):
        return self._tty

    def write(self, text):
        self.lines.append(text)

    def flush(self):
        pass


def test_spec_label_formats_the_cell():
    from repro.harness.executor import spec_label
    spec = make_spec("HIST", "dynamo-reuse-pn", threads=8, scale=0.5)
    assert spec_label(spec) == "HIST/dynamo-reuse-pn t8 x0.5"
    full = make_spec("COUNTER", "all-near", threads=4)
    assert spec_label(full) == "COUNTER/all-near t4"


def test_progress_prints_to_a_tty(monkeypatch):
    from repro.harness.executor import SweepProgress
    monkeypatch.delenv("REPRO_PROGRESS", raising=False)
    stream = _FakeTTY(tty=True)
    progress = SweepProgress(2, stream=stream)
    spec = make_spec("HIST", "all-near", threads=4, scale=0.1)
    progress.step(spec)
    progress.step(spec)
    text = "".join(stream.lines)
    assert "[1/2] HIST/all-near t4 x0.1" in text
    assert "[2/2]" in text


def test_progress_suppressed_without_a_tty(monkeypatch):
    from repro.harness.executor import SweepProgress
    monkeypatch.delenv("REPRO_PROGRESS", raising=False)
    stream = _FakeTTY(tty=False)
    progress = SweepProgress(3, stream=stream)
    progress.step(make_spec("HIST", "all-near", threads=4))
    assert stream.lines == []
    assert progress.done == 1, "counting continues even when quiet"


def test_progress_env_override(monkeypatch):
    from repro.harness.executor import SweepProgress
    spec = make_spec("HIST", "all-near", threads=4)
    monkeypatch.setenv("REPRO_PROGRESS", "1")
    forced_on = SweepProgress(1, stream=_FakeTTY(tty=False))
    forced_on.step(spec)
    assert forced_on._stream.lines
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    forced_off = SweepProgress(1, stream=_FakeTTY(tty=True))
    forced_off.step(spec)
    assert forced_off._stream.lines == []


def test_progress_disabled_for_empty_sweeps(monkeypatch):
    from repro.harness.executor import SweepProgress
    monkeypatch.setenv("REPRO_PROGRESS", "1")
    assert not SweepProgress(0, stream=_FakeTTY()).enabled


# --- a cell leaves nothing behind in its process ----------------------


def test_cells_leave_no_memory_behind():
    """Pool workers and ``repro serve`` run many cells in one process, so
    a finished cell must not leave state behind: after a warm-up cell
    (imports, registries), later cells with other workloads and seeds
    return traced memory to the post-warm-up level."""
    import gc
    import tracemalloc

    from repro.harness.executor import execute_spec

    def cell(workload, seed):
        execute_spec(make_spec(workload, "dynamo-reuse-pn", threads=4,
                               scale=0.2, seed=seed))
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        baseline = cell("HIST", 0)
        growth = [cell(w, s) - baseline
                  for w, s in (("SPMV", 1), ("CC", 2), ("HIST", 3))]
    finally:
        tracemalloc.stop()
    assert max(growth) < 32 * 1024, f"bytes left behind per cell: {growth}"
