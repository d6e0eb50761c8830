"""Run planning and execution: specs, result store, executor, process pool.

The harness splits an experiment into three concerns:

* **Planning** — :class:`RunSpec` is a frozen, picklable description of
  one simulation cell.  It records configuration as *overrides relative
  to* :data:`~repro.sim.config.DEFAULT_CONFIG`, so a spec alone is
  enough to reconstruct the run anywhere (in particular inside a worker
  process that never saw the caller's ``SystemConfig`` object).
* **Storage** — :class:`ResultStore` memoizes results on disk keyed by
  the spec's cache key, with crash-safe writes (unique temp file +
  atomic rename, safe against concurrent sweeps sharing one cache
  directory) and an in-process memo so a sweep never deserializes the
  same JSON twice; the memo keeps each result's wire form and its
  encoded bytes beside it, so a served hit never serializes either.  A
  spec hashes its cache key once.  The store is service-grade: entries
  live in 256 key-prefix shard directories (an entry in the flat
  pre-shard layout is a miss and is left in place), the memo is a
  bounded LRU so a long-lived server cannot leak memory across
  millions of distinct specs, all memo traffic is thread-safe, and an
  optional byte budget (``$REPRO_CACHE_BYTES``) evicts
  least-recently-used entries from disk after every write.
* **Execution** — :class:`Executor` is the harness's one way to run
  cells: it plans them against its system config (``make_spec``) and
  runs one cell, a batch or a workload x policy grid (``run``,
  ``run_many``, ``sweep``) through one path.  It deduplicates a batch's
  misses by cache key and groups them by everything but the policy.
  Each group runs through :func:`iter_group`, which simulates one cell
  per distinct decision sequence: the other policies of the group ride
  along as shadows and take the leader's result when they agreed with
  its every placement decision (DESIGN.md §9).  At ``jobs == 1`` the
  groups run in order in this process; otherwise they fan out over a
  :class:`ProcessCompute`, the one process pool of the package, which
  ``repro serve`` and ``repro golden --jobs N`` use too.  Workers return
  *serialized* result dicts and the parent deserializes and stores them,
  so a parallel sweep produces byte-identical cache files to a serial
  one.

Serialization is strict: :func:`deserialize_result` rejects unknown or
missing fields with :class:`CacheSchemaError`, and the store treats any
such mismatch as a cache miss — a stale cache written by a different
model revision re-runs instead of silently resurrecting drifted data.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import multiprocessing
import os
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import Connection
from typing import (IO, Callable, Dict, Iterable, Iterator, List, Literal,
                    Optional, Sequence, Tuple, TypeVar, Union, overload)

from repro.energy.model import EnergySink
from repro.noc.message import MsgType, TrafficMeter
from repro.sim.config import DEFAULT_CONFIG, SystemConfig
from repro.sim.engine import run as engine_run
from repro.sim.events import EventBus, Sink
from repro.sim.machine import Machine
from repro.sim.results import MachineStats, SimulationResult
from repro.workloads.base import make_workload

#: Bump to invalidate all cached results after a model change.
CACHE_VERSION = 8

#: Safety budget: no workload cell should ever need this many cycles.
MAX_CYCLES = 2_000_000_000


#: Shard fan-out: cache keys are hex, two prefix characters = 256 dirs.
SHARD_CHARS = 2

#: Default memo capacity (results held deserialized in memory).
DEFAULT_MEMO_ENTRIES = 4096


def default_cache_dir() -> str:
    """Cache location: ``$REPRO_CACHE_DIR`` or ``.repro_cache`` in cwd."""
    return os.environ.get("REPRO_CACHE_DIR",
                          os.path.join(os.getcwd(), ".repro_cache"))


_D = TypeVar("_D")


def env_int(name: str, default: _D) -> Union[int, _D]:
    """``$name`` as a positive integer, or ``default`` when unset or blank.

    Raises:
        ValueError: naming ``name``, when the value is not an int >= 1.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


class CacheSchemaError(ValueError):
    """A cached result does not match the current result schema."""


#: ``json.dumps(obj, sort_keys=True)``, without a new encoder per call.
sorted_json = json.JSONEncoder(sort_keys=True).encode


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything that identifies one simulation cell."""

    workload: str
    policy: str
    threads: int
    scale: float = 1.0
    seed: int = 0
    input_name: Optional[str] = None
    config_overrides: Tuple = ()  # sorted (key, value) pairs

    def with_config(self, config: SystemConfig,
                    base: SystemConfig = DEFAULT_CONFIG) -> "RunSpec":
        """Record how ``config`` differs from ``base`` (for cache keys)."""
        if config is base and not self.config_overrides:
            return self  # nothing to record: skip the field walk
        overrides = []
        for field in dataclasses.fields(SystemConfig):
            val = getattr(config, field.name)
            if val != getattr(base, field.name):
                overrides.append((field.name, val))
        return dataclasses.replace(self, config_overrides=tuple(overrides))

    def resolve_config(self,
                       base: SystemConfig = DEFAULT_CONFIG) -> SystemConfig:
        """Reconstruct the run's ``SystemConfig`` from the overrides.

        The inverse of :meth:`with_config`: a spec is self-describing,
        so worker processes rebuild the configuration from the spec
        alone.
        """
        if not self.config_overrides:
            return base
        return base.replace(**dict(self.config_overrides))

    def cache_key(self) -> str:
        """The spec's store key, hashed on first use and then kept.

        The key lives in the instance ``__dict__``, outside the dataclass
        fields, so it takes no part in eq, hash, repr or ``asdict``, and
        ``dataclasses.replace`` starts the new spec without it.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            payload = sorted_json(
                [CACHE_VERSION, self.workload, self.policy, self.threads,
                 self.scale, self.seed, self.input_name,
                 list(self.config_overrides)])
            key = hashlib.sha256(payload.encode()).hexdigest()[:24]
            object.__setattr__(self, "_cache_key", key)
        return key


def make_spec(workload: str, policy: str, threads: Optional[int] = None,
              scale: float = 1.0, seed: int = 0,
              input_name: Optional[str] = None,
              config: SystemConfig = DEFAULT_CONFIG) -> RunSpec:
    """Plan one cell: validate inputs and fold ``config`` into the spec."""
    threads = threads if threads is not None else config.num_cores
    if threads > config.num_cores:
        raise ValueError(
            f"{threads} threads > {config.num_cores} cores in config")
    return RunSpec(workload, policy, threads, scale, seed,
                   input_name).with_config(config)


# --- result (de)serialization --------------------------------------------

#: Exact top-level field set of a serialized result.  Deserialization
#: rejects any deviation so schema drift surfaces as a cache miss, never
#: as a half-populated result.
RESULT_FIELDS = frozenset({
    "policy", "cycles", "per_core_finish", "instructions",
    "amos_committed", "stats", "messages", "flits", "flit_hops",
    "near_decisions", "far_decisions", "energy", "metadata",
})


def serialize_result(result: SimulationResult) -> Dict:
    """Flatten a result to a JSON-serializable dict (stable field order)."""
    return {
        "policy": result.policy,
        "cycles": result.cycles,
        "per_core_finish": result.per_core_finish,
        "instructions": result.instructions,
        "amos_committed": result.amos_committed,
        "stats": result.stats.as_dict(),
        "messages": result.traffic.by_type(),
        "flits": result.traffic.flits,
        "flit_hops": result.traffic.flit_hops,
        "near_decisions": result.near_decisions,
        "far_decisions": result.far_decisions,
        "energy": result.energy,
        "metadata": result.metadata,
    }


def deserialize_result(data: Dict) -> SimulationResult:
    """Rebuild a result from :func:`serialize_result` output.

    Raises:
        CacheSchemaError: on unknown/missing fields anywhere in the
            payload — the data was written by a different model revision.
    """
    unknown = set(data) - RESULT_FIELDS
    if unknown:
        raise CacheSchemaError(
            f"unknown result fields: {sorted(unknown)}")
    missing = RESULT_FIELDS - set(data)
    if missing:
        raise CacheSchemaError(
            f"missing result fields: {sorted(missing)}")
    try:
        stats = MachineStats.from_dict(data["stats"])
    except ValueError as exc:
        raise CacheSchemaError(str(exc)) from None
    traffic = TrafficMeter()
    for name, count in data["messages"].items():
        try:
            traffic.messages[MsgType[name]] = count
        except KeyError:
            raise CacheSchemaError(
                f"unknown message type {name!r}") from None
    traffic.flits = data["flits"]
    traffic.flit_hops = data["flit_hops"]
    return SimulationResult(
        policy=data["policy"],
        cycles=data["cycles"],
        per_core_finish=data["per_core_finish"],
        instructions=data["instructions"],
        amos_committed=data["amos_committed"],
        stats=stats,
        traffic=traffic,
        near_decisions=data["near_decisions"],
        far_decisions=data["far_decisions"],
        energy=data["energy"],
        metadata=data["metadata"],
    )


# --- the result store -----------------------------------------------------

class Wire(dict):
    """A result's wire form: its :func:`serialize_result` dict, with
    ``encoded``, that dict as sorted-key JSON bytes, built on first use
    and then kept.

    The store keeps one beside each memoized result, writes ``encoded``
    as the entry's file and hands the same object to every caller, so
    it must not be mutated.  ``repro serve`` splices ``encoded`` into
    its responses rather than encoding the dict again; a result only
    read from disk by a sweep is never encoded.
    """

    __slots__ = ("_encoded",)

    def __init__(self, data: Dict) -> None:
        super().__init__(data)
        self._encoded: Optional[bytes] = None

    @property
    def encoded(self) -> bytes:
        # Threads racing on the first use each build the same bytes.
        if self._encoded is None:
            self._encoded = sorted_json(self).encode()
        return self._encoded


#: One memo entry: a result and its wire form.
_Entry = Tuple[SimulationResult, Wire]


class ResultStore:
    """Sharded on-disk result cache with a bounded in-process memo.

    Writes go to a uniquely named temp file in the entry's shard
    directory and are published with an atomic :func:`os.replace`, so
    concurrent processes (or a crash mid-write) can never leave a torn
    JSON file behind under the final name.  Reads that fail to parse,
    fail the schema check, or fail at the OS level (a corrupted entry
    that is a directory, an unreadable file, a shard path squatted by a
    stray file) are treated as misses — a damaged cache recomputes, it
    never crashes the caller.

    Layout: entries are spread over 256 shard directories keyed by the
    first two hex characters of the cache key, keeping per-directory
    entry counts sane at service scale.

    The memo is an LRU bounded at ``memo_entries`` results (default
    ``$REPRO_MEMO_ENTRIES`` or 4096) and guarded by a lock, so a
    long-lived multi-threaded server can serve concurrent readers
    without leaking memory across millions of distinct specs.  Each
    entry keeps the result's :class:`Wire` form beside it, built once
    when the result is stored or from the parsed file on a disk read,
    so ``load(spec, wire=True)`` answers a hit with no serialization
    beyond the first encoding of a result read from disk.
    Wire forms are shared by every caller and must not be mutated.
    When a byte budget is set (``byte_budget`` or
    ``$REPRO_CACHE_BYTES``), every write evicts least-recently-used
    entries (by mtime; every hit, memo or disk, re-touches its file)
    until the cache fits the budget.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 enabled: bool = True,
                 memo_entries: Optional[int] = None,
                 byte_budget: Optional[int] = None) -> None:
        self.cache_dir = cache_dir or default_cache_dir()
        self.enabled = enabled
        self.memo_entries = (memo_entries if memo_entries is not None
                             else env_int("REPRO_MEMO_ENTRIES",
                                          DEFAULT_MEMO_ENTRIES))
        if self.memo_entries < 1:
            raise ValueError(
                f"memo_entries must be >= 1, got {self.memo_entries}")
        self.byte_budget = (byte_budget if byte_budget is not None
                            else env_int("REPRO_CACHE_BYTES", None))
        self._memo: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        if self.enabled:
            os.makedirs(self.cache_dir, exist_ok=True)

    # --- paths --------------------------------------------------------

    def shard_dir(self, key: str) -> str:
        """Shard directory holding ``key``'s entry."""
        return os.path.join(self.cache_dir, key[:SHARD_CHARS])

    def path_for(self, spec: RunSpec) -> str:
        key = spec.cache_key()
        return os.path.join(self.shard_dir(key), key + ".json")

    # --- memo (LRU, thread-safe) --------------------------------------

    def _memo_get(self, key: str) -> Optional[_Entry]:
        with self._lock:
            entry = self._memo.get(key)
            if entry is not None:
                self._memo.move_to_end(key)
            return entry

    def _memo_put(self, key: str, entry: _Entry) -> None:
        with self._lock:
            self._memo[key] = entry
            self._memo.move_to_end(key)
            while len(self._memo) > self.memo_entries:
                self._memo.popitem(last=False)

    # --- read ---------------------------------------------------------

    @staticmethod
    def _read_json(path: str) -> Optional[Dict]:
        """Parse ``path`` or return None; any failure mode is a miss."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError, UnicodeDecodeError):
            # OSError covers FileNotFoundError, IsADirectoryError and
            # permission problems; ValueError covers JSONDecodeError.
            return None
        return data if isinstance(data, dict) else None

    @overload
    def load(self, spec: RunSpec,
             wire: Literal[False] = False) -> Optional[SimulationResult]: ...

    @overload
    def load(self, spec: RunSpec, wire: Literal[True]) -> Optional[Wire]: ...

    def load(self, spec: RunSpec, wire: bool = False
             ) -> Optional[Union[SimulationResult, Wire]]:
        """Cached result for ``spec``, or None on a miss.

        With ``wire`` set, the result's shared :class:`Wire` form
        instead of the result.
        """
        if not self.enabled:
            return None
        key = spec.cache_key()
        entry = self._memo_get(key)
        if entry is None:
            data = self._read_json(self.path_for(spec))
            if data is None:
                return None
            try:
                entry = (deserialize_result(data), Wire(data))
            except CacheSchemaError:
                return None  # written by a different revision: recompute
            self._memo_put(key, entry)
        if self.byte_budget is not None:
            try:  # refresh recency so LRU eviction spares hot entries
                os.utime(self.path_for(spec))
            except OSError:
                pass
        return entry[1] if wire else entry[0]

    # --- write --------------------------------------------------------

    def _write_entry(self, key: str, data: bytes) -> None:
        """Crash-safe publish of one encoded entry into its shard."""
        shard = self.shard_dir(key)
        os.makedirs(shard, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=shard, prefix=key + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, os.path.join(shard, key + ".json"))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def store(self, spec: RunSpec, result: SimulationResult,
              wire: Optional[Wire] = None) -> None:
        """Persist ``result`` for ``spec`` in the memo and on disk; a
        disabled store keeps nothing.  ``wire`` is the result's
        :class:`Wire` form when the caller already has it."""
        if not self.enabled:
            return
        key = spec.cache_key()
        if wire is None:
            wire = Wire(serialize_result(result))
        self._memo_put(key, (result, wire))
        self._write_entry(key, wire.encoded)
        if self.byte_budget is not None:
            self.evict_to_budget(protect=key)

    # --- eviction -----------------------------------------------------

    def _disk_entries(self) -> List[Tuple[float, int, str]]:
        """All cache entries as ``(mtime, size, path)`` (stat races ok)."""
        entries = []
        try:
            roots = [self.cache_dir] + [
                os.path.join(self.cache_dir, d)
                for d in os.listdir(self.cache_dir)
                if os.path.isdir(os.path.join(self.cache_dir, d))]
        except OSError:
            return []
        for root in roots:
            try:
                names = os.listdir(root)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(root, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue  # concurrently evicted
                entries.append((st.st_mtime, st.st_size, path))
        return entries

    def disk_bytes(self) -> int:
        """Total bytes currently held on disk."""
        return sum(size for _, size, _ in self._disk_entries())

    def evict_to_budget(self, protect: Optional[str] = None) -> int:
        """Remove LRU entries until the cache fits ``byte_budget``.

        ``protect`` names a cache key that must survive this pass (the
        entry just written), so a budget smaller than one result still
        serves it.  Returns the number of entries removed.
        """
        if self.byte_budget is None:
            return 0
        entries = sorted(self._disk_entries())
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _, size, path in entries:
            if total <= self.byte_budget:
                break
            if protect is not None and os.path.basename(path) == \
                    protect + ".json":
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
        return removed


# --- sweep progress -------------------------------------------------------

def spec_label(spec: RunSpec) -> str:
    """Compact human label for one cell (progress lines, reports)."""
    label = f"{spec.workload}/{spec.policy}"
    if spec.input_name:
        label += f":{spec.input_name}"
    label += f" t{spec.threads}"
    if spec.scale != 1.0:
        label += f" x{spec.scale:g}"
    return label


class SweepProgress:
    """Per-completed-cell progress lines for long sweeps.

    Cold figure grids simulate for minutes with no output; this emits
    one ``[k/n] spec-label (t.ts)`` line to stderr as each *simulated*
    cell completes (cache hits are instant and not worth a line).
    Output is suppressed when stderr is not a TTY — CI logs and shell
    pipelines stay clean — and ``$REPRO_PROGRESS`` overrides the TTY
    check ("1" forces lines on, "0" forces them off).
    """

    def __init__(self, total: int, stream: Optional[IO[str]] = None) -> None:
        self.total = total
        self.done = 0
        self._stream = stream if stream is not None else sys.stderr
        self._t0 = time.monotonic()
        forced = os.environ.get("REPRO_PROGRESS", "").strip()
        if forced == "1":
            self.enabled = total > 0
        elif forced == "0":
            self.enabled = False
        else:
            isatty = getattr(self._stream, "isatty", None)
            self.enabled = (total > 0 and isatty is not None and isatty())

    def step(self, spec: RunSpec) -> None:
        """Record (and maybe print) one completed simulation."""
        self.done += 1
        if not self.enabled:
            return
        elapsed = time.monotonic() - self._t0
        print(f"[{self.done}/{self.total}] {spec_label(spec)} "
              f"({elapsed:.1f}s)", file=self._stream, flush=True)


# --- execution ------------------------------------------------------------

def execute_spec(spec: RunSpec, extra_sinks: Sequence[Sink] = (),
                 shadows: Optional[List[str]] = None) -> SimulationResult:
    """Simulate one cell from scratch (no cache involvement).

    An :class:`~repro.energy.model.EnergySink` is always attached so the
    result carries its dynamic-energy breakdown; ``extra_sinks`` adds
    instrumentation (tracing, invariant checking) for this run only.
    ``shadows`` names other policies to run beside ``spec.policy``
    (:func:`iter_group`); on return the list holds only those that made
    the leader's every placement decision.  A sink that wants events
    makes the bus active, and shadows refuse an active bus.
    """
    config = spec.resolve_config()
    bus = EventBus()
    bus.subscribe(EnergySink(num_cores=spec.threads))
    for sink in extra_sinks:
        bus.subscribe(sink)
    wl = make_workload(spec.workload, spec.threads, scale=spec.scale,
                       seed=spec.seed, input_name=spec.input_name)
    machine = Machine(config, spec.policy, bus=bus, shadows=shadows or ())
    for addr, value in wl.initial_values().items():
        machine.poke_value(addr, value)
    result = engine_run(machine, wl.programs(), max_cycles=MAX_CYCLES)
    # Merge rather than assign: observability sinks annotate metadata at
    # finalize time (histograms, interval series, contention tables) and
    # those payloads must survive.  Default mode (no extra sinks) starts
    # from an empty dict, so cache files stay byte-identical.
    result.metadata.update({
        "workload": spec.workload,
        "input": wl.input_name,
        "threads": spec.threads,
        "scale": spec.scale,
        "amo_footprint_bytes": wl.amo_footprint_bytes,
    })
    bus.close()
    if shadows:
        shadows[:] = machine.live_shadows
    return result


def iter_group(specs: Sequence[RunSpec]
               ) -> Iterator[Tuple[int, SimulationResult]]:
    """Simulate cells that differ only in policy; yield ``(index, result)``.

    Each round simulates the first pending spec as the leader with every
    other pending policy as a shadow.  It yields the leader's result,
    then one result per shadow that agreed with every decision: the
    leader's serialized result with only ``policy`` replaced,
    deserialized into fresh objects.  Shadows that disagreed form the
    next round.  A policy's run depends on the policy only through its
    placement answers (hooks mutate policy state alone), so every result
    is bit-identical to :func:`execute_spec` of its spec alone, and the
    group costs one simulation per distinct decision sequence.

    Raises:
        ValueError: if two specs differ in more than their policy.
    """
    if not specs:
        return
    first = specs[0]
    for spec in specs:
        if dataclasses.replace(spec, policy=first.policy) != first:
            raise ValueError(f"{spec_label(spec)} and {spec_label(first)} "
                             f"differ in more than their policy")
    pending = list(range(len(specs)))
    while pending:
        lead, rest = pending[0], pending[1:]
        agreed = [specs[i].policy for i in rest]
        result = execute_spec(specs[lead], shadows=agreed)
        yield lead, result
        if agreed:
            data = serialize_result(result)
            for i in rest:
                if specs[i].policy in agreed:
                    yield i, deserialize_result(copy.deepcopy(
                        dict(data, policy=specs[i].policy)))
        pending = [i for i in rest if specs[i].policy not in agreed]


def _execute_group_serialized(specs: Sequence[RunSpec]) -> List[Dict]:
    """Worker entry point of a sweep: one policy group, serialized in
    the order of ``specs``."""
    out: List[Dict] = [{}] * len(specs)
    for i, result in iter_group(specs):
        out[i] = serialize_result(result)
    return out


#: One distinct missing cell of a batch: ``(spec, batch indices)``.
_Member = Tuple[RunSpec, List[int]]
#: One group of a batch's misses, all specs differing only in policy.
_Group = List[_Member]


def _plan_misses(store: ResultStore, specs: Sequence[RunSpec]
                 ) -> Tuple[List[Optional[SimulationResult]], List[_Group]]:
    """Cache pass over a batch: the hits by index, and the misses
    deduplicated by cache key and grouped by spec-minus-policy (groups
    and their members in first-appearance order)."""
    results: List[Optional[SimulationResult]] = [None] * len(specs)
    misses: Dict[str, _Member] = {}
    for i, spec in enumerate(specs):
        cached = store.load(spec)
        if cached is not None:
            results[i] = cached
        else:
            misses.setdefault(spec.cache_key(), (spec, []))[1].append(i)
    groups: Dict[RunSpec, _Group] = {}
    for spec, idxs in misses.values():
        key = dataclasses.replace(spec, policy="")
        groups.setdefault(key, []).append((spec, idxs))
    return results, list(groups.values())


def _exit_with_parent(lifeline: Connection) -> None:
    """Pool initializer: end this worker when the pool's owner ends.

    ``lifeline`` is the read end of a pipe whose only writer is the
    owning process, so it reads EOF once that process is gone, even
    after SIGKILL.  Idle workers otherwise block forever on the call
    queue (and keep the forkserver and the owner's stdout pipe alive
    with them).
    """
    def watch() -> None:
        try:
            lifeline.recv_bytes()
        except (EOFError, OSError):
            pass
        os._exit(1)

    threading.Thread(target=watch, name="lifeline", daemon=True).start()


class ProcessCompute:
    """The one process pool: runs ``worker`` in child processes.

    :meth:`map_completed` runs ``worker`` over a list of items and
    yields ``(index, output)`` as each finishes; calling the object
    with a spec simulates that one cell (the serve path).  The default
    worker returns serialized results that the caller deserializes, so
    the caller stays the single writer to the store and cache files are
    byte-identical to a serial run.

    The pool uses the ``forkserver`` start method, because ``repro
    serve`` is multi-threaded by the time it starts and a forked child
    would inherit the lifeline's write end.  It is created on the first
    submission, so building one starts no process.  A dead worker
    breaks the whole pool: the items the pool had not finished rerun
    once on a fresh pool, and a second death propagates as
    :class:`BrokenProcessPool`.  Workers exit with the owning process,
    however it ends.
    """

    def __init__(self, workers: int,
                 worker: Callable = _execute_group_serialized) -> None:
        self.workers = workers
        self.worker = worker
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lifeline = multiprocessing.Pipe(duplex=False)

    def _current_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("forkserver"),
                    initializer=_exit_with_parent,
                    initargs=(self._lifeline[0],))
            return self._pool

    def _retire(self, pool: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._pool is pool:  # first caller to notice replaces it
                self._pool = None
        pool.shutdown(wait=False)

    def map_completed(self, items: Sequence) -> Iterator[Tuple[int, object]]:
        """Run ``worker`` on every item; yield ``(index, output)`` in
        completion order.  A worker's own exception propagates."""
        todo = dict(enumerate(items))
        for retry in (False, True):
            pool = self._current_pool()
            futures: Dict = {}
            broken = None
            try:
                for i, item in todo.items():
                    futures[pool.submit(self.worker, item)] = i
            except BrokenProcessPool as exc:
                broken = exc
            for future in as_completed(futures):
                if isinstance(future.exception(), BrokenProcessPool):
                    broken = future.exception()
                    continue
                del todo[futures[future]]
                yield futures[future], future.result()
            if broken is None:
                return
            self._retire(pool)
            if retry:
                raise broken

    def __call__(self, spec: RunSpec) -> SimulationResult:
        [(_, [data])] = self.map_completed([[spec]])
        return deserialize_result(data)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)


class Executor:
    """Plans cells against ``config`` and runs them over a result store.

    ``jobs`` defaults to ``$REPRO_JOBS`` or 1; a ``ResultStore(enabled=
    False)`` runs every cell afresh and keeps nothing.  A batch's misses
    are deduplicated and grouped (:func:`_plan_misses`) and each result
    is stored as soon as it is known, so a merged cell lands right after
    its leader.  At ``jobs == 1``, or for a lone miss, the groups run in
    order in this process.  Otherwise they run on a
    :class:`ProcessCompute` of ``jobs`` workers, made on the batch's
    first miss and shut down when the batch returns, one task per group;
    with fewer groups than ``jobs``, each group is split into strided
    parts and merges happen within a part only.
    """

    def __init__(self, jobs: Optional[int] = None,
                 store: Optional[ResultStore] = None,
                 config: SystemConfig = DEFAULT_CONFIG) -> None:
        if jobs is None:
            jobs = env_int("REPRO_JOBS", 1)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.store = store if store is not None else ResultStore()
        self.config = config

    def make_spec(self, workload: str, policy: str,
                  threads: Optional[int] = None, scale: float = 1.0,
                  seed: int = 0, input_name: Optional[str] = None,
                  config: Optional[SystemConfig] = None) -> RunSpec:
        """Plan one cell against this executor's (or an override) config."""
        return make_spec(workload, policy, threads=threads, scale=scale,
                         seed=seed, input_name=input_name,
                         config=config or self.config)

    def run(self, spec: RunSpec) -> SimulationResult:
        """Run one cell (or return its stored result)."""
        return self.run_many([spec])[0]

    def sweep(self, workloads: Iterable[str], policies: Iterable[str],
              **kwargs) -> Dict[str, Dict[str, SimulationResult]]:
        """Run a workload x policy grid; returns results[workload][policy].

        ``kwargs`` go to :meth:`make_spec` for every cell.
        """
        cells = [(wl, pol) for wl in workloads for pol in policies]
        results = self.run_many(
            [self.make_spec(wl, pol, **kwargs) for wl, pol in cells])
        grid: Dict[str, Dict[str, SimulationResult]] = {}
        for (wl, pol), result in zip(cells, results):
            grid.setdefault(wl, {})[pol] = result
        return grid

    def run_many(self, specs: Iterable[RunSpec]) -> List[SimulationResult]:
        """Run a batch of cells; results come back in spec order."""
        specs = list(specs)
        results, groups = _plan_misses(self.store, specs)
        progress = SweepProgress(sum(len(group) for group in groups))
        for (spec, idxs), result in self._simulate(groups):
            self.store.store(spec, result)
            for i in idxs:
                results[i] = result
            progress.step(spec)
        return results  # type: ignore[return-value]

    def _simulate(self, groups: List[_Group]
                  ) -> Iterator[Tuple[_Member, SimulationResult]]:
        """Yield ``((spec, idxs), result)`` per miss as it completes."""
        # A pool for a lone miss would only add its start-up.
        if self.jobs == 1 or sum(map(len, groups)) < 2:
            for group in groups:
                for j, result in iter_group([spec for spec, _ in group]):
                    yield group[j], result
            return
        parts = -(-self.jobs // len(groups))
        tasks = [group[k::parts] for group in groups
                 for k in range(min(parts, len(group)))]
        # Looked up at call time, so tests can swap the worker.
        compute = ProcessCompute(self.jobs, _execute_group_serialized)
        try:
            for t, out in compute.map_completed(
                    [[spec for spec, _ in task] for task in tasks]):
                for member, data in zip(tasks[t], out):
                    yield member, deserialize_result(data)
        finally:
            compute.shutdown()


#: ``make_executor(jobs, store)``: the executor under its factory name.
make_executor = Executor
