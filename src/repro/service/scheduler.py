"""Job scheduling: one single-flight table over the result store.

``submit`` answers cache hits synchronously (no worker involved) with
the :class:`~repro.harness.executor.Wire` form the store keeps beside
each result, so a hit serializes nothing (a job snapshot splices each
result's stored encoding into its JSON), and fans misses out over a
``ThreadPoolExecutor`` of flight threads.  By default each flight
thread simulates its miss in a worker *process* of the harness's
:class:`~repro.harness.executor.ProcessCompute` (the same pool that
parallel sweeps use) and only waits here, so simulations never hold
the GIL that cache hits and the HTTP front end need.

Every key has one owner while it is missing: the pending table.  A
later cell for a key that is already in flight (same job or another
job) is parked on that flight instead of occupying a pool slot, so a
small pool can never fill up with duplicates waiting on a leader queued
behind them.  The flight thread re-checks the store before computing
(a result may have been stored after ``submit`` missed), computes and
stores on a real miss, and counts the outcome before it finishes the
flight's cells.  A miss serializes its result once: the store and the
flight's cells share that wire form.  A failed flight stores nothing, so
a later request retries it.

Counters (``GET /v1/stats`` ``cache``): ``hits`` — cells answered from
the store; ``computed`` — simulations run (one per flight that
missed); ``joined`` — cells parked on another cell's flight;
``errors`` — flights whose compute raised; ``misses`` =
``computed + joined``.  Every completed cell counts in exactly one of
hits, computed, joined and errors, so
``hits + computed + joined + errors == completed`` once the scheduler
is idle.

Per-cell service latency (submit to completion) feeds a
:class:`~repro.obs.histogram.Log2Histogram` — the same fixed-bucket
machinery the simulator's observability uses — reported by
``GET /v1/stats`` as p50/p90/p99 milliseconds.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.harness.executor import (ProcessCompute, ResultStore, RunSpec,
                                    Wire, serialize_result, sorted_json,
                                    spec_label)
from repro.obs.histogram import Log2Histogram
from repro.sim.results import SimulationResult

#: Cell lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"

#: Completed jobs retained for polling before the oldest are dropped.
DEFAULT_MAX_JOBS = 512

#: Stands in for a result in :meth:`Job.snapshot_json`'s first
#: encoding, which then splices the result's own bytes over it.  No
#: other snapshot value is a string that starts with a NUL.
_RESULT_SLOT = "\0result"

#: The slot as a value in that encoding.  Inside a JSON string every
#: quote is escaped, so the quote after ``": "`` opens a string, and
#: only a value that is exactly the slot matches.
_RESULT_SLOT_JSON = b": " + sorted_json(_RESULT_SLOT).encode()


class Cell:
    """One (spec, slot) of a job and its lifecycle state."""

    __slots__ = ("index", "spec", "status", "source", "result", "error",
                 "wall_ms", "_t0")

    def __init__(self, index: int, spec: RunSpec) -> None:
        self.index = index
        self.spec = spec
        self.status = QUEUED
        self.source: Optional[str] = None
        self.result: Optional[Wire] = None  # shared: read only
        self.error: Optional[str] = None
        self.wall_ms: Optional[float] = None
        self._t0 = time.monotonic()

    def snapshot(self, include_results: bool = True) -> Dict:
        out: Dict[str, object] = {
            "index": self.index,
            "spec": spec_label(self.spec),
            "key": self.spec.cache_key(),
            "status": self.status,
            "source": self.source,
        }
        if self.wall_ms is not None:
            out["wall_ms"] = round(self.wall_ms, 3)
        if self.error is not None:
            out["error"] = self.error
        if include_results and self.result is not None:
            out["result"] = self.result
        return out


class Job:
    """A submitted batch: cells plus completion signalling."""

    def __init__(self, job_id: str, cells: List[Cell]) -> None:
        self.id = job_id
        self.created = time.time()
        self.cells = cells
        self._cond = threading.Condition()
        self._settled: List[Cell] = []

    @property
    def done(self) -> bool:
        with self._cond:
            return len(self._settled) == len(self.cells)

    def _cell_finished(self, cell: Cell) -> None:
        with self._cond:
            self._settled.append(cell)
            self._cond.notify_all()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every cell settled (or ``timeout``); True if done."""
        for _cell in self.iter_completions(timeout):
            pass
        return self.done

    def iter_completions(self, timeout: Optional[float] = None
                         ) -> Iterator[Cell]:
        """Yield cells in the order they settle.

        Powers the NDJSON progress stream: each yielded cell is already
        finished.  Stops when the job is done or ``timeout`` elapses.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        seen = 0
        while seen < len(self.cells):
            with self._cond:
                while len(self._settled) == seen:
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        return
                    self._cond.wait(remaining)
                fresh = self._settled[seen:]
            seen += len(fresh)
            yield from fresh

    def snapshot(self, include_results: bool = True) -> Dict:
        cells = [c.snapshot(include_results) for c in self.cells]
        statuses = [c["status"] for c in cells]
        done, error = statuses.count(DONE), statuses.count(ERROR)
        return {
            "job": self.id,
            "created": self.created,
            "done": done + error == len(cells),
            "cells": cells,
            "counts": {"total": len(cells), "done": done, "error": error,
                       "pending": len(cells) - done - error},
        }

    def snapshot_json(self, include_results: bool = True) -> bytes:
        """``json.dumps(self.snapshot(include_results), sort_keys=True)``
        encoded, with each result's stored encoding spliced in rather
        than encoded again."""
        snap = self.snapshot(include_results)
        results: List[bytes] = []
        for cell in snap["cells"]:
            result = cell.get("result")
            if result is not None:
                cell["result"] = _RESULT_SLOT
                results.append(result.encoded)
        text = sorted_json(snap).encode()
        parts: List[bytes] = []
        start = 0
        for encoded in results:  # the slots come out in cell order
            at = text.index(_RESULT_SLOT_JSON, start)
            parts += (text[start:at], b": ", encoded)
            start = at + len(_RESULT_SLOT_JSON)
        parts.append(text[start:])
        return b"".join(parts)


class _Pending:
    """One key's flight: the cells waiting on its computation."""

    __slots__ = ("spec", "cells")

    def __init__(self, spec: RunSpec, cell: Tuple[Job, Cell]) -> None:
        self.spec = spec
        self.cells: List[Tuple[Job, Cell]] = [cell]


class Scheduler:
    """Schedules batch cells: hits inline, one flight per missing key.

    ``store`` is the result store it reads and fills (a default
    :class:`ResultStore` when omitted).  Without an injected
    ``compute``, misses are simulated by a :class:`ProcessCompute` of
    ``workers`` processes.  An injected ``compute`` runs in the flight
    thread itself.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 workers: int = 4,
                 compute: Optional[Callable[[RunSpec], SimulationResult]]
                 = None,
                 max_jobs: int = DEFAULT_MAX_JOBS) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.store = store if store is not None else ResultStore()
        self.compute = compute if compute is not None \
            else ProcessCompute(workers)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")
        self._lock = threading.Lock()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._pending: Dict[str, _Pending] = {}
        self._seq = 0
        self._max_jobs = max_jobs
        self._queued = 0
        self._running = 0
        self._cells_submitted = 0
        self._cells_completed = 0
        self._cell_errors = 0
        self._hits = 0
        self._computed = 0
        self._joined = 0
        self._flight_errors = 0
        self._latency_us = Log2Histogram()
        self._shutdown = False

    # --- submission ---------------------------------------------------

    def submit(self, specs: Sequence[RunSpec]) -> Job:
        """Plan a job: serve hits inline, queue one flight per new key."""
        with self._lock:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            self._seq += 1
            job_id = f"j{self._seq:08d}"
        cells = [Cell(i, spec) for i, spec in enumerate(specs)]
        job = Job(job_id, cells)
        with self._lock:
            self._jobs[job_id] = job
            while len(self._jobs) > self._max_jobs:
                oldest_id, oldest = next(iter(self._jobs.items()))
                if not oldest.done:
                    break  # never drop a job that is still computing
                self._jobs.pop(oldest_id)
            self._cells_submitted += len(cells)
        to_launch: List[_Pending] = []
        for cell in cells:
            wire = self.store.load(cell.spec, wire=True)
            if wire is not None:
                with self._lock:
                    self._hits += 1
                self._finish_cell(job, cell, DONE, "cache", wire)
                continue
            key = cell.spec.cache_key()
            with self._lock:
                pending = self._pending.get(key)
                if pending is not None:
                    pending.cells.append((job, cell))
                    self._joined += 1
                    continue
                pending = _Pending(cell.spec, (job, cell))
                self._pending[key] = pending
                self._queued += 1
            to_launch.append(pending)
        for pending in to_launch:
            self._pool.submit(self._run_flight, pending)
        return job

    # --- worker body --------------------------------------------------

    def _run_flight(self, pending: _Pending) -> None:
        spec = pending.spec
        with self._lock:
            self._queued -= 1
            self._running += 1
            for _job, cell in pending.cells:
                cell.status = RUNNING
        source, wire, error = "cache", None, None
        try:
            # A result stored after submit's miss (e.g. by an earlier
            # flight for this key) is a hit, not a recompute.
            wire = self.store.load(spec, wire=True)
            if wire is None:
                result = self.compute(spec)
                wire = Wire(serialize_result(result))
                self.store.store(spec, result, wire)
                source = "computed"
        except BaseException as exc:
            # Any raise is a per-cell error: the pool's future would
            # swallow it and strand the cells parked on this key.
            error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            self._running -= 1
            del self._pending[spec.cache_key()]
            if error is not None:
                self._flight_errors += 1
            elif source == "computed":
                self._computed += 1
            else:
                self._hits += 1
        for i, (job, cell) in enumerate(pending.cells):
            if error is not None:
                self._finish_cell(job, cell, ERROR, None, None, error=error)
            else:
                self._finish_cell(job, cell, DONE,
                                  source if i == 0 else "joined", wire)

    def _finish_cell(self, job: Job, cell: Cell, status: str,
                     source: Optional[str], result: Optional[Wire],
                     error: Optional[str] = None) -> None:
        cell.wall_ms = (time.monotonic() - cell._t0) * 1e3
        cell.source = source
        cell.result = result
        cell.error = error
        cell.status = status
        with self._lock:
            self._cells_completed += 1
            if status == ERROR:
                self._cell_errors += 1
            self._latency_us.record(max(0, int(cell.wall_ms * 1e3)))
        job._cell_finished(cell)

    # --- introspection ------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def stats(self) -> Dict:
        with self._lock:
            jobs_total = self._seq
            jobs_active = sum(1 for j in self._jobs.values() if not j.done)
            cells = {
                "submitted": self._cells_submitted,
                "completed": self._cells_completed,
                "errors": self._cell_errors,
                "in_flight": self._running,
                "queue_depth": self._queued,
            }
            hist = self._latency_us
            latency = {
                "count": hist.count,
                "mean_ms": round(hist.mean / 1e3, 3),
                "p50_ms": round(hist.percentile(50) / 1e3, 3),
                "p90_ms": round(hist.percentile(90) / 1e3, 3),
                "p99_ms": round(hist.percentile(99) / 1e3, 3),
                "max_ms": round(hist.max_value / 1e3, 3),
            }
            looked_up = self._hits + self._computed + self._joined
            cache = {
                "hits": self._hits,
                "computed": self._computed,
                "joined": self._joined,
                "misses": self._computed + self._joined,
                "errors": self._flight_errors,
                "hit_ratio": (self._hits / looked_up if looked_up
                              else 0.0),
            }
        return {
            "workers": self.workers,
            "jobs": {"total": jobs_total, "active": jobs_active},
            "cells": cells,
            "cache": cache,
            "latency": latency,
        }

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._shutdown = True
        self._pool.shutdown(wait=wait)
        if isinstance(self.compute, ProcessCompute):
            self.compute.shutdown(wait=wait)
