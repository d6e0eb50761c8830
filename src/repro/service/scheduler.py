"""Job scheduling: a bounded worker pool over the single-flight cache.

``submit`` answers cache hits synchronously (no worker involved) and
fans misses out over a ``ThreadPoolExecutor`` of flight threads.  By
default each flight thread simulates its miss in a worker *process* of
the harness's :class:`~repro.harness.executor.ProcessCompute` (the same
pool that parallel sweeps use) and only waits here, so simulations
never hold the GIL that cache hits and the HTTP front end need.
Deduplication happens at two levels:

* **Scheduler-level** — while a key is being computed, later cells for
  the same key (same job or another job) are parked as *waiters* on the
  pending flight instead of occupying a pool slot.  This matters for
  liveness: if joiners blocked inside workers, a small pool could fill
  up with waiters for a leader stuck behind them in the queue.
* **Cache-level** — :class:`~repro.service.cache.SingleFlightCache`
  re-checks the store under the flight and keeps the counters, so
  direct library users get the same compute-once guarantee.

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
                                    serialize_result, spec_label)
from repro.obs.histogram import Log2Histogram
from repro.service.cache import (SOURCE_JOINED, SingleFlightCache)
from repro.sim.results import SimulationResult

#: Cell lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"

#: Completed jobs retained for polling before the oldest are dropped.
DEFAULT_MAX_JOBS = 512


class Cell:
    """One (spec, slot) of a job and its lifecycle state."""

    __slots__ = ("index", "spec", "status", "source", "result", "error",
                 "wall_ms", "_t0")

    def __init__(self, index: int, spec: RunSpec) -> None:
        self.index = index
        self.spec = spec
        self.status = QUEUED
        self.source: Optional[str] = None
        self.result: Optional[Dict] = None  # serialized, wire-ready
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
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._completed = 0

    @property
    def done(self) -> bool:
        with self._lock:
            return self._completed == len(self.cells)

    def _cell_finished(self) -> None:
        with self._cond:
            self._completed += 1
            self._cond.notify_all()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every cell settled (or ``timeout``); True if done."""
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        with self._cond:
            while self._completed < len(self.cells):
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def iter_completions(self, timeout: Optional[float] = None
                         ) -> Iterator[Cell]:
        """Yield cells as they settle (completion order, then index).

        Powers the NDJSON progress stream: each yielded cell is already
        finished.  Stops when the job is done or ``timeout`` elapses.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        seen = 0
        while True:
            with self._cond:
                while self._completed == seen and \
                        self._completed < len(self.cells):
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        return
                    self._cond.wait(remaining)
                settled = [c for c in self.cells if c.status in (DONE, ERROR)]
            for cell in settled[seen:]:
                yield cell
            seen = len(settled)
            if seen == len(self.cells):
                return

    def snapshot(self, include_results: bool = True) -> Dict:
        cells = [c.snapshot(include_results) for c in self.cells]
        return {
            "job": self.id,
            "created": self.created,
            "done": all(c["status"] in (DONE, ERROR) for c in cells),
            "cells": cells,
            "counts": {
                "total": len(cells),
                "done": sum(c["status"] == DONE for c in cells),
                "error": sum(c["status"] == ERROR for c in cells),
                "pending": sum(c["status"] in (QUEUED, RUNNING)
                               for c in cells),
            },
        }


class _Pending:
    """Scheduler-level flight: the cells waiting on one computing key."""

    __slots__ = ("spec", "cells")

    def __init__(self, spec: RunSpec, cell: Tuple[Job, Cell]) -> None:
        self.spec = spec
        self.cells: List[Tuple[Job, Cell]] = [cell]


class Scheduler:
    """Schedules batch cells: hits inline, misses on a bounded pool.

    Without an injected ``compute``, misses are simulated by a
    :class:`ProcessCompute` of ``workers`` processes.  An injected
    ``compute`` runs in the flight thread itself.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 workers: int = 4,
                 compute: Optional[Callable[[RunSpec], SimulationResult]]
                 = None,
                 max_jobs: int = DEFAULT_MAX_JOBS) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache = SingleFlightCache(store)
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
            cached = self.cache.store.load(cell.spec)
            if cached is not None:
                self.cache.stats.count("hits")
                self._finish_cell(job, cell, DONE, "cache",
                                  serialize_result(cached))
                continue
            key = cell.spec.cache_key()
            with self._lock:
                pending = self._pending.get(key)
                if pending is not None:
                    pending.cells.append((job, cell))
                    self.cache.stats.count("joined")
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
        key = pending.spec.cache_key()
        with self._lock:
            self._queued -= 1
            self._running += 1
            for flight_job, cell in pending.cells:
                cell.status = RUNNING
        try:
            try:
                result, source = self.cache.get(pending.spec, self.compute)
            finally:
                with self._lock:
                    self._running -= 1
                    self._pending.pop(key, None)
                    waiters = list(pending.cells)
        except Exception as exc:  # worker exception -> per-cell payload
            message = f"{type(exc).__name__}: {exc}"
            for waiter_job, cell in waiters:
                self._finish_cell(waiter_job, cell, ERROR, None, None,
                                  error=message)
            return
        wire = serialize_result(result)
        for i, (waiter_job, cell) in enumerate(waiters):
            cell_source = source if i == 0 else SOURCE_JOINED
            self._finish_cell(waiter_job, cell, DONE, cell_source, wire)

    def _finish_cell(self, job: Job, cell: Cell, status: str,
                     source: Optional[str], result: Optional[Dict],
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
        job._cell_finished()

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
        return {
            "workers": self.workers,
            "jobs": {"total": jobs_total, "active": jobs_active},
            "cells": cells,
            "cache": self.cache.stats.as_dict(),
            "latency": latency,
        }

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._shutdown = True
        self._pool.shutdown(wait=wait)
        if isinstance(self.compute, ProcessCompute):
            self.compute.shutdown(wait=wait)
