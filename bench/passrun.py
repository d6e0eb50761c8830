"""One pass of one workload, in a fresh process.

    python -m bench.passrun WORKLOAD --seed S --mode MODE --tmp DIR
                            [--smoke]

``bench run`` starts one of these per set-up probe and per pass, in a
temp dir it creates and removes.  MODE:

* ``setup``   — set up (imports, planning; for serve also boot the
  server until healthz answers), report ready, exit;
* ``measure`` — the untraced pass the end-to-end metrics come from (and
  the reference wall of ``trace.overhead``);
* ``traced``  — the same pass with the tracer installed (serve: with the
  server in this process).

Protocol on stdout: one ``@@ready {json}`` line when set-up ends (the
parent times spawn to ready), then one ``@@result {json}`` line.
Simulated caches start empty in every cell (each cell builds a new
Machine) and every pass starts from an empty result store.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback
from typing import Dict, List, Optional

from bench import workloads as W
from bench.common import OUT_DIR, READY, RESULT, result_digest, use_sources
from bench.model import model_metrics, model_row
from bench.tracer import SERVE_TARGETS, SIM_TARGETS, Tracer, spec_id

MODES = ("setup", "measure", "traced")


def _emit(prefix: str, payload: Dict) -> None:
    print(prefix + json.dumps(payload), flush=True)


def _timed_store(base):
    class TimedStore(base):
        """A ResultStore that notes when each result reaches it."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.done_at: List[float] = []

        def store(self, spec, result) -> None:
            super().store(spec, result)
            self.done_at.append(time.perf_counter())

    return TimedStore


def _trace_payload(tracer: Tracer, workload: str) -> Dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_chrome(os.path.join(OUT_DIR, f"{workload}.trace.json"))
    return {"totals": tracer.totals(), "missing": sorted(set(tracer.missing))}


def sim_pass(args: argparse.Namespace, wl: W.Workload, tmp: str) -> int:
    from repro.harness import executor as ex

    cells = W.cells(wl.name, args.smoke)
    specs = [ex.make_spec(c.code, c.policy, threads=c.threads,
                          scale=c.scale, seed=args.seed) for c in cells]
    store = executor = None
    if wl.kind == "sweep":
        store = _timed_store(ex.ResultStore)(os.path.join(tmp, "cache"))
        executor = ex.make_executor(W.SWEEP_JOBS, store)
    _emit(READY, {"planned": len(specs)})
    if args.mode == "setup":
        return 0

    tracer: Optional[Tracer] = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install(SIM_TARGETS)
    results, done_at, error = [], [], None
    t0 = time.perf_counter()
    try:
        region = (tracer.region("pass", "pass") if tracer is not None
                  else contextlib.nullcontext())
        with region:
            if executor is not None:
                results = executor.run_many(specs)
                done_at = store.done_at
            else:
                for spec in specs:
                    # Looked up on the module at call time, so the
                    # traced pass sees the wrapped execute_spec.
                    results.append(ex.execute_spec(spec))
                    done_at.append(time.perf_counter())
    except Exception:  # a failed pass is reported, never hidden
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()

    # Cells run one at a time (SWEEP_JOBS is 1), so consecutive results
    # delimit each cell: its latency is its own host time.
    starts = [t0] + done_at[:-1]
    latencies = [(t - s) * 1e3 for s, t in zip(starts, done_at)]
    payloads = [ex.serialize_result(r) for r in results]
    rows = {c.key: model_row(p) for c, p in zip(cells, payloads)}
    out = {
        "wall_s": wall, "latencies_ms": latencies,
        "ops": sum(row["ops"] for row in rows.values()),
        "attempted": len(specs), "error": error,
        "jobs": W.SWEEP_JOBS if executor is not None else 1,
        "digests": [[c.key, result_digest(p)]
                    for c, p in zip(cells, payloads)],
        "model": model_metrics(rows),
    }
    if tracer is not None:
        out["trace"] = _trace_payload(tracer, wl.name)
    if wl.kind == "sweep" and not args.smoke and not error:
        _write_cells(wl.name, args.seed, cells, rows)
    _emit(RESULT, out)
    return 0


def _write_cells(name: str, seed: int, cells, rows) -> None:
    """Keep the sweep's model counters for ``bench report``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    data = {"workload": name, "seed": seed,
            "cells": [{"code": c.code, "policy": c.policy,
                       "threads": c.threads, "scale": c.scale,
                       **rows[c.key]} for c in cells]}
    path = os.path.join(OUT_DIR, f"{name}.cells.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(data, fh)
    os.replace(path + ".tmp", path)


class _InProcessServer:
    """The traced serve path: the real server and scheduler in this
    process, with the scheduler's compute function wrapped."""

    def __init__(self, cache_dir: str, tracer: Tracer) -> None:
        from repro.harness.executor import ResultStore, execute_spec
        from repro.service.app import make_server, serve
        from repro.service.scheduler import Scheduler

        compute = tracer.span(execute_spec, "compute", spec_id)
        scheduler = Scheduler(store=ResultStore(cache_dir),
                              workers=W.SERVE_WORKERS, compute=compute)
        self.server = make_server(port=0, scheduler=scheduler)
        serve(self.server)
        self.port = self.server.port

    def close(self) -> None:
        self.server.close()


def serve_pass(args: argparse.Namespace, tmp: str) -> int:
    from bench import serve as S

    universe = W.cells("serve-zipf", args.smoke)
    keys = [c.key for c in universe]
    bodies = [{"workload": c.code, "policy": c.policy, "threads": c.threads,
               "scale": c.scale, "seed": args.seed} for c in universe]
    requests = W.SMOKE_REQUESTS if args.smoke else W.SERVE_REQUESTS
    trace = W.zipf_trace(args.seed, requests, len(universe))
    cache_dir = os.path.join(tmp, "cache")
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install(SERVE_TARGETS)
        server = _InProcessServer(cache_dir, tracer)
    else:
        server = S.ServerProcess(cache_dir, W.SERVE_WORKERS)
    try:
        S.wait_healthy(server.port)
        _emit(READY, {"planned": requests})
        if args.mode == "setup":
            return 0
        t0 = time.perf_counter()
        records = S.run_clients(
            server.port, trace, bodies, keys, W.SERVE_CLIENTS,
            region=tracer.region if tracer is not None else None)
        wall = time.perf_counter() - t0
        status, stats = S.get_json(server.port, "/v1/stats")
        if status != 200:
            stats = {}
    finally:
        server.close()
        if tracer is not None:
            tracer.uninstall()

    rows: Dict[str, Dict] = {}
    for record in records:
        for cell in record["cells"]:
            row = cell.pop()  # the parent needs only key, digest, source
            rows.setdefault(cell[0], row)
    out = {
        "wall_s": wall, "latencies_ms": [r["ms"] for r in records],
        "ops": len(records), "attempted": requests, "error": None,
        "jobs": W.SERVE_WORKERS, "requests": records,
        "stats": stats, "model": model_metrics(rows),
    }
    if tracer is not None:
        out["trace"] = _trace_payload(tracer, "serve-zipf")
    _emit(RESULT, out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.passrun")
    parser.add_argument("workload", choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--tmp", required=True,
                        help="empty directory for this pass's result store")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    wl = W.WORKLOADS[args.workload]
    use_sources()
    if wl.kind == "serve":
        return serve_pass(args, args.tmp)
    return sim_pass(args, wl, args.tmp)


if __name__ == "__main__":
    sys.exit(main())
