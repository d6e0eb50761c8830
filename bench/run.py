"""The orchestrator: runs one workload as set-up probes and passes, each
in a fresh process, checks every result and reduces the passes to the
registered metrics.  It never imports ``repro`` itself."""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from bench import workloads as W
from bench.common import (READY, RESULT, ROOT, TMP_DIR, child_env, median,
                          percentile)
from bench.metrics import END_TO_END, PER_LAYER, UNITS, end_to_end, \
    layer_metrics
from bench.oracle import Checker

#: Set-up probes per run (each pass adds one more set-up sample).
SETUP_PROBES = 3

#: Wall budget of one run, everything included: a run must end within
#: 180 s, so a pass starts only if it should end inside this.
RUN_BUDGET_S = 165.0


class RunError(RuntimeError):
    """The run could not be measured at all (no result is printed)."""


@dataclass
class Pass:
    setup_s: float
    planned: int
    result: Optional[Dict]
    exit_code: int


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    smoke: bool
    setups: List[float] = field(default_factory=list)
    passes: List[Pass] = field(default_factory=list)
    reference: Optional[Pass] = None


def _reap_group(pgid: int) -> None:
    """Kill whatever a pass process left in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    end = time.monotonic() + 5.0
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def spawn_pass(workload: str, seed: int, mode: str, smoke: bool,
               timeout: float) -> Pass:
    """Run ``bench.passrun`` once, in a temp dir that is removed on every
    exit path; set-up time is spawn to ready line."""
    os.makedirs(TMP_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_DIR)
    cmd = [sys.executable, "-m", "bench.passrun", workload, "--seed",
           str(seed), "--mode", mode, "--tmp", tmp]
    if smoke:
        cmd.append("--smoke")
    try:
        return _run_pass(cmd, workload, mode, timeout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run_pass(cmd: List[str], workload: str, mode: str,
              timeout: float) -> Pass:
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # Past its budget the whole process group is killed, which also
    # ends the read loop below.
    watchdog = threading.Timer(max(timeout, 1.0), _reap_group, (proc.pid,))
    watchdog.start()
    ready_at, planned, result = None, 0, None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith(READY):
                ready_at = time.perf_counter()
                planned = json.loads(line[len(READY):])["planned"]
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
    except BaseException:  # interrupted or bad output: stop the pass now
        _reap_group(proc.pid)
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            _reap_group(proc.pid)
            proc.wait()
        _reap_group(proc.pid)  # anything the pass left behind
    if ready_at is None:
        raise RunError(f"{workload} ({mode}) never finished set-up "
                       f"(exit code {proc.returncode})")
    return Pass(ready_at - t0, planned, result, proc.returncode)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> Run:
    """Set-up probes, then passes until ``seconds`` of timed wall."""
    end = time.perf_counter() + RUN_BUDGET_S
    run = Run(workload, seed, trace, smoke)

    def remaining() -> float:
        return end - time.perf_counter()

    for _ in range(1 if smoke else SETUP_PROBES):
        run.setups.append(spawn_pass(workload, seed, "setup", smoke,
                                     remaining()).setup_s)
    if trace:  # the untraced wall trace.overhead is measured against
        run.reference = spawn_pass(workload, seed, "measure", smoke,
                                   remaining())
    mode = "traced" if trace else "measure"
    timed = 0.0
    while True:
        p = spawn_pass(workload, seed, mode, smoke, remaining())
        run.passes.append(p)
        if not trace:
            run.setups.append(p.setup_s)
        if p.result is None or p.result.get("error"):
            break
        timed += p.result["wall_s"]
        if smoke or timed >= seconds:
            break
        if remaining() < 1.5 * (p.setup_s + p.result["wall_s"]):
            break
    return run


def _peak_rss_mb() -> float:
    """Largest resident set of this process and every waited-for
    descendant (pass processes and the serve child)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


@dataclass
class _Tally:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)


def _check_pass(p: Pass, checker: Checker, serve: bool,
                tally: _Tally) -> Optional[Dict]:
    """Count and check one pass's ops; its result if it has timings."""
    r = p.result
    if r is None:
        tally.attempted += p.planned
        tally.failed += p.planned
        tally.failures.append(f"pass process exited {p.exit_code} "
                              f"without a result")
        return None
    tally.attempted += r["attempted"]
    if r.get("error"):
        tally.failed += r["attempted"]
        tally.failures.append(r["error"].strip().splitlines()[-1])
        return None
    if serve:
        for rec in r["requests"]:
            ok = rec["error"] is None
            if not ok:
                tally.failures.append(rec["error"])
            for cell in rec["cells"]:
                ok = checker.check(cell[0], cell[1]) and ok
            tally.failed += not ok
    else:
        for key, value in r["digests"]:
            tally.failed += not checker.check(key, value)
    return r


def evaluate(run: Run) -> Dict:
    """Check every result and reduce the passes to one record."""
    serve = W.WORKLOADS[run.workload].kind == "serve"
    checker = Checker(run.workload, run.seed, run.smoke)
    tally = _Tally()
    if run.reference is not None:
        _check_pass(run.reference, checker, serve, tally)
    good = [r for r in (_check_pass(p, checker, serve, tally)
                        for p in run.passes) if r is not None]
    failures = tally.failures + checker.mismatches
    if not good:
        raise RunError(f"{run.workload}: no pass produced a result: "
                       f"{failures[:3]}")

    record: Dict = {
        "workload": run.workload, "seed": run.seed, "trace": run.trace,
        "smoke": run.smoke, "passes": len(run.passes),
        "jobs": good[0]["jobs"], "attempted": tally.attempted,
        "failed": tally.failed, "correct": tally.failed == 0,
        "checked": checker.checked, "unchecked": checker.unchecked,
        "failures": failures[:10], "pass_wall_s": [r["wall_s"] for r in good],
    }
    if run.trace:
        record["metrics"] = _traced(run, good, serve)
    else:
        latencies = [ms for r in good for ms in r["latencies_ms"]]
        record["setup_samples_s"] = run.setups
        record["metrics"] = end_to_end(
            run.setups, [r["wall_s"] for r in good], latencies,
            [r["ops"] / r["wall_s"] for r in good], _peak_rss_mb())
        record["extra"] = _extras(good, latencies, serve)
    return record


def _extras(good: List[Dict], latencies: List[float], serve: bool) -> Dict:
    """Workload-specific numbers that are not registered metrics."""
    extra: Dict[str, float] = {"latency_samples": len(latencies)}
    if serve:
        requests = [rec for r in good for rec in r["requests"]]
        sources: Dict[str, int] = {}
        for rec in requests:
            for cell in rec["cells"]:
                sources[cell[2]] = sources.get(cell[2], 0) + 1
        extra.update(sources)
        if len(latencies) >= 2:
            extra["p99_ms"] = percentile(latencies, 99)
    else:
        extra["sim_kops_per_s"] = median(
            [r["ops"] / r["wall_s"] / 1e3 for r in good])
    return extra


def _traced(run: Run, good: List[Dict], serve: bool) -> Dict[str, float]:
    totals: Dict[str, List[float]] = {}
    missing: set = set()
    stats: Dict[str, float] = {}
    for r in good:
        t = r["trace"]
        missing.update(t["missing"])
        for name, (n, incl, own) in t["totals"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += n
            acc[1] += incl
            acc[2] += own
        for k, v in r.get("stats", {}).get("cache", {}).items():
            if isinstance(v, int):  # counters; the ratio is recomputed
                stats[k] = stats.get(k, 0) + v
    ref = run.reference.result if run.reference is not None else None
    if ref is None or ref.get("error"):
        raise RunError(f"{run.workload}: untraced reference pass failed")
    overhead = median([r["wall_s"] for r in good]) / ref["wall_s"]
    requests = [rec for r in good for rec in r.get("requests", [])]
    return layer_metrics(totals, sorted(missing), serve, overhead,
                         requests, stats, good[0]["model"])


def result_line(record: Dict) -> Dict:
    """The contract's last line: correct, attempted, failed, metrics."""
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in record["metrics"].items()}}


def describe(record: Dict) -> str:
    """Human-readable summary of one record."""
    metrics = END_TO_END if not record["trace"] else PER_LAYER
    lines = [f"== {record['workload']} seed={record['seed']} "
             f"trace={int(record['trace'])} passes={record['passes']} "
             f"jobs={record['jobs']}  (simulated caches and the result "
             f"store start empty in every pass)"]
    for m in metrics:
        if m.name in record["metrics"]:
            lines.append(f"  {m.name:28s} {record['metrics'][m.name]:>14.6g}"
                         f" {m.unit}")
    lines.append(f"  ops: {record['attempted']} attempted, "
                 f"{record['failed']} failed; results checked "
                 f"{record['checked']}, unchecked {record['unchecked']}")
    for failure in record["failures"]:
        lines.append(f"  failure: {failure}")
    return "\n".join(lines)


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> Dict:
    return evaluate(measure(workload, seed, seconds, trace, smoke))
