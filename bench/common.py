"""Paths, child-process environment and the small statistics helpers."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
from typing import Dict, List, Sequence

#: Checkout root: ``bench/`` sits directly below it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "bench")
#: Everything a run writes (traces, temp caches, sweep cell files).
OUT_DIR = os.path.join(BENCH_DIR, "out")
TMP_DIR = os.path.join(OUT_DIR, "tmp")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
GOLDEN_PATH = os.path.join(ROOT, "tests", "golden", "digests.json")

#: Default measured seconds per run (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 15

#: Marker prefixes of the pass-process protocol lines on stdout.
READY = "@@ready "
RESULT = "@@result "
#: Prefix of the full per-workload record ``bench run`` prints; ``bench
#: compare`` reads these lines back from captured output.
RECORD = "record: "


def have_sources() -> bool:
    """True when the program under test (``src/repro``) is present."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` (never an installed
    copy), so the benchmark always measures the tree it sits in."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    Temp files stay inside the checkout, sweep progress lines are off,
    output is unbuffered (the protocol is line based) and string hashing
    is fixed so that runs differ only by their seed.  Bytecode caching
    is on, as for a user's own runs, so set-up does not recompile the
    program on every start.
    """
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env["TMPDIR"] = TMP_DIR
    env["REPRO_PROGRESS"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for name in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_NO_CACHE",
                 "REPRO_CACHE_BYTES", "REPRO_MEMO_ENTRIES",
                 "REPRO_SANITIZE"):
        env.pop(name, None)
    return env


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, q2, q3]`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (1..99) by the exclusive method of
    ``statistics.quantiles``; a single value is every percentile."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[pct - 1])


def load_json(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def result_digest(payload: Dict) -> str:
    """``result_sha256`` of a serialized result, hashed as ``repro
    golden`` hashes it."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
