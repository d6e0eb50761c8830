"""Golden-trace differential harness: the simulator's correctness oracle.

Perf work on a simulator is only safe when *behaviour* is pinned: a
refactor that makes the inner loop faster but shifts one snoop by one
cycle silently invalidates every figure the repo reproduces.  This
module freezes the simulator's observable behaviour as a corpus of
compact digests — one per (workload x policy) cell of a pinned grid —
committed to the repository at ``tests/golden/digests.json``:

* ``result_sha256`` — hash of the canonical serialized
  :class:`~repro.sim.results.SimulationResult` (cycles, per-core finish
  times, every stats counter, the full traffic breakdown, energy,
  metadata).  Any timing or accounting drift changes it.
* ``trace_sha256`` — hash of the exact JSONL byte stream a
  ``repro run --trace`` of the cell would write (every AMO placement,
  snoop, invalidation, message, DRAM access — in order).  This is the
  stronger oracle: two runs can agree on aggregate stats yet disagree
  on the event stream; the trace hash catches the difference.

``repro golden`` recomputes the corpus and compares (exit 1 on any
drift).  It then runs the same specs once more as one batch through the
grouped sweep path (an in-process :class:`~repro.harness.executor.Executor`
over a disabled store, where decision-equivalent policies of a workload
share one simulation) and compares every ``result_sha256`` too, so a merged
cell that is not bit-identical to its own run fails the check.
``repro golden --update`` is the only way to regenerate the
committed digests, and is meant to be run exactly when a PR
*deliberately* changes simulated behaviour — the diff of
``digests.json`` then documents the blast radius cell by cell.

The grid itself is fingerprinted (``grid_sha256``) so the corpus cannot
silently drift apart from the specs that produced it.

It also records :data:`~repro.harness.executor.CACHE_VERSION`, which
keys cached results: ``--update`` refuses to change a cell's
``result_sha256`` under the same version, or stores would keep serving
results the code no longer computes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.executor import (CACHE_VERSION, Executor,
                                    ProcessCompute, ResultStore, RunSpec,
                                    execute_spec, make_spec,
                                    serialize_result)
from repro.sim.events import TraceSink
from repro.sim.results import SimulationResult
from repro.workloads import MICRO_SWEEP_CODES, TABLE_III_CODES, TXN_CODES

#: Digest-file schema version (bump when the digest shape changes).
GOLDEN_SCHEMA = 1

#: Policies pinned into the corpus: the two static baselines the paper
#: compares against plus the headline DynAMO predictor.
GOLDEN_POLICIES: Tuple[str, ...] = ("all-near", "present-near",
                                    "dynamo-reuse-pn")

#: Simulation scale of the corpus: every Table III workload, 8 threads,
#: half footprint — big enough to exercise contention, SD states, LLC
#: evictions and the predictors, small enough to recompute in CI.
GOLDEN_THREADS = 8
GOLDEN_SCALE = 0.5
GOLDEN_SEED = 0

#: Committed digest corpus, relative to the repository root.
DEFAULT_DIGEST_PATH = os.path.join("tests", "golden", "digests.json")


def golden_codes() -> List[str]:
    """Workload codes of the corpus: Table III plus the txn family and
    the microbench sweep grids (each at its default input)."""
    return list(TABLE_III_CODES) + list(TXN_CODES) + list(MICRO_SWEEP_CODES)


class Sha256Writer(io.TextIOBase):
    """A text stream that only hashes what is written to it.

    A :class:`~repro.sim.events.TraceSink` writing here hashes exactly
    the bytes it would write to a ``--trace`` JSONL file, without
    touching disk.
    """

    def __init__(self) -> None:
        super().__init__()
        self._sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self._sha.update(text.encode())
        return len(text)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def golden_specs() -> List[RunSpec]:
    """Plan the pinned corpus grid (registration order, policy-major)."""
    return [make_spec(wl, pol, threads=GOLDEN_THREADS, scale=GOLDEN_SCALE,
                      seed=GOLDEN_SEED)
            for wl in golden_codes()
            for pol in GOLDEN_POLICIES]


def cell_key(spec: RunSpec) -> str:
    """Stable digest-corpus key for one cell."""
    return f"{spec.workload}/{spec.policy}"


def result_fingerprint(result: SimulationResult) -> str:
    """Hash of the canonical serialized result (stats oracle)."""
    payload = json.dumps(serialize_result(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def grid_fingerprint(specs: Optional[Sequence[RunSpec]] = None) -> str:
    """Hash of the planned grid itself (grid-drift detector).

    Deliberately hashes the spec *fields*, not the executor cache keys,
    so cache-version bumps do not count as grid changes.
    """
    if specs is None:
        specs = golden_specs()
    payload = json.dumps([dataclasses.asdict(s) for s in specs],
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def digest_cell(spec: RunSpec) -> Dict[str, object]:
    """Simulate one cell uncached with the trace hasher attached."""
    trace = Sha256Writer()
    sink = TraceSink(trace)
    result = execute_spec(spec, extra_sinks=(sink,))
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "amos": result.amos_committed,
        "near_amos": result.stats.near_amos,
        "far_amos": result.stats.far_amos,
        "result_sha256": result_fingerprint(result),
        "trace_events": sink.events_written,
        "trace_sha256": trace.hexdigest(),
    }


def compute_digests(specs: Optional[Sequence[RunSpec]] = None,
                    jobs: int = 1) -> Dict[str, Dict[str, object]]:
    """Digest every cell of the grid; keys are :func:`cell_key` labels."""
    if specs is None:
        specs = golden_specs()
    if jobs == 1:
        return {cell_key(spec): digest_cell(spec) for spec in specs}
    compute = ProcessCompute(jobs, digest_cell)
    try:
        return {cell_key(specs[i]): digest
                for i, digest in sorted(compute.map_completed(specs))}
    finally:
        compute.shutdown()


def grouped_problems(cells: Dict[str, Dict[str, object]]) -> List[str]:
    """Run the grid as one batch through the grouped sweep path and
    report every cell whose ``result_sha256`` differs from ``cells``."""
    specs = golden_specs()
    results = Executor(1, ResultStore(enabled=False)).run_many(specs)
    problems = []
    for spec, result in zip(specs, results):
        key = cell_key(spec)
        want = cells.get(key, {}).get("result_sha256")
        got = result_fingerprint(result)
        if got != want:
            problems.append(f"{key}: grouped result_sha256 {want!r} -> "
                            f"{got!r}")
    return problems


def load_digests(path: str = DEFAULT_DIGEST_PATH) -> Dict:
    """Read the committed corpus.

    Raises:
        FileNotFoundError: no corpus has been committed yet.
        ValueError: the file exists but has the wrong schema.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(
            f"{path}: not a schema-{GOLDEN_SCHEMA} golden digest file")
    return data


def save_digests(cells: Dict[str, Dict[str, object]],
                 path: str = DEFAULT_DIGEST_PATH) -> None:
    """Write the corpus atomically (sorted keys, stable diffs)."""
    data = {
        "schema": GOLDEN_SCHEMA,
        "cache_version": CACHE_VERSION,
        "grid": {
            "threads": GOLDEN_THREADS,
            "scale": GOLDEN_SCALE,
            "seed": GOLDEN_SEED,
            "policies": list(GOLDEN_POLICIES),
            "grid_sha256": grid_fingerprint(),
        },
        "cells": {key: cells[key] for key in sorted(cells)},
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def compare_cell(key: str, committed: Dict[str, object],
                 fresh: Dict[str, object]) -> List[str]:
    """Human-readable field-level mismatches for one cell."""
    problems = []
    for field in sorted(set(committed) | set(fresh)):
        old, new = committed.get(field), fresh.get(field)
        if old != new:
            problems.append(f"{key}: {field} {old!r} -> {new!r}")
    return problems


def stale_cells(committed: Dict,
                fresh: Dict[str, Dict[str, object]]) -> List[str]:
    """Cells whose ``result_sha256`` would change under the version the
    corpus was committed with (their cached results would go stale)."""
    if committed.get("cache_version") != CACHE_VERSION:
        return []
    old = committed.get("cells", {})
    return [key for key in sorted(set(old) & set(fresh))
            if old[key].get("result_sha256")
            != fresh[key].get("result_sha256")]


def golden_main(path: str = DEFAULT_DIGEST_PATH, update: bool = False,
                jobs: int = 1) -> Tuple[int, str]:
    """Run the golden flow; returns ``(exit_code, report_text)``.

    Check mode (default) recomputes every cell and fails on any
    difference from the committed corpus — including missing or extra
    cells and a changed grid fingerprint.  ``--update`` rewrites the
    corpus and reports what changed, unless :func:`stale_cells` names a
    cell (then it exits 1 and writes nothing); it never runs implicitly.
    Check mode also runs the grid through the grouped sweep path
    (:func:`grouped_problems`) against the committed corpus.
    """
    fresh = compute_digests(jobs=jobs)
    fingerprint = grid_fingerprint()

    try:
        committed: Optional[Dict] = load_digests(path)
    except (FileNotFoundError, ValueError, json.JSONDecodeError):
        committed = None

    if update:
        stale = stale_cells(committed, fresh) if committed else []
        if stale:
            return 1, "\n".join(
                [f"golden: refusing to update: {len(stale)} cell(s) change "
                 f"result_sha256 under unchanged CACHE_VERSION "
                 f"{CACHE_VERSION}; bump it in repro/harness/executor.py "
                 f"so cached results are recomputed:"]
                + ["  " + key for key in stale])
        lines = []
        if committed is not None:
            old_cells = committed.get("cells", {})
            changed = [key for key in sorted(set(old_cells) | set(fresh))
                       if old_cells.get(key) != fresh.get(key)]
            lines.append(f"golden: {len(changed)} of {len(fresh)} cells "
                         f"changed")
            for key in changed:
                for problem in compare_cell(
                        key, old_cells.get(key, {}), fresh.get(key, {})):
                    lines.append("  " + problem)
        else:
            lines.append(f"golden: writing initial corpus "
                         f"({len(fresh)} cells)")
        save_digests(fresh, path)
        lines.append(f"golden: corpus -> {path}")
        return 0, "\n".join(lines)

    if committed is None:
        return 1, (f"golden: no committed corpus at {path} "
                   f"(run `repro golden --update` to create it)")

    problems: List[str] = []
    if committed.get("grid", {}).get("grid_sha256") != fingerprint:
        problems.append(
            "grid changed: committed corpus was produced by a different "
            "spec grid (update the corpus deliberately with --update)")
    old_cells = committed.get("cells", {})
    for key in sorted(set(old_cells) - set(fresh)):
        problems.append(f"{key}: committed but no longer in the grid")
    for key in sorted(set(fresh) - set(old_cells)):
        problems.append(f"{key}: in the grid but not committed")
    for key in sorted(set(fresh) & set(old_cells)):
        problems.extend(compare_cell(key, old_cells[key], fresh[key]))
    problems.extend(grouped_problems(old_cells))

    if problems:
        report = [f"golden: {len(problems)} mismatch(es) against {path}:"]
        report.extend("  " + p for p in problems)
        report.append(
            "golden: simulated behaviour drifted; if the change is "
            "intentional, regenerate with `repro golden --update` and "
            "commit the digest diff")
        return 1, "\n".join(report)
    return 0, (f"golden: {len(fresh)} cells bit-identical to {path}, "
               f"also through the grouped sweep path")
