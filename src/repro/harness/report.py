"""Reporting utilities: geometric means, APKI sets, ASCII tables/series.

The paper reports per-workload bars plus geometric means over three
workload sets (all = LMH, Medium+High = MH, High = H, defined by APKI).
These helpers compute those aggregates from simulation results and render
the rows/series each benchmark prints.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence

from repro.sim.results import SimulationResult
from repro.workloads.base import classify_apki


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; raises on empty input or non-positive values."""
    vals = list(values)
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def apki_classes(baseline: Mapping[str, SimulationResult]) -> Dict[str, str]:
    """Classify workloads into L/M/H by their *measured* baseline APKI."""
    return {wl: classify_apki(res.apki) for wl, res in baseline.items()}


def speedups_vs_baseline(grid: Mapping[str, Mapping[str, SimulationResult]],
                         baseline: str = "all-near"
                         ) -> Dict[str, Dict[str, float]]:
    """Per-workload speed-ups of each policy over ``baseline``.

    Raises:
        ValueError: when a workload's row has no ``baseline`` entry —
            the grid was swept without the baseline policy.
    """
    out: Dict[str, Dict[str, float]] = {}
    for wl, by_policy in grid.items():
        base = by_policy.get(baseline)
        if base is None:
            raise ValueError(
                f"workload {wl!r} has no {baseline!r} result to normalize "
                f"against (policies present: {sorted(by_policy)})")
        out[wl] = {pol: res.speedup_over(base) if pol != baseline else 1.0
                   for pol, res in by_policy.items()}
    return out


def best_static_speedups(static_speedups: Mapping[str, Mapping[str, float]]
                         ) -> Dict[str, float]:
    """Per-workload best static speed-up (the paper's Best Static bar)."""
    return {wl: max(by_policy.values())
            for wl, by_policy in static_speedups.items()}


def set_members(classes: Mapping[str, str], which: str) -> List[str]:
    """Workloads in an aggregate set: ``"LMH"``, ``"MH"``, or ``"H"``."""
    wanted = set(which)
    return [wl for wl, cls in classes.items() if cls in wanted]


def set_geomeans(speedups: Mapping[str, float],
                 classes: Mapping[str, str]) -> Dict[str, float]:
    """The paper's three aggregate bars: geomean over LMH, MH and H."""
    out = {}
    for which in ("LMH", "MH", "H"):
        members = [wl for wl in speedups if classes.get(wl, "?") in set(which)]
        out[which] = geomean(speedups[wl] for wl in members) if members else float("nan")
    return out


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render an ASCII table (the harness's figure/table output format)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 100 else f"{cell:.1f}"
    return str(cell)


def format_series(name: str, xs: Sequence, ys: Sequence[float]) -> str:
    """Render one figure series as ``name: x=y`` pairs."""
    pairs = " ".join(f"{x}={y:.3f}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"
