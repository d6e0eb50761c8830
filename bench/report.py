"""``python -m bench report``: the Fig. 8 geomean table from the last
``sweep-h`` and ``sweep-lm`` passes, beside the paper's values.

The simulated model is validated only against these published geomeans
(the paper gives no per-cell numbers); ``EXPERIMENTS.md`` discusses the
known divergences.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Tuple

from bench.common import OUT_DIR, load_json, use_sources

STATIC = ("unique-near", "present-near", "dirty-near", "shared-far")

#: Paper Fig. 8 geomean speed-ups over All Near (LMH, MH, H); None where
#: the paper gives no value.
PAPER_FIG8: Dict[str, Tuple[Optional[float], ...]] = {
    "dynamo-metric": (1.00, None, None),
    "dynamo-reuse-un": (1.06, 1.11, 1.25),
    "dynamo-reuse-pn": (1.09, 1.14, 1.31),
    "best-static": (1.10, 1.16, 1.35),
}
SETS = ("LMH", "MH", "H")


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) \
        if values else float("nan")


def fig8(cells: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Geomean speed-up over all-near per policy and APKI set."""
    use_sources()
    from repro.workloads import classify_apki

    grid: Dict[str, Dict[str, Dict]] = {}
    for c in cells:
        grid.setdefault(c["code"], {})[c["policy"]] = c
    classes, speedups = {}, {}
    for code, by_policy in grid.items():
        base = by_policy["all-near"]
        classes[code] = classify_apki(
            1000.0 * base["amos"] / base["instructions"]
            if base["instructions"] else 0.0)
        speedups[code] = {p: base["cycles"] / row["cycles"]
                          for p, row in by_policy.items()}
        speedups[code]["best-static"] = max(speedups[code][p]
                                            for p in STATIC)
    return {policy: {s: _geomean([speedups[c][policy] for c in speedups
                                  if classes[c] in s]) for s in SETS}
            for policy in PAPER_FIG8}


def main() -> int:
    parts = []
    for name in ("sweep-h", "sweep-lm"):
        path = os.path.join(OUT_DIR, f"{name}.cells.json")
        if not os.path.exists(path):
            print(f"report: {path} is missing; run `python -m bench run "
                  f"--workload {name}` first")
            return 1
        parts.append(load_json(path))
    seeds = {p["seed"] for p in parts}
    if len(seeds) != 1:
        print(f"report: sweep-h and sweep-lm ran at different seeds "
              f"{sorted(seeds)}; rerun one of them")
        return 1
    table = fig8([c for p in parts for c in p["cells"]])
    print(f"Fig. 8 geomean speed-up over All Near (t16 x1.0, seed "
          f"{seeds.pop()}; measured (paper))")
    print(f"  {'policy':18s}" + "".join(f"{s:>16s}" for s in SETS))
    for policy, row in table.items():
        cols = []
        for s, paper in zip(SETS, PAPER_FIG8[policy]):
            ref = f"{paper:.2f}" if paper is not None else "-"
            cols.append(f"{row[s]:.2f} ({ref})")
        print(f"  {policy:18s}" + "".join(f"{c:>16s}" for c in cols))
    print("The model is validated only against these published geomeans.")
    return 0
