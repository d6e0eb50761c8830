"""Simulated-model statistics read from serialized results.

These are exact: for one seed they repeat bit for bit, so a change that
only speeds the simulator up must leave every one of them identical.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping


def model_row(payload: Mapping) -> Dict[str, int]:
    """The counters the benchmark keeps from one serialized result."""
    s = payload["stats"]
    return {
        "cycles": payload["cycles"],
        "instructions": payload["instructions"],
        "amos": payload["amos_committed"],
        "ops": s["reads"] + s["writes"] + s["amo_loads"] + s["amo_stores"],
        "l1_hits": s["l1_hits"], "l1_misses": s["l1_misses"],
        "near_amos": s["near_amos"], "far_amos": s["far_amos"],
        "llc_evictions": s["llc_evictions"], "dram_reads": s["dram_reads"],
        "flit_hops": payload["flit_hops"],
    }


def reuse_pn_geomean(rows: Mapping[str, Mapping[str, int]]) -> float:
    """Geomean speed-up of dynamo-reuse-pn over all-near across the
    workloads that have both cells (0.0 when none has)."""
    ratios = []
    for key, row in rows.items():
        code, policy = key.split("/")
        if policy != "all-near":
            continue
        pn = rows.get(f"{code}/dynamo-reuse-pn")
        if pn is not None and pn["cycles"] > 0:
            ratios.append(row["cycles"] / pn["cycles"])
    if not ratios:
        return 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def model_metrics(rows: Mapping[str, Mapping[str, int]]) -> Dict[str, float]:
    """The ``model.*`` per-layer metrics over one pass's distinct cells."""

    def total(field: str) -> int:
        return sum(row[field] for row in rows.values())

    l1 = total("l1_hits") + total("l1_misses")
    amos = total("near_amos") + total("far_amos")
    return {
        "model.cycles": total("cycles"),
        "model.l1_miss_ratio": total("l1_misses") / l1 if l1 else 0.0,
        "model.far_amo_ratio": total("far_amos") / amos if amos else 0.0,
        "model.llc_evictions": total("llc_evictions"),
        "model.dram_reads": total("dram_reads"),
        "model.flit_hops": total("flit_hops"),
        "model.reuse_pn_geomean": reuse_pn_geomean(rows),
    }
