"""The benchmark's workloads: which cells each one runs, and why.

This module is imported by the orchestrator, which never imports
``repro``; the cell lists that need ``repro`` are built inside functions
that only the pass processes and ``bench reference`` call.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from bench.common import GOLDEN_PATH, load_json

#: The eight placement policies of Figs. 7 and 8 (Table I order, then
#: the three DynAMO predictors).  Spelled out so that the benchmark's
#: grid cannot drift with the registry.
POLICIES = ("all-near", "unique-near", "present-near", "dirty-near",
            "shared-far", "dynamo-metric", "dynamo-reuse-un",
            "dynamo-reuse-pn")

#: The H (AMO-heavy) class of Table III.
H_CODES = ("GME", "KCOR", "SPT", "HIST", "RSOR", "SPMV")

#: The 4x-footprint grid: the direct-atomic kernels (LLC evictions at
#: x4), two graph codes and one lock-based Splash code.
X4_CODES = ("HIST", "SPMV", "BFS", "CC", "WAT")
X4_POLICIES = ("all-near", "dynamo-reuse-pn")

#: Workloads whose inputs do not depend on ``RunSpec.seed``; their
#: results are checked against the seed-0 reference at every seed.
#: ``bench reference`` verifies this claim before writing the file.
SEED_FREE = frozenset({"OCE", "CC", "GME", "PR", "SPT", "AMOCOST",
                       "FSHARE"})

#: Jobs of the sweep executor: 1, the executor's default and what
#: ``repro figure`` runs without ``--jobs``.  On a 2-vCPU KVM guest, runs
#: with 2 pool workers spread 13.8% (IQR over median) against 8.6% at
#: one job in alternating runs, because host contention on either vCPU
#: stalls a two-worker sweep.
SWEEP_JOBS = 1

#: serve-zipf: requests per pass, cells per request, closed-loop
#: clients, Zipf exponent over the shuffled golden cells.  At 360
#: requests a pass computes 85-93% of the 81 cells whatever the seed,
#: and 16-20% of requests include a miss, so p90 falls among the misses
#: at every seed.
SERVE_REQUESTS = 360
SERVE_CELLS_PER_REQUEST = 2
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
ZIPF_ALPHA = 1.16

#: Smoke mode: tiny stand-ins (golden-grid cells, so seed 0 is checked
#: against tests/golden/digests.json) for the bench's own tests.
SMOKE_CODES = {"sweep-h": ("GME", "SPT"), "sweep-lm": ("OCE", "WAT"),
               "run-x4": ("WAT", "CC")}
SMOKE_POLICIES = ("all-near", "dynamo-reuse-pn")
SMOKE_REQUESTS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    #: "sweep" (make_executor over a fresh store), "serial" (in-process
    #: execute_spec, no store, no pool) or "serve" (HTTP service).
    kind: str
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("sweep-h", "sweep",
             "AMO-heavy half of the Fig. 7/8 sweep: Machine AMO and "
             "invalidation flows, the policy/AMT layer and home-node "
             "serialization do most of the work"),
    Workload("sweep-lm", "sweep",
             "read/think-heavy half of the Fig. 7/8 sweep: engine heap "
             "loop, program generators and the L1-hit read path; the "
             "policy layer is nearly idle"),
    Workload("run-x4", "serial",
             "large single repro-run cells at 4x footprint: LLC "
             "evictions, DRAM and departure paths; bypasses the executor "
             "pool and the result store"),
    Workload("serve-zipf", "serve",
             "repro serve under Zipf traffic from two closed-loop "
             "clients: cache reads beside misses that compute and write "
             "the store; HTTP transport dominates"),
)}


@dataclass(frozen=True)
class Cell:
    code: str
    policy: str
    threads: int
    scale: float

    @property
    def key(self) -> str:
        """Reference key of the cell within its workload."""
        return f"{self.code}/{self.policy}"


def _grid(codes, policies, threads: int, scale: float) -> List[Cell]:
    return [Cell(code, pol, threads, scale)
            for code in codes for pol in policies]


def golden_grid() -> Tuple[List[str], int, float]:
    """The golden corpus's cell keys (sorted), threads and scale."""
    golden = load_json(GOLDEN_PATH)
    grid = golden["grid"]
    return sorted(golden["cells"]), int(grid["threads"]), \
        float(grid["scale"])


def cells(name: str, smoke: bool = False) -> List[Cell]:
    """The cells one pass of workload ``name`` runs.

    ``sweep-lm`` needs ``repro.workloads`` on the import path.
    """
    if smoke:
        if name == "serve-zipf":
            return serve_universe()
        _keys, threads, scale = golden_grid()
        return _grid(SMOKE_CODES[name], SMOKE_POLICIES, threads, scale)
    if name == "sweep-h":
        return _grid(H_CODES, POLICIES, 16, 1.0)
    if name == "sweep-lm":
        from repro.workloads import TABLE_III_CODES
        lm = [c for c in TABLE_III_CODES if c not in H_CODES]
        if len(lm) != 15:
            raise ValueError(f"expected 15 L/M-class codes, got {lm}")
        return _grid(lm, POLICIES, 16, 1.0)
    if name == "run-x4":
        return _grid(X4_CODES, X4_POLICIES, 16, 4.0)
    if name == "serve-zipf":
        return serve_universe()
    raise KeyError(name)


def serve_universe() -> List[Cell]:
    """The 81 golden-coordinate cells, in the corpus's sorted key order."""
    keys, threads, scale = golden_grid()
    out = []
    for key in keys:
        code, policy = key.split("/")
        out.append(Cell(code, policy, threads, scale))
    return out


def zipf_trace(seed: int, requests: int, universe: int,
               alpha: float = ZIPF_ALPHA,
               per_request: int = SERVE_CELLS_PER_REQUEST
               ) -> List[List[int]]:
    """Seeded request trace: each request names ``per_request`` cell
    indices drawn with P(rank r) proportional to 1/r**alpha, over the
    universe in a seeded shuffle (so the seed picks the hot cells)."""
    rng = random.Random(seed)
    order = list(range(universe))
    rng.shuffle(order)
    cum = list(itertools.accumulate(
        1.0 / (rank + 1) ** alpha for rank in range(universe)))
    total = cum[-1]

    def draw() -> int:
        rank = bisect.bisect_right(cum, rng.random() * total)
        return order[min(rank, universe - 1)]

    return [[draw() for _ in range(per_request)] for _ in range(requests)]
