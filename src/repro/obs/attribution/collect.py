"""Stamp-event collectors: per-op blame and AMT decision audit.

Both sinks set ``wants_stamps`` — subscribing either one flips the
machine onto its instrumented (timing-identical) execution path, so the
OP_RETIRE / SYNC / audit-annotated AMO events they consume exist at all.
Both write their findings into ``result.metadata`` at finalize time, so
downstream code (``repro why``, tests) works from a plain
:class:`~repro.sim.results.SimulationResult`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.attribution.categories import merge_into
from repro.obs.attribution.critical import extract_critical_path
from repro.sim.events import Event, EventKind, Sink

# Module aliases: both sinks run on every event, and ``EventKind.X``
# costs an enum-descriptor lookup each time.
_OP_RETIRE = EventKind.OP_RETIRE
_SYNC = EventKind.SYNC
_LINE_HANDOFF = EventKind.LINE_HANDOFF
_INVALIDATION = EventKind.INVALIDATION
_AMO_NEAR = EventKind.AMO_NEAR
_AMO_FAR = EventKind.AMO_FAR

#: metadata payload schema versions (bumped on shape changes).
BLAME_SCHEMA = 1
AUDIT_SCHEMA = 1


#: Hottest cache lines a blame payload keeps by default.
TOP_BLOCKS = 16


class BlameSink(Sink):
    """Aggregates OP_RETIRE breakdowns, SYNC markers and line handoffs.

    Finalizes ``result.metadata["blame"]``: global gate/hidden category
    totals, the per-block blame table (with each block's handoff and
    invalidation counts), the line-handoff census and the cross-core
    critical path (see
    :func:`~repro.obs.attribution.critical.extract_critical_path`).

    *Gate* cycles are what the issuing core actually waited (they
    partition core time together with compute); *hidden* cycles are
    store-class drain/execution chains the store buffer absorbed —
    real home-node and NoC work that never gated the core.
    """

    wants_stamps = True

    def __init__(self, top_blocks: int = TOP_BLOCKS) -> None:
        self.top_blocks = top_blocks
        self.gate_totals: Dict[str, int] = {}
        self.hidden_totals: Dict[str, int] = {}
        self.per_block: Dict[int, Dict[str, int]] = {}
        self.ops = 0
        #: per-core retired-op records ``(start, gate_lat, gate_bd)``,
        #: appended in execution order (starts are monotonic per core).
        self.core_ops: Dict[int, List[Tuple[int, int, Dict[str, int]]]] = {}
        #: per-core sync markers ``(cycle, what, addr)``.
        self.core_sync: Dict[int, List[Tuple[int, str, int]]] = {}
        self.handoffs: Dict[int, int] = {}
        self.handoff_cores: Dict[int, set] = {}
        self.invalidations: Dict[int, int] = {}

    def on_event(self, event: Event) -> None:
        kind = event.kind
        if kind is _OP_RETIRE:
            info = event.info or {}
            bd: Dict[str, int] = info["bd"]  # type: ignore[assignment]
            merge_into(self.gate_totals, bd)
            self.ops += 1
            block_bd = self.per_block.setdefault(event.block, {})
            merge_into(block_bd, bd)
            for key in ("exec_bd", "drain_bd"):
                hidden = info.get(key)
                if hidden:
                    merge_into(self.hidden_totals, hidden)
                    merge_into(block_bd, hidden)
            self.core_ops.setdefault(event.core, []).append(
                (event.cycle, info["lat"], bd))  # type: ignore[arg-type]
        elif kind is _SYNC:
            info = event.info or {}
            self.core_sync.setdefault(event.core, []).append(
                (event.cycle, info["what"], info["addr"]))  # type: ignore
        elif kind is _LINE_HANDOFF:
            block = event.block
            self.handoffs[block] = self.handoffs.get(block, 0) + 1
            cores = self.handoff_cores.setdefault(block, set())
            info = event.info or {}
            for key in ("from", "to"):
                who = info.get(key, -1)
                if isinstance(who, int) and who >= 0:
                    cores.add(who)
        elif kind is _INVALIDATION:
            block = event.block
            self.invalidations[block] = self.invalidations.get(block, 0) + 1

    def blame_payload(self, per_core_finish: List[int]) -> Dict[str, object]:
        """Build the JSON-ready blame payload (no result needed)."""
        path = extract_critical_path(self.core_ops, self.core_sync,
                                     per_core_finish)
        blocks = sorted(self.per_block.items(),
                        key=lambda kv: -sum(kv[1].values()))
        top = [{
            "block": f"{block:#x}",
            "cycles": sum(bd.values()),
            "bd": dict(sorted(bd.items())),
            "handoffs": self.handoffs.get(block, 0),
            "handoff_cores": len(self.handoff_cores.get(block, ())),
            "invalidations": self.invalidations.get(block, 0),
        } for block, bd in blocks[:self.top_blocks]]
        return {
            "schema": BLAME_SCHEMA,
            "ops": self.ops,
            "gate_totals": dict(sorted(self.gate_totals.items())),
            "hidden_totals": dict(sorted(self.hidden_totals.items())),
            "critical_path": path,
            "top_blocks": top,
            "handoffs_total": sum(self.handoffs.values()),
        }

    def finalize(self, result) -> None:
        result.metadata["blame"] = self.blame_payload(
            list(result.per_core_finish))


def _amt_group(amt: Optional[Tuple[bool, Optional[int]]]) -> str:
    """Audit group for one decided AMO's pre-decide AMT snapshot."""
    if amt is None:
        return "static"
    hit, confidence = amt
    if not hit:
        return "amt-miss"
    return "amt-hit" if confidence else "amt-hit-zero"


class AuditSink(Sink):
    """Records every ``decide()`` outcome and scores it after the fact.

    Each decided AMO event (near or far) carries the policy's
    side-effect-free pre-decide AMT snapshot (``info["amt"]``) and its
    realized latency.  At finalize time the sink computes, per block,
    the mean realized latency of each placement, and scores every
    decision against the *opposite* placement's mean on the same block
    (global mean as fallback): positive ``est_saved`` cycles mean the
    chosen placement beat the counterfactual.

    The counterfactual is observational, not a re-simulation — blocks
    only ever executed one way under a static policy score as "no
    alternative observed" and contribute zero.
    """

    wants_stamps = True

    def __init__(self) -> None:
        #: decision records: (block, near?, group, realized latency).
        self.decisions: List[Tuple[int, bool, str, int]] = []
        self.unique_fast = 0

    def on_event(self, event: Event) -> None:
        kind = event.kind
        if kind is not _AMO_NEAR and kind is not _AMO_FAR:
            return
        info = event.info or {}
        if not info.get("decided"):
            self.unique_fast += 1
            return
        amt = info.get("amt")
        if isinstance(amt, list):  # trace round-trips turn tuples to lists
            amt = tuple(amt)
        self.decisions.append((
            event.block, kind is _AMO_NEAR,
            _amt_group(amt), info["latency"]))  # type: ignore[arg-type]

    def audit_payload(self) -> Dict[str, object]:
        # Per-block realized latency means for each placement.
        sums: Dict[Tuple[int, bool], List[int]] = {}
        glob = {True: [0, 0], False: [0, 0]}
        for block, near, _group, lat in self.decisions:
            cell = sums.setdefault((block, near), [0, 0])
            cell[0] += lat
            cell[1] += 1
            glob[near][0] += lat
            glob[near][1] += 1

        def mean(block: int, near: bool) -> Optional[float]:
            cell = sums.get((block, near))
            if cell:
                return cell[0] / cell[1]
            total, count = glob[near]
            return total / count if count else None

        groups: Dict[str, Dict[str, float]] = {}
        scored = 0
        for block, near, group, lat in self.decisions:
            key = f"{'near' if near else 'far'}/{group}"
            row = groups.setdefault(key, {
                "count": 0, "cycles": 0, "est_saved": 0.0, "scored": 0})
            row["count"] += 1
            row["cycles"] += lat
            counter = mean(block, not near)
            if counter is not None:
                row["est_saved"] += counter - lat
                row["scored"] += 1
                scored += 1
        for row in groups.values():
            row["est_saved"] = round(row["est_saved"], 1)
        saved = sum(r["est_saved"] for r in groups.values()
                    if r["est_saved"] > 0)
        lost = -sum(r["est_saved"] for r in groups.values()
                    if r["est_saved"] < 0)
        return {
            "schema": AUDIT_SCHEMA,
            "decided": len(self.decisions),
            "unique_fast": self.unique_fast,
            "scored": scored,
            "groups": {k: groups[k] for k in sorted(groups)},
            "cycles_saved": round(saved, 1),
            "cycles_lost": round(lost, 1),
            "net_est_saved": round(saved - lost, 1),
        }

    def finalize(self, result) -> None:
        result.metadata["amt_audit"] = self.audit_payload()
