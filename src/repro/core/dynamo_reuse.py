"""DynAMO-Reuse: the reuse-pattern predictor (paper Section V-C).

The predictor learns, per cache block, whether residencies started by a
near AMO get *reused* by later accesses:

* when a near AMO allocates the block into the L1D, its reuse bit resets;
* any subsequent hit on the block sets the bit;
* when the block departs (eviction or snoop invalidation) the entry's
  saturating *reuse confidence counter* increments if the bit was set and
  decrements otherwise.

Prediction: confidence > 0 means the block historically earns its L1D
residency — execute the AMO near (All Near behaviour).  Confidence of zero
means fetching it pollutes the cache — fall back to a conservative static
policy for the decidable states.  The fallback distinguishes the two
flavours the paper evaluates:

* **DynAMO-Reuse-UN** falls back to *Unique Near* (always far for I/SC/SD)
  — aggressive; captures lock ping-pong (best on Barnes, Radiosity) but
  over-predicts far on some reuse-heavy applications.
* **DynAMO-Reuse-PN** falls back to *Present Near* (far only when Invalid)
  — conservative; the paper's best overall design, never below baseline.

First-touch decisions (AMT miss) use a *global* reuse ratio: of all blocks
that near AMOs brought into this L1D, how many were reused before leaving?
A low ratio indicates a streaming/thrashing AMO working set, so brand-new
blocks are sent far; a high ratio predicts near.  After the first decision
the entry is allocated with the confidence counter saturated at its
maximum, exactly as the paper specifies.
"""

from __future__ import annotations

from typing import Any

from repro.coherence.states import CacheState
from repro.core.amt import AmoMetadataTable
from repro.core.policy import FAR, NEAR, AmoPolicy, AuditInfo, Placement


class ReuseEntry:
    """Per-block reuse confidence (the AMT reuse bit itself is tracked on
    the resident cache line and folded in at departure time)."""

    __slots__ = ("confidence",)

    def __init__(self, confidence: int) -> None:
        self.confidence = confidence


class DynamoReusePolicy(AmoPolicy):
    """Reuse-pattern placement predictor.

    Args:
        entries, ways: AMT geometry (paper best: 128 entries, 4 ways).
        counter_max: confidence saturation value (paper best: 32, 5 bits).
        fallback_present_near: choose the -PN flavour (fallback =
            Present Near) instead of -UN (fallback = Unique Near).
        global_threshold: first-touch decisions predict near when the
            global reused:fetched ratio is at least this value.
        global_decay_period: halve the global counters every this many
            observed departures, so the first-touch heuristic tracks the
            current program phase.
    """

    def __init__(self, entries: int = 128, ways: int = 4,
                 counter_max: int = 32, fallback_present_near: bool = True,
                 global_threshold: float = 0.5,
                 global_decay_period: int = 4096) -> None:
        if counter_max <= 0:
            raise ValueError("counter_max must be positive")
        if not 0.0 <= global_threshold <= 1.0:
            raise ValueError("global_threshold must be within [0, 1]")
        self.amt: AmoMetadataTable[ReuseEntry] = AmoMetadataTable(entries, ways)
        self.counter_max = counter_max
        self.fallback_present_near = fallback_present_near
        self.name = ("dynamo-reuse-pn" if fallback_present_near
                     else "dynamo-reuse-un")
        self.global_threshold = global_threshold
        self.global_decay_period = global_decay_period
        # Global first-touch heuristic state: blocks brought in by near
        # AMOs and how many of those residencies saw reuse.
        self.global_fetched = 0
        self.global_reused = 0

    # --- prediction ---

    def _fallback(self, state: CacheState) -> Placement:
        if not self.fallback_present_near:
            return FAR  # Unique Near: far for I, SC, SD
        # Present Near: near while the block is still present.
        return NEAR if state.is_valid else FAR

    def _first_touch(self, state: CacheState) -> Placement:
        if self.global_fetched < 16:
            # Too little history; near is the best suite-wide default.
            return NEAR
        ratio = self.global_reused / self.global_fetched
        if ratio >= self.global_threshold:
            return NEAR
        return self._fallback(state)

    def audit_info(self, block: int) -> AuditInfo:
        """(hit, confidence) the next ``decide`` will observe (via the
        side-effect-free ``AmoMetadataTable.peek``; no LRU promotion)."""
        entry = self.amt.peek(block)
        if entry is None:
            return (False, None)
        return (True, entry.confidence)

    def snapshot_state(self) -> Any:
        return (self.amt.snapshot(lambda e: e.confidence),
                self.global_fetched, self.global_reused)

    def restore_state(self, state: Any) -> None:
        amt_snap, fetched, reused = state
        self.amt.restore(amt_snap, ReuseEntry)
        self.global_fetched = fetched
        self.global_reused = reused

    def decide(self, block: int, state: CacheState, now: int) -> Placement:
        entry = self.amt.lookup(block)
        if entry is None:
            placement = self._first_touch(state)
            # A near first decision starts with saturated confidence (the
            # paper's rule).  When the global heuristic already said far,
            # the entry starts at zero and must *earn* near execution by
            # demonstrating reuse — otherwise a streaming working set
            # revisited within the AMT window would need counter_max bad
            # residencies per block before the predictor adapts.
            confidence = (self.counter_max
                          if placement is NEAR else 0)
            self.amt.allocate(block, ReuseEntry(confidence))
            return placement
        if entry.confidence > 0:
            return NEAR
        return self._fallback(state)

    # --- learning ---

    def on_block_departure(self, block: int, fetched_by_amo: bool,
                           reused: bool, now: int) -> None:
        if not fetched_by_amo:
            return
        self.global_fetched += 1
        if reused:
            self.global_reused += 1
        if self.global_fetched >= self.global_decay_period:
            self.global_fetched >>= 1
            self.global_reused >>= 1
        entry = self.amt.peek(block)
        if entry is None:
            return
        if reused:
            if entry.confidence < self.counter_max:
                entry.confidence += 1
        elif entry.confidence > 0:
            entry.confidence -= 1


def dynamo_reuse_un(entries: int = 128, ways: int = 4,
                    counter_max: int = 32) -> DynamoReusePolicy:
    """DynAMO-Reuse with the aggressive Unique Near fallback."""
    return DynamoReusePolicy(entries, ways, counter_max,
                             fallback_present_near=False)


def dynamo_reuse_pn(entries: int = 128, ways: int = 4,
                    counter_max: int = 32) -> DynamoReusePolicy:
    """DynAMO-Reuse with the conservative Present Near fallback
    (the paper's best overall design)."""
    return DynamoReusePolicy(entries, ways, counter_max,
                             fallback_present_near=True)
