"""DynAMO-Metric: the counter-ratio predictor (paper Section V-B).

Per AMT entry the predictor keeps two monotonic counters: near AMOs
completed on the block and snoop invalidations received for it.  A high
near:invalidation ratio means low contention — keep executing near.  A low
ratio means the block ping-pongs — centralize its AMOs at the home node.

When the predictor says *near* it behaves like the All Near policy for the
decidable states; when it says *far* it behaves like Unique Near.  New
entries start optimistic (near = 1, invalidations = 0) because near is the
best default across the workload suite.

Both counters are periodically shifted right one bit (and shifted before
overflow) so stale history from a previous program phase decays instead of
dominating future predictions.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.coherence.states import CacheState
from repro.core.amt import AmoMetadataTable
from repro.core.policy import FAR, NEAR, AmoPolicy, AuditInfo, Placement


class MetricEntry:
    """Per-block counters of the metric predictor."""

    __slots__ = ("near_count", "inval_count")

    def __init__(self) -> None:
        self.near_count = 1
        self.inval_count = 0

    def decay(self) -> None:
        self.near_count >>= 1
        self.inval_count >>= 1


class DynamoMetricPolicy(AmoPolicy):
    """Counter-ratio placement predictor.

    Args:
        entries, ways: AMT geometry.
        threshold: predict near when ``near_count > threshold * inval_count``.
        counter_bits: counter width; a counter reaching saturation triggers
            an early decay of its entry.
        decay_period: cycles between global right-shifts of all counters.
    """

    name = "dynamo-metric"

    def __init__(self, entries: int = 128, ways: int = 4,
                 threshold: float = 1.0, counter_bits: int = 8,
                 decay_period: int = 100_000) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.amt: AmoMetadataTable[MetricEntry] = AmoMetadataTable(entries, ways)
        self.threshold = threshold
        self.counter_max = (1 << counter_bits) - 1
        self.decay_period = decay_period
        self._next_decay = decay_period

    def _maybe_decay(self, now: int) -> None:
        if now < self._next_decay:
            return
        self.amt.for_each(lambda _block, entry: entry.decay())
        # Skip ahead so an idle stretch does not trigger repeated decays.
        periods = (now - self._next_decay) // self.decay_period + 1
        self._next_decay += periods * self.decay_period

    def audit_info(self, block: int) -> AuditInfo:
        """(hit, (near_count, inval_count)) the next ``decide`` observes
        (via the side-effect-free ``AmoMetadataTable.peek``).

        Note the confidence slot carries the counter *pair* — attribution
        groups only test it for truthiness, and the model checker wants
        both counters to verify the ratio rule.
        """
        entry = self.amt.peek(block)
        if entry is None:
            return (False, None)
        return (True, (entry.near_count, entry.inval_count))

    def snapshot_state(self) -> Any:
        return (self.amt.snapshot(lambda e: (e.near_count, e.inval_count)),
                self._next_decay)

    def restore_state(self, state: Any) -> None:
        amt_snap, next_decay = state
        self.amt.restore(amt_snap, _decode_metric_entry)
        self._next_decay = next_decay

    def decide(self, block: int, state: CacheState, now: int) -> Placement:
        self._maybe_decay(now)
        entry = self.amt.lookup(block)
        if entry is None:
            self.amt.allocate(block, MetricEntry())
            return NEAR
        if entry.near_count > self.threshold * entry.inval_count:
            return NEAR
        return FAR

    def on_near_amo(self, block: int, now: int) -> None:
        entry = self.amt.peek(block)
        if entry is None:
            return
        entry.near_count += 1
        if entry.near_count >= self.counter_max:
            entry.decay()

    def on_invalidation(self, block: int, now: int) -> None:
        entry = self.amt.peek(block)
        if entry is None:
            return
        entry.inval_count += 1
        if entry.inval_count >= self.counter_max:
            entry.decay()


def _decode_metric_entry(counters: Tuple[int, int]) -> MetricEntry:
    entry = MetricEntry()
    entry.near_count, entry.inval_count = counters
    return entry
