"""AMO placement-policy interface.

A *placement policy* answers one question: should this atomic memory
operation execute **near** (in the requesting core's L1D, after acquiring
the block in Unique state) or **far** (at the home node that is the point
of coherence for the block)?

One policy instance is attached to each L1D cache controller.  The
controller:

* calls :meth:`AmoPolicy.decide` when an AMO targets a block that is *not*
  already Unique in the L1D (blocks in UC/UD always execute near — issuing
  a far AMO there forces the HN to snoop the requestor itself, the
  pathological case of Section II-B);
* feeds the policy the locally observable events DynAMO learns from
  (Fig. 5): completed near AMOs, snoop invalidations, and block departures
  (eviction or invalidation) annotated with whether the block was brought
  in by an AMO and whether it was reused while resident.

Static policies ignore the events; the DynAMO predictors build their AMO
Metadata Table from them.  All hooks receive the current cycle so
predictors can age their counters without a separate clock.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Any, Optional, Tuple

from repro.coherence.states import CacheState

#: What :meth:`AmoPolicy.audit_info` returns: None for stateless
#: policies, else ``(hit, confidence)`` where confidence is
#: policy-specific (an int for DynAMO-Reuse, a counter pair for
#: DynAMO-Metric).
AuditInfo = Optional[Tuple[bool, Any]]


class Placement(enum.Enum):
    """Where an AMO executes."""

    NEAR = "near"
    FAR = "far"


#: The members as module constants for the per-operation code (see
#: :mod:`repro.coherence.states`).
NEAR, FAR = Placement.NEAR, Placement.FAR


class AmoPolicy(ABC):
    """Decides AMO placement for one core's L1D; may learn from events."""

    #: short identifier used in reports and the CLI.
    name: str = "abstract"

    @abstractmethod
    def decide(self, block: int, state: CacheState, now: int) -> Placement:
        """Choose a placement for an AMO on ``block`` observed in ``state``.

        Only called for the decidable states (I, SC, SD); the controller
        short-circuits UC/UD to near.
        """

    # --- observability (read-only; no-ops for static policies) ---

    def audit_info(self, block: int) -> AuditInfo:
        """Side-effect-free pre-decide snapshot for attribution sinks.

        Policies with a metadata table return ``(hit, confidence)`` —
        whether the upcoming :meth:`decide` will find ``block`` in the
        table and the entry's current confidence.  Static policies
        return None.  Must not mutate any predictor state (no LRU
        promotion, no stat counting): it is only called on the stamped
        execution path and timing/behaviour must not depend on it.
        """
        return None

    # --- snapshot/restore (model checking) ---

    def snapshot_state(self) -> Any:
        """Hashable snapshot of the predictor state (None if stateless).

        The model checker forks execution by snapshot/restore; policies
        with mutable learning state (the DynAMO predictors) override
        both methods, static policies inherit the no-op pair.
        """
        return None

    def restore_state(self, state: Any) -> None:
        """Reset predictor state to a :meth:`snapshot_state` value."""
        assert state is None, f"{self.name} has no state to restore"

    # --- learning hooks (no-ops for static policies) ---

    def on_near_amo(self, block: int, now: int) -> None:
        """A near AMO completed in this L1D on ``block``."""

    def on_invalidation(self, block: int, now: int) -> None:
        """A snoop from the directory invalidated ``block`` in this L1D."""

    def on_block_departure(self, block: int, fetched_by_amo: bool,
                           reused: bool, now: int) -> None:
        """``block`` left this L1D (eviction or invalidation).

        ``fetched_by_amo`` marks blocks whose residency began with a near
        AMO fill; ``reused`` tells whether any later access hit the block
        during that residency (the AMT reuse bit).
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class PolicyStats:
    """Per-core decision counts, aggregated into simulation results."""

    __slots__ = ("near_decisions", "far_decisions")

    def __init__(self) -> None:
        self.near_decisions = 0
        self.far_decisions = 0

    def record(self, placement: Placement) -> None:
        if placement is NEAR:
            self.near_decisions += 1
        else:
            self.far_decisions += 1
