"""Invariant predicates of the model checker beyond SWMR.

Everything here is *read-only* over machine state: the predicates return
lists of human-readable problem strings (empty = invariant holds), never
assert, and never touch LRU order or stats.  SWMR / directory agreement
lives below ``sim/`` in :func:`repro.coherence.invariants.check_swmr`.

Checked families:

* **Data values** (:func:`check_values`) — the machine's architectural
  memory equals a sequential shadow built by applying the schedule's
  ops in order (reads return the last write in serialization order;
  AMO read-modify-writes are atomic).
* **Policy conformance** (:func:`check_conformance`) — every near/far
  decision and every AMT counter update matches the machine-readable
  spec in :mod:`repro.core.spec`, predicted from pre-transition state
  and the emitted event sequence.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.coherence.states import CacheState
from repro.core import spec
from repro.core.dynamo_metric import DynamoMetricPolicy
from repro.core.dynamo_reuse import DynamoReusePolicy
from repro.core.policy import Placement
from repro.sim.events import Event, EventKind
from repro.sim.machine import Machine

#: DynAMO-Reuse first-touch warmup (paper: predict near for the first 16
#: observed departures).  Restated here from the spec side; drift would
#: surface as a conformance violation.
REUSE_WARMUP = 16


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant violation at one step of one schedule."""

    invariant: str
    message: str
    step: int = -1
    core: int = -1
    block: int = -1

    def as_dict(self) -> Dict[str, Any]:
        return {"invariant": self.invariant, "message": self.message,
                "step": self.step, "core": self.core, "block": self.block}


# --- data values ----------------------------------------------------------

def check_values(machine: Machine, shadow: Dict[int, int]) -> List[str]:
    """Architectural memory vs. the sequential shadow (0 = untouched)."""
    problems = []
    for addr in set(machine.values) | set(shadow):
        got = machine.values.get(addr, 0)
        want = shadow.get(addr, 0)
        if got != want:
            problems.append(
                f"addr {addr:#x}: machine has {got}, serialization of the "
                f"schedule gives {want}")
    return problems


def apply_shadow(shadow: Dict[int, int], kind: str, addr: int,
                 value: int, expected: int) -> int:
    """Apply one script op to the shadow; returns the old value."""
    old = shadow.get(addr, 0)
    if kind == "store":
        shadow[addr] = value
    elif kind in ("ldadd", "stadd"):
        shadow[addr] = old + value
    elif kind in ("swap", "unlock"):
        shadow[addr] = value
    elif kind in ("cas", "lock"):
        if old == expected:
            shadow[addr] = value
    # loads leave the shadow untouched
    return old


# --- policy conformance ---------------------------------------------------

def policy_view(policy: Any, blocks: Tuple[int, ...]) -> Optional[Dict[str, Any]]:
    """Side-effect-free view of one policy's predictor state.

    Returns None for stateless (static) policies; for the DynAMO
    predictors a dict with per-scope-block AMT entries plus globals,
    encoded as plain values so pre/post views compare with ``==``.
    """
    if isinstance(policy, DynamoReusePolicy):
        entries: Dict[int, Any] = {}
        for block in blocks:
            entry = policy.amt.peek(block)
            entries[block] = None if entry is None else entry.confidence
        return {"kind": "reuse", "entries": entries,
                "fetched": policy.global_fetched,
                "reused": policy.global_reused}
    if isinstance(policy, DynamoMetricPolicy):
        entries = {}
        for block in blocks:
            m_entry = policy.amt.peek(block)
            entries[block] = (None if m_entry is None else
                              (m_entry.near_count, m_entry.inval_count))
        return {"kind": "metric", "entries": entries}
    return None


def capture_line_flags(machine: Machine, blocks: Tuple[int, ...],
                       ) -> List[Dict[int, Optional[Tuple[bool, bool]]]]:
    """Per core, per block: (fetched_by_amo, reused) of the L1 line.

    Captured *before* a transition so invalidation-driven departure
    updates can be predicted (the INVALIDATION event deliberately does
    not carry these flags — its wire format is pinned by the golden
    traces).
    """
    flags: List[Dict[int, Optional[Tuple[bool, bool]]]] = []
    for priv in machine.privates:
        per_core: Dict[int, Optional[Tuple[bool, bool]]] = {}
        for block in blocks:
            line = priv.l1.lookup(block, touch=False)
            per_core[block] = (None if line is None else
                               (line.fetched_by_amo, line.reused))
        flags.append(per_core)
    return flags


def _expected_placement(policy: Any, policy_name: str, state: CacheState,
                        view: Optional[Dict[str, Any]],
                        block: int) -> Placement:
    """Spec-side prediction of a decided placement."""
    if view is None:
        return spec.expected_static_placement(policy_name, state)
    if view["kind"] == "reuse":
        confidence = view["entries"][block]
        return spec.expected_reuse_placement(
            state, hit=confidence is not None, confidence=confidence,
            fallback_present_near=policy.fallback_present_near,
            global_fetched=view["fetched"], global_reused=view["reused"],
            global_threshold=policy.global_threshold, warmup=REUSE_WARMUP)
    entry = view["entries"][block]
    return spec.expected_metric_placement(entry, policy.threshold)


def check_conformance(machine: Machine, policy_name: str,
                      blocks: Tuple[int, ...], core: int, is_amo: bool,
                      amo_block: int, pre_state: Optional[CacheState],
                      pre_views: List[Optional[Dict[str, Any]]],
                      pre_flags: List[Dict[int, Optional[Tuple[bool, bool]]]],
                      events: List[Event]) -> List[str]:
    """Verify one transition's placement decision and AMT updates.

    ``pre_state`` is the requestor's L1 state for the AMO block before
    the transition (None when the op is not an AMO); ``events`` is the
    full event list the transition emitted, in emission order.
    """
    problems: List[str] = []
    actual_near = True
    decided = False

    if is_amo:
        amo_events = [ev for ev in events
                      if ev.kind in (EventKind.AMO_NEAR, EventKind.AMO_FAR)
                      and ev.core == core]
        if len(amo_events) != 1:
            return [f"expected exactly one AMO event for core {core}, "
                    f"got {len(amo_events)}"]
        ev = amo_events[0]
        if ev.block != amo_block:
            problems.append(f"AMO event block {ev.block:#x} != op block "
                            f"{amo_block:#x}")
        actual_near = ev.kind is EventKind.AMO_NEAR
        assert ev.info is not None
        decided = bool(ev.info["decided"])
        assert pre_state is not None
        if pre_state.is_unique:
            # The controller must short-circuit unique lines to near
            # without consulting the policy.
            if not actual_near or decided:
                problems.append(
                    f"AMO on {pre_state.name} line must execute near "
                    f"undecided; got {'near' if actual_near else 'far'} "
                    f"decided={decided}")
        else:
            if not decided:
                problems.append(
                    f"AMO on {pre_state.name} line must consult the "
                    f"policy; event says decided=False")
            want = _expected_placement(machine.policies[core], policy_name,
                                       pre_state, pre_views[core], amo_block)
            got = Placement.NEAR if actual_near else Placement.FAR
            if got is not want:
                problems.append(
                    f"policy {policy_name} decided {got.value} on "
                    f"{pre_state.name} block {amo_block:#x}; Table-I/AMT "
                    f"spec says {want.value}")

    # Predict every core's post-transition AMT state from the spec
    # transition tables, then compare against the real tables.
    expected: List[Optional[Dict[str, Any]]] = []
    for view in pre_views:
        if view is None:
            expected.append(None)
        else:
            expected.append({**view, "entries": dict(view["entries"])})

    def _policy_of(c: int) -> Any:
        return machine.policies[c]

    if is_amo and decided and expected[core] is not None:
        view = expected[core]
        assert view is not None
        if view["entries"][amo_block] is None:  # AMT miss: allocation
            if view["kind"] == "reuse":
                event_name = ("allocate-near" if actual_near
                              else "allocate-far")
                view["entries"][amo_block] = spec.apply_reuse_transition(
                    None, event_name, _policy_of(core).counter_max)
            else:
                view["entries"][amo_block] = spec.apply_metric_transition(
                    None, "allocate", _policy_of(core).counter_max)

    for ev in events:
        view = expected[ev.core] if 0 <= ev.core < len(expected) else None
        if view is None:
            continue
        block = ev.block
        if block not in view["entries"]:
            continue
        policy = _policy_of(ev.core)
        if ev.kind is EventKind.INVALIDATION:
            if view["kind"] == "metric":
                view["entries"][block] = spec.apply_metric_transition(
                    view["entries"][block], "invalidation",
                    policy.counter_max)
            else:
                assert ev.info is not None
                if ev.info["was_in_l1"]:
                    flags = pre_flags[ev.core][block]
                    assert flags is not None, (
                        f"invalidation of {block:#x} at core {ev.core} "
                        f"with no pre-transition L1 line")
                    _apply_reuse_departure(view, block, policy,
                                           fetched=flags[0], reused=flags[1])
        elif ev.kind is EventKind.L1_EVICTION:
            assert ev.info is not None
            if view["kind"] == "reuse" and not ev.info["left_hierarchy"]:
                _apply_reuse_departure(view, block, policy,
                                       fetched=bool(ev.info["fetched_by_amo"]),
                                       reused=bool(ev.info["reused"]))
        elif ev.kind is EventKind.AMO_NEAR:
            if view["kind"] == "metric":
                view["entries"][block] = spec.apply_metric_transition(
                    view["entries"][block], "near-amo", policy.counter_max)

    post = [policy_view(p, blocks) for p in machine.policies]
    for c, (want_view, got_view) in enumerate(zip(expected, post)):
        if want_view != got_view:
            problems.append(
                f"core {c} AMT state diverged from the spec transition "
                f"table: expected {want_view}, got {got_view}")
    return problems


def _apply_reuse_departure(view: Dict[str, Any], block: int, policy: Any,
                           fetched: bool, reused: bool) -> None:
    """Spec-side mirror of the reuse predictor's departure update."""
    if not fetched:
        return
    view["fetched"] += 1
    if reused:
        view["reused"] += 1
    if view["fetched"] >= policy.global_decay_period:
        view["fetched"] >>= 1
        view["reused"] >>= 1
    view["entries"][block] = spec.apply_reuse_transition(
        view["entries"][block],
        "departure-reused" if reused else "departure-unused",
        policy.counter_max)
