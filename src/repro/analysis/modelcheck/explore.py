"""Explicit-state exploration: every schedule of a scope's scripts.

One *transition* is one ``Machine.execute`` call — op-granularity
atomicity.  That matches the engine's semantics (AMOs apply their
read-modify-write at issue; plain stores/reads bind their values at
issue too), so invariants checked at transition boundaries hold at every
point the real engine can observe.  ``now`` is the schedule step index:
architecturally inert (nothing in the machine branches on time below
the DynAMO-Metric decay period, which :data:`MAX_EXPLORE_NOW` guards).

Reduction, two layers:

* **Canonical hashing** — the fork snapshot doubles as the canonical
  state (architectural fields only, normalized order); a revisited
  (state, pcs) pair is not re-expanded.
* **Sleep sets** — after exploring core *a* from a node, sibling
  subtrees put *a* to sleep for as long as only ops *independent* of
  *a*'s pending op execute (Godefroid's algorithm, with the standard
  stored-sleep-set rule making state caching sound: a cached state is
  re-explored when revisited with a sleep set that is not a superset of
  the one it was explored with).

Independence is structural and conservative: two pending ops commute
when they are issued by different cores on different blocks that share
no home slice, no L1 set and no L2 set (shared LRU order is shared
state).  Sleep sets prune *transitions*, never *states*: every reachable
state is still visited, so state invariants lose nothing (DESIGN §11).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.modelcheck import scope as scope_mod
from repro.analysis.modelcheck.invariants import (Violation,
                                                  capture_line_flags,
                                                  apply_shadow,
                                                  check_conformance,
                                                  check_values, policy_view)
from repro.analysis.modelcheck.scope import (DEFAULT_SCOPES,
                                             MAX_EXPLORE_NOW, Scope,
                                             ScriptOp, naive_interleavings)
from repro.coherence.invariants import check_swmr
from repro.core import spec as core_spec
from repro.frontend.isa import MemOp, OpType
from repro.sim.events import CollectorSink, EventBus
from repro.sim.machine import DeferredRead, Machine

#: Default per-cell transition budget; the default grid needs far less.
DEFAULT_MAX_TRANSITIONS = 250_000

#: Stop recording violations for a cell beyond this many (the first
#: counterexample is the interesting one; the rest are usually echoes).
MAX_VIOLATIONS_PER_CELL = 5


@dataclasses.dataclass(frozen=True)
class ViolationRecord:
    """A violation plus the schedule that reaches it (replayable)."""

    violation: Violation
    schedule: Tuple[int, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {"violation": self.violation.as_dict(),
                "schedule": list(self.schedule)}

    def trace_dict(self, scope: Scope, policy: str) -> Dict[str, Any]:
        """Self-contained counterexample trace (``repro check --replay``)."""
        return {
            "version": 1,
            "kind": "modelcheck-trace",
            "policy": policy,
            "scope": scope.as_dict(),
            "schedule": list(self.schedule),
            "violation": self.violation.as_dict(),
        }


@dataclasses.dataclass
class CellResult:
    """Exploration outcome for one (scope, policy) cell."""

    scope: str
    policy: str
    states: int = 0
    transitions: int = 0
    schedules: int = 0
    naive: int = 0
    sleep_skipped: int = 0
    visited_hits: int = 0
    complete: bool = True
    #: False when the scope spins on locks: retries make the schedule
    #: space exceed the multinomial, so prune ratios skip this cell.
    bounded: bool = True
    violations: List[ViolationRecord] = dataclasses.field(
        default_factory=list)
    final_memories: Set[Tuple[Tuple[int, int], ...]] = dataclasses.field(
        default_factory=set)
    #: the scope object itself (for rebuilding replay traces); not part
    #: of the serialized form — as_dict embeds it per violation instead.
    scope_ref: Optional[Scope] = None

    @property
    def pruned(self) -> int:
        return self.sleep_skipped + self.visited_hits

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scope": self.scope, "policy": self.policy,
            "states": self.states, "transitions": self.transitions,
            "schedules": self.schedules, "naive": self.naive,
            "sleep_skipped": self.sleep_skipped,
            "visited_hits": self.visited_hits,
            "complete": self.complete,
            "bounded": self.bounded,
            "final_memories": len(self.final_memories),
            "violations": [
                (dict(v.as_dict(),
                      trace=v.trace_dict(self.scope_ref, self.policy))
                 if self.scope_ref is not None else v.as_dict())
                for v in self.violations],
        }


@dataclasses.dataclass
class CheckReport:
    """Grid-level results: every cell plus spec self-check findings."""

    cells: List[CellResult]
    spec_problems: List[str]

    @property
    def violation_count(self) -> int:
        return (len(self.spec_problems)
                + sum(len(c.violations) for c in self.cells))

    @property
    def ok(self) -> bool:
        return (self.violation_count == 0
                and all(c.complete for c in self.cells))


class _Node:
    """One frontier entry of the DFS."""

    __slots__ = ("snap", "pcs", "shadow", "path", "sleep")

    def __init__(self, snap: Any, pcs: Tuple[int, ...],
                 shadow: Dict[int, int], path: Tuple[int, ...],
                 sleep: frozenset) -> None:
        self.snap = snap
        self.pcs = pcs
        self.shadow = shadow
        self.path = path
        self.sleep = sleep


class _World:
    """A scope instantiated on a real machine, with per-step checking."""

    def __init__(self, scope: Scope, policy: str) -> None:
        self.scope = scope
        self.policy = policy
        config = scope.build_config()
        self.bus = EventBus()
        self.collector = CollectorSink()
        self.bus.subscribe(self.collector)
        self.machine = Machine(config, policy, bus=self.bus)
        self.bus.bind(self.machine)
        self.blocks = tuple(scope.lines)
        self.memops: List[List[MemOp]] = [
            [scope.memop(core, op) for op in script]
            for core, script in enumerate(scope.scripts)]
        l1 = self.machine.privates[0].l1
        l2 = self.machine.privates[0].l2
        nslices = len(self.machine.home_nodes)
        self._dep_key = {
            block: (block % nslices, block % l1.num_sets,
                    block % l2.num_sets)
            for block in self.blocks}

    def independent(self, a: ScriptOp, b: ScriptOp) -> bool:
        """Structural commutation of two different cores' pending ops."""
        block_a = self.scope.lines[a.line]
        block_b = self.scope.lines[b.line]
        if block_a == block_b:
            return False
        slice_a, l1_a, l2_a = self._dep_key[block_a]
        slice_b, l1_b, l2_b = self._dep_key[block_b]
        return slice_a != slice_b and l1_a != l1_b and l2_a != l2_b

    def script_op(self, core: int, pc: int) -> ScriptOp:
        return self.scope.scripts[core][pc]

    def lock_blocked(self, core: int, pc: int,
                     shadow: Dict[int, int]) -> bool:
        op = self.script_op(core, pc)
        return (op.kind == "lock"
                and shadow.get(self.scope.addr(op), 0) != 0)

    def step(self, core: int, pc: int, shadow: Dict[int, int],
             step_index: int) -> Tuple[List[Tuple[str, str]], bool]:
        """Execute one op on the machine's *current* state.

        Mutates ``shadow`` in place; returns ``(problems, advanced)``
        where problems are ``(invariant-slug, message)`` pairs and
        ``advanced`` is False only for a failed lock acquire.
        """
        assert step_index < MAX_EXPLORE_NOW, (
            "schedule grew past the explorable window (metric decay "
            "would fire and break step-for-cycle equivalence)")
        machine = self.machine
        scope = self.scope
        sop = self.script_op(core, pc)
        memop = self.memops[core][pc]
        blocks = self.blocks
        addr = scope.addr(sop)

        is_amo = memop.is_amo
        pre_state = (machine.privates[core].l1_state(memop.block)
                     if is_amo else None)
        pre_views = [policy_view(p, blocks) for p in machine.policies]
        pre_flags = capture_line_flags(machine, blocks)
        self.collector.events.clear()

        _done, result = machine.execute(core, memop, step_index)
        events = list(self.collector.events)

        problems: List[Tuple[str, str]] = []
        shadow_old = shadow.get(addr, 0)
        if memop.type is OpType.AMO_LOAD:
            if result != shadow_old:
                problems.append((
                    "amo-atomicity",
                    f"{sop.kind} at {addr:#x} returned {result}; the "
                    f"schedule's serialization order has old value "
                    f"{shadow_old}"))
        elif memop.type is OpType.READ:
            assert isinstance(result, DeferredRead)
            seen = machine.values.get(result.addr, 0)
            if seen != shadow_old:
                problems.append((
                    "data-value",
                    f"load at {addr:#x} observes {seen}; last write in "
                    f"serialization order was {shadow_old}"))

        if sop.kind == "lock":
            # The mutex convention (see Scope.memop): acquire writes the
            # holder id core+1, release writes 0 — not the op's ``value``.
            apply_shadow(shadow, "lock", addr, core + 1, 0)
            advanced = shadow_old == 0
        elif sop.kind == "unlock":
            apply_shadow(shadow, "unlock", addr, 0, 0)
            advanced = True
        else:
            apply_shadow(shadow, sop.kind, addr, sop.value, sop.expected)
            advanced = True

        for msg in check_values(machine, shadow):
            problems.append(("data-value", msg))
        for msg in check_swmr(machine):
            problems.append(("swmr", msg))
        for msg in check_conformance(machine, self.policy, blocks, core,
                                     is_amo, memop.block, pre_state,
                                     pre_views, pre_flags, events):
            problems.append(("policy-conformance", msg))
        return problems, advanced


def check_cell(scope: Scope, policy: str, *,
               max_transitions: int = DEFAULT_MAX_TRANSITIONS,
               max_violations: int = MAX_VIOLATIONS_PER_CELL) -> CellResult:
    """Exhaustively explore one (scope, policy) cell."""
    world = _World(scope, policy)
    machine = world.machine
    cores = scope.cores
    script_lens = [len(s) for s in scope.scripts]
    result = CellResult(scope=scope.name, policy=policy,
                        naive=naive_interleavings(scope), scope_ref=scope,
                        bounded=not scope.has_locks())
    sum_addrs = scope.amo_sum_addrs()
    conserve_groups = scope.conservation_sums()

    root = _Node(machine.snapshot(), tuple([0] * cores), {}, (),
                 frozenset())
    visited: Dict[Any, frozenset] = {(root.snap, root.pcs): frozenset()}
    stack: List[_Node] = [root]

    def record(violation: Violation, schedule: Tuple[int, ...]) -> None:
        if len(result.violations) < max_violations:
            result.violations.append(ViolationRecord(violation, schedule))

    while stack:
        if result.transitions >= max_transitions:
            result.complete = False
            break
        node = stack.pop()
        enabled = [c for c in range(cores) if node.pcs[c] < script_lens[c]]
        if not enabled:
            result.schedules += 1
            final_values = dict(node.snap[3])
            for addr, want in sum_addrs.items():
                got = final_values.get(addr, 0)
                if got != want:
                    record(Violation(
                        "amo-atomicity",
                        f"end state: addr {addr:#x} holds {got}, the "
                        f"adds must sum to {want}",
                        step=len(node.path)), node.path)
            for addrs, want in conserve_groups:
                got = sum(final_values.get(addr, 0) for addr in addrs)
                if got != want:
                    record(Violation(
                        "conservation",
                        f"end state: group "
                        f"{[hex(a) for a in addrs]} sums to {got}, the "
                        f"balanced adds must net to {want}",
                        step=len(node.path)), node.path)
            result.final_memories.add(node.snap[3])
            continue
        blocked = [c for c in enabled
                   if world.lock_blocked(c, node.pcs[c], node.shadow)]
        if len(blocked) == len(enabled):
            # No enabled core can ever advance: failed lock acquires
            # change no memory value, so the locks stay taken forever.
            holders = sorted({node.shadow.get(
                scope.addr(world.script_op(c, node.pcs[c])), 0) - 1
                for c in blocked})
            record(Violation(
                "deadlock",
                f"all unfinished cores {blocked} are blocked acquiring "
                f"locks held by {holders}", step=len(node.path)),
                node.path)
            continue

        done: List[int] = []
        for core in enabled:
            if core in node.sleep:
                result.sleep_skipped += 1
                continue
            if result.transitions >= max_transitions:
                result.complete = False
                break
            machine.restore(node.snap)
            shadow = dict(node.shadow)
            problems, advanced = world.step(core, node.pcs[core], shadow,
                                            len(node.path))
            result.transitions += 1
            schedule = node.path + (core,)
            if problems:
                for slug, message in problems:
                    record(Violation(slug, message, step=len(node.path),
                                     core=core,
                                     block=scope.lines[world.script_op(
                                         core, node.pcs[core]).line]),
                           schedule)
                if len(result.violations) >= max_violations:
                    result.complete = False
                    stack.clear()
                    break
                # Do not expand past a corrupted state — and do not add
                # this core to ``done`` either: sleeping a transition is
                # only sound when its subtree was actually explored.
                continue
            pcs = node.pcs
            if advanced:
                pcs = pcs[:core] + (pcs[core] + 1,) + pcs[core + 1:]
            sop = world.script_op(core, node.pcs[core])
            child_sleep = frozenset(
                other for other in (*node.sleep, *done)
                if world.independent(
                    world.script_op(other, node.pcs[other]), sop))
            child_snap = machine.snapshot()
            key = (child_snap, pcs)
            stored = visited.get(key)
            if stored is not None and stored <= child_sleep:
                result.visited_hits += 1
                done.append(core)
                continue
            new_sleep = (child_sleep if stored is None
                         else stored & child_sleep)
            visited[key] = new_sleep
            stack.append(_Node(child_snap, pcs, shadow, schedule,
                               new_sleep))
            done.append(core)

    result.states = len(visited)
    return result


def check_grid(scopes: Optional[List[Scope]] = None,
               policies: Optional[List[str]] = None, *,
               max_transitions: int = DEFAULT_MAX_TRANSITIONS,
               ) -> CheckReport:
    """Run the checker over scopes × policies (the ``repro check`` grid)."""
    from repro.core.registry import POLICIES
    if scopes is None:
        scopes = list(DEFAULT_SCOPES)
    if policies is None:
        policies = sorted(POLICIES)
    cells = [check_cell(scope, policy, max_transitions=max_transitions)
             for scope in scopes for policy in policies]
    return CheckReport(cells=cells,
                       spec_problems=core_spec.verify_static_tables())


@dataclasses.dataclass
class ReplayResult:
    """Outcome of re-executing a counterexample trace."""

    steps: int
    violations: List[ViolationRecord]
    expected: Optional[Dict[str, Any]]

    @property
    def reproduced(self) -> bool:
        """Did the replay hit the recorded violation (same invariant)?"""
        if self.expected is None:
            return bool(self.violations)
        want = self.expected.get("invariant")
        return any(rec.violation.invariant == want
                   for rec in self.violations)


def replay_trace(trace: Dict[str, Any]) -> ReplayResult:
    """Deterministically re-execute a counterexample trace.

    The trace embeds the scope, so replay needs nothing but the JSON
    file: the machine is rebuilt, the recorded schedule re-executed with
    full invariant checking at each step.
    """
    if trace.get("kind") != "modelcheck-trace":
        raise ValueError("not a modelcheck trace (kind != modelcheck-trace)")
    scope = Scope.from_dict(trace["scope"])
    world = _World(scope, str(trace["policy"]))
    schedule = [int(c) for c in trace["schedule"]]
    pcs = [0] * scope.cores
    shadow: Dict[int, int] = {}
    violations: List[ViolationRecord] = []
    for step_index, core in enumerate(schedule):
        if not 0 <= core < scope.cores:
            raise ValueError(f"schedule step {step_index}: no core {core}")
        if pcs[core] >= len(scope.scripts[core]):
            raise ValueError(
                f"schedule step {step_index}: core {core} already done")
        problems, advanced = world.step(core, pcs[core], shadow, step_index)
        prefix = tuple(schedule[:step_index + 1])
        for slug, message in problems:
            violations.append(ViolationRecord(
                Violation(slug, message, step=step_index, core=core),
                prefix))
        if advanced:
            pcs[core] += 1
    if all(pcs[c] >= len(scope.scripts[c]) for c in range(scope.cores)):
        # The schedule ran every script to completion: the end-state
        # invariants (per-address add sums, conservation groups) apply
        # just as they do at a leaf of the exploration tree.
        final_values = dict(world.machine.values)
        full = tuple(schedule)
        for addr, want in scope.amo_sum_addrs().items():
            got = final_values.get(addr, 0)
            if got != want:
                violations.append(ViolationRecord(Violation(
                    "amo-atomicity",
                    f"end state: addr {addr:#x} holds {got}, the adds "
                    f"must sum to {want}", step=len(schedule)), full))
        for addrs, want in scope.conservation_sums():
            got = sum(final_values.get(addr, 0) for addr in addrs)
            if got != want:
                violations.append(ViolationRecord(Violation(
                    "conservation",
                    f"end state: group {[hex(a) for a in addrs]} sums "
                    f"to {got}, the balanced adds must net to {want}",
                    step=len(schedule)), full))
    return ReplayResult(steps=len(schedule), violations=violations,
                        expected=trace.get("violation"))


# re-exported for the CLI and tests
__all__ = [
    "CellResult", "CheckReport", "ReplayResult", "ViolationRecord",
    "check_cell", "check_grid", "replay_trace",
    "DEFAULT_MAX_TRANSITIONS",
]

# keep a reference so the scope module's naive count stays the single
# source for reports (avoids an unused-import lint on scope_mod)
_ = scope_mod
