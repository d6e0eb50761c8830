"""Opt-in runtime invariant sanitizer (``repro run --sanitize``).

Runs the model checker's SWMR predicate against a *live* full-size
simulation: per coherence-relevant event the sanitizer checks
the event's postcondition on the affected block, and every
``full_check_every`` such events it sweeps the whole machine with
:func:`~repro.coherence.invariants.check_swmr`.

Gate: the sink is only subscribed when ``--sanitize`` is passed (or a
test subscribes it directly).  When it is not subscribed the event bus
stays fused/inactive, so default-mode simulation executes the exact
instruction sequence it does without this module (the golden traces and
``repro bench --check`` pin that).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.coherence.invariants import check_swmr
from repro.coherence.states import CacheState
from repro.sim.events import Event, EventKind, Sink


class SanitizerError(AssertionError):
    """An invariant failed during a sanitized run."""


class SanitizerSink(Sink):
    """Event-driven invariant checker (zero cost when not subscribed).

    Postconditions checked per event:

    * ``AMO_NEAR`` — the requestor holds the block unique in L1 (a near
      AMO both requires and preserves exclusive ownership).
    * ``AMO_FAR`` — no private cache holds the block and the directory
      entry is idle (far AMOs centralize the line at the home node).
    * ``INVALIDATION`` — the named holder really lost its copy and the
      directory no longer lists it.
    * ``DOWNGRADE`` — the named owner now holds the block shared
      (SC/SD), not unique.

    plus a full SWMR sweep every ``full_check_every`` checked events.
    ``LINE_HANDOFF`` is deliberately not checked: it is emitted at
    protocol-dependent points relative to the directory update, so a
    postcondition on it would encode emission order, not coherence.
    """

    wants_events = True

    _CHECKED = frozenset({
        EventKind.AMO_NEAR, EventKind.AMO_FAR, EventKind.INVALIDATION,
        EventKind.DOWNGRADE,
    })

    def __init__(self, full_check_every: int = 64) -> None:
        self.full_check_every = full_check_every
        self.checks = 0
        self.sweeps = 0
        self._machine: Optional[Any] = None

    def bind_machine(self, machine: Any) -> None:
        self._machine = machine

    def on_event(self, event: Event) -> None:
        if event.kind not in self._CHECKED or self._machine is None:
            return
        self.checks += 1
        block = event.block
        machine = self._machine
        if event.kind is EventKind.AMO_NEAR:
            line = machine.privates[event.core].l1.lookup(block, touch=False)
            if line is None or not line.state.is_unique:
                raise SanitizerError(
                    f"near AMO by core {event.core} on {block:#x} left the "
                    f"L1 line "
                    f"{'absent' if line is None else line.state.name}, "
                    f"not unique")
        elif event.kind is EventKind.AMO_FAR:
            for core, priv in enumerate(machine.privates):
                line, _level = priv.find(block)
                if line is not None:
                    raise SanitizerError(
                        f"far AMO on {block:#x} left a private copy at "
                        f"core {core} ({line.state.name})")
            entry = machine.directory.peek(block)
            if entry is not None and not entry.is_idle():
                raise SanitizerError(
                    f"far AMO on {block:#x} left directory holders "
                    f"{sorted(entry.holders())}")
        elif event.kind is EventKind.INVALIDATION:
            line, _level = machine.privates[event.core].find(block)
            if line is not None:
                raise SanitizerError(
                    f"invalidation of core {event.core} block {block:#x} "
                    f"left a {line.state.name} copy behind")
            entry = machine.directory.peek(block)
            if entry is not None and event.core in entry.holders():
                raise SanitizerError(
                    f"invalidation of core {event.core} block {block:#x} "
                    f"but the directory still lists it as a holder")
        elif event.kind is EventKind.DOWNGRADE:
            line, _level = machine.privates[event.core].find(block)
            if line is None or line.state not in (CacheState.SC,
                                                  CacheState.SD):
                raise SanitizerError(
                    f"downgrade of core {event.core} block {block:#x} left "
                    f"the line "
                    f"{'absent' if line is None else line.state.name}, "
                    f"not SC/SD")
        if self.checks % self.full_check_every == 0:
            self.sweeps += 1
            problems = check_swmr(machine)
            if problems:
                raise SanitizerError(
                    "SWMR sweep failed: " + "; ".join(problems))

    def finalize(self, result: Any) -> None:
        result.metadata["sanitizer"] = {
            "checks": self.checks, "sweeps": self.sweeps}
