"""Coherence transition exhaustiveness: every (state x request) arc.

The machine's CHI protocol is implemented procedurally (branchy handlers
in :mod:`repro.sim.machine` over :mod:`repro.coherence.l1` and
:mod:`repro.coherence.directory`), not as a transition table — so nothing
in the code *structurally* guarantees every (CacheState x request) pair
is handled.  This checker recovers the table-driven guarantee by
enumeration: for each of the five CHI states it constructs a machine
with a block directly installed in that state (validated against
:func:`~repro.coherence.invariants.check_swmr` before use), fires each
request kind at it, and verifies that

* the handler completes without raising,
* the directory and private caches still satisfy the coherence
  invariants afterwards,
* the requesting and home cores land in the expected post-states, and
* the architectural value semantics held (reads see the value, AMOs
  return the old value and store the new one).

Request kinds cover both sides of each transition: the holder itself
acting on its block (``LOCAL_*``) and another core's request snooping it
(``REMOTE_*``).  Far AMOs from the holder with the block Unique are
*dead arcs*: the machine forces near placement whenever the L1 state is
unique (Section II-B — the HN would otherwise snoop the requestor
itself), so the far handler can never see a Unique requestor.  Dead arcs
are reported as INFO and additionally verified to stay dead.

``machine_factory`` exists for the seeded-bug tests: handing in a
factory producing a Machine subclass with a handler stubbed out must
make the corresponding arcs fail.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.analysis.findings import Finding, Severity
from repro.coherence.invariants import check_swmr
from repro.coherence.states import CacheState
from repro.frontend.isa import MemOp, ldadd, read, write
from repro.sim.config import SystemConfig, TINY_CONFIG
from repro.sim.machine import DeferredRead, Machine

#: Core holding the block in the prepared state.
HOME = 0
#: Core issuing the request in the REMOTE_* arcs.
REMOTE = 1
#: Byte address the checked block lives at (any block-aligned address).
ADDR = 0x8000
#: Architectural value installed before each arc.
INIT = 41

MachineFactory = Callable[[SystemConfig, str], Machine]

REQUESTS: Tuple[str, ...] = (
    "LOCAL_READ", "LOCAL_WRITE", "LOCAL_AMO_NEAR", "LOCAL_AMO_FAR",
    "REMOTE_READ", "REMOTE_WRITE", "REMOTE_AMO_FAR",
)

STATES: Tuple[CacheState, ...] = (
    CacheState.I, CacheState.UC, CacheState.UD,
    CacheState.SC, CacheState.SD,
)

#: Arcs unreachable by construction: the machine forces near placement
#: whenever the requestor's L1 state is unique.
DEAD_ARCS = frozenset({
    ("LOCAL_AMO_FAR", CacheState.UC),
    ("LOCAL_AMO_FAR", CacheState.UD),
})


def _default_factory(config: SystemConfig, policy: str) -> Machine:
    return Machine(config, policy)


def _policy_for(request: str) -> str:
    # unique-near places every non-Unique AMO far, which is exactly the
    # lever that steers the *_AMO_FAR arcs down the far handler.
    return "unique-near" if request.endswith("AMO_FAR") else "all-near"


def _actor_for(request: str) -> int:
    return REMOTE if request.startswith("REMOTE") else HOME


def _op_for(request: str) -> MemOp:
    if request.endswith("READ"):
        return read(ADDR)
    if request.endswith("WRITE"):
        return write(ADDR, 7)
    return ldadd(ADDR, 3)


def _install(machine: Machine, state: CacheState) -> None:
    """Put ``ADDR``'s block into ``state`` at ``HOME`` by construction."""
    block = ADDR >> 6
    machine.poke_value(ADDR, INIT)
    if state is CacheState.I:
        return
    entry = machine.directory.entry(block)
    hn = machine.home_nodes[block % machine.config.llc_slices]
    machine.privates[HOME].insert_l1(block, state)
    if state.is_unique or state is CacheState.SD:
        # UC/UD/SD: the private copy carries data responsibility and the
        # exclusive LLC holds no copy.
        entry.owner = HOME
    else:  # SC: clean shared copy, data also lives at the LLC.
        entry.add_sharer(HOME)
        hn.llc_fill(block)


def _expected(request: str, state: CacheState) -> Tuple[CacheState, CacheState]:
    """Post-states ``(home, actor)`` the protocol must land in."""
    if request == "LOCAL_READ":
        post = CacheState.UC if state is CacheState.I else state
        return post, post
    if request in ("LOCAL_WRITE", "LOCAL_AMO_NEAR"):
        return CacheState.UD, CacheState.UD
    if request == "LOCAL_AMO_FAR":
        # Dead arcs collapse to the near handler; live arcs centralize
        # the block at the HN, leaving no private copy.
        post = CacheState.UD if (request, state) in DEAD_ARCS else CacheState.I
        return post, post
    if request == "REMOTE_READ":
        if state is CacheState.I:
            return CacheState.I, CacheState.UC
        return CacheState.SC, CacheState.SC
    if request == "REMOTE_WRITE":
        return CacheState.I, CacheState.UD
    if request == "REMOTE_AMO_FAR":
        return CacheState.I, CacheState.I
    raise ValueError(f"unknown request kind: {request}")


def _check_value(machine: Machine, request: str,
                 result: object) -> Optional[str]:
    """Verify architectural value semantics for the executed request."""
    if request.endswith("READ"):
        if not isinstance(result, DeferredRead):
            return f"READ returned {result!r}, not a deferred read"
        if machine.read_value(result.addr) != INIT:
            return (f"READ observes {machine.read_value(result.addr)}, "
                    f"expected {INIT}")
    elif request.endswith("WRITE"):
        if machine.read_value(ADDR) != 7:
            return (f"WRITE left value {machine.read_value(ADDR)}, "
                    f"expected 7")
    else:  # ldadd
        if result != INIT:
            return f"AMO returned old value {result!r}, expected {INIT}"
        if machine.read_value(ADDR) != INIT + 3:
            return (f"AMO left value {machine.read_value(ADDR)}, "
                    f"expected {INIT + 3}")
    return None


def check_coherence(
        machine_factory: Optional[MachineFactory] = None,
        config: Optional[SystemConfig] = None) -> List[Finding]:
    """Exercise all (request x state) arcs; one finding per broken arc."""
    factory = machine_factory if machine_factory is not None \
        else _default_factory
    cfg = config if config is not None else TINY_CONFIG
    findings: List[Finding] = []
    verified = 0

    for request in REQUESTS:
        for state in STATES:
            tag = f"{request}x{state.name}"
            machine = factory(cfg, _policy_for(request))
            try:
                _install(machine, state)
                broken = "; ".join(check_swmr(machine))
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                broken = f"{type(exc).__name__}: {exc}"
            if broken:
                findings.append(Finding(
                    checker="coherence", severity=Severity.ERROR, tag=tag,
                    message=f"cannot construct state {state.name} ({broken})",
                ))
                continue

            actor = _actor_for(request)
            op = _op_for(request)
            try:
                _done, result = machine.execute(actor, op, now=0)
            except Exception as exc:  # noqa: BLE001
                findings.append(Finding(
                    checker="coherence", severity=Severity.ERROR, tag=tag,
                    cores=(actor,),
                    message=(f"unhandled transition: {request} on "
                             f"{state.name} raised "
                             f"{type(exc).__name__}: {exc}"),
                ))
                continue

            problems = [f"coherence invariant broken: {msg}"
                        for msg in check_swmr(machine)]
            exp_home, exp_actor = _expected(request, state)
            got_home = machine.privates[HOME].l1_state(ADDR >> 6)
            got_actor = machine.privates[actor].l1_state(ADDR >> 6)
            if got_home is not exp_home:
                problems.append(f"home core landed in {got_home.name}, "
                                f"expected {exp_home.name}")
            if actor != HOME and got_actor is not exp_actor:
                problems.append(f"requestor landed in {got_actor.name}, "
                                f"expected {exp_actor.name}")
            value_problem = _check_value(machine, request, result)
            if value_problem is not None:
                problems.append(value_problem)
            if (request, state) in DEAD_ARCS:
                if machine.stats.near_amo_unique_hits < 1:
                    problems.append("dead arc became reachable: far "
                                    "placement was not forced near despite "
                                    "a Unique L1 state")
                elif not problems:
                    findings.append(Finding(
                        checker="coherence", severity=Severity.INFO, tag=tag,
                        message=(f"dead arc: {request} on {state.name} is "
                                 f"unreachable (machine forces near "
                                 f"placement for Unique blocks); verified "
                                 f"it collapses to the near handler"),
                    ))
                    verified += 1
                    continue
            if problems:
                findings.append(Finding(
                    checker="coherence", severity=Severity.ERROR, tag=tag,
                    cores=(actor,),
                    message=(f"{request} on {state.name}: "
                             + "; ".join(problems)),
                ))
            else:
                verified += 1

    findings.append(Finding(
        checker="coherence", severity=Severity.INFO, tag="arcs",
        message=(f"verified {verified}/{len(REQUESTS) * len(STATES)} "
                 f"(request x state) transition arcs, "
                 f"{len(DEAD_ARCS)} of them dead by construction"),
    ))
    return findings
