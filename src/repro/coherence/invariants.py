"""The coherence invariant: single writer, multiple readers (Table I).

:func:`check_swmr` is the only SWMR / directory-agreement check in the
tree.  The model checker runs it after every transition, the runtime
sanitizer sweeps a live simulation with it, the coherence-arc checker
validates every constructed and post-transition state with it, and the
property tests assert it returns ``[]``.

It is *read-only* over machine state: it returns a list of
human-readable problem strings (empty = invariant holds), never
asserts, and never touches LRU order or stats — so it can run against a
live full-size simulation without perturbing it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.coherence.states import CacheState

if TYPE_CHECKING:  # sim.machine imports coherence; avoid the cycle
    from repro.sim.machine import Machine


def check_swmr(machine: Machine) -> List[str]:
    """Single-writer-multiple-readers + directory agreement, both ways."""
    problems: List[str] = []
    directory = machine.directory
    # Cache -> directory: every resident copy is tracked correctly.
    holders: Dict[int, List[Tuple[int, CacheState]]] = {}
    for core, priv in enumerate(machine.privates):
        for cache in (priv.l1, priv.l2):
            for line in cache.lines():
                holders.setdefault(line.block, []).append((core, line.state))
    for block, copies in sorted(holders.items()):
        entry = directory.peek(block)
        unique = [c for c, st in copies if st.is_unique]
        if len(unique) > 1:
            problems.append(
                f"block {block:#x} unique at multiple cores: {unique}")
        if unique and len(copies) > 1:
            problems.append(
                f"block {block:#x} unique at core {unique[0]} but also "
                f"held by {[c for c, _ in copies if c != unique[0]]}")
        for core, state in copies:
            if entry is None:
                problems.append(
                    f"core {core} holds {block:#x} ({state.name}) with no "
                    f"directory entry")
                continue
            if state.is_unique or state is CacheState.SD:
                if entry.owner != core:
                    problems.append(
                        f"core {core} holds {block:#x} {state.name} but "
                        f"directory owner is {entry.owner}")
            elif not entry.has_sharer(core):
                problems.append(
                    f"core {core} holds {block:#x} SC but is not in "
                    f"directory sharers {entry.sharer_cores()}")
    # Directory -> cache: no phantom holders.
    for block in directory.tracked_blocks():
        entry = directory.peek(block)
        assert entry is not None
        if entry.owner is not None:
            line, _level = machine.privates[entry.owner].find(block)
            if line is None:
                problems.append(
                    f"directory owner {entry.owner} of {block:#x} holds "
                    f"no copy")
            elif line.state is CacheState.SC:
                problems.append(
                    f"directory owner {entry.owner} of {block:#x} holds "
                    f"it in SC")
        for core in entry.sharer_cores():
            line, _level = machine.privates[core].find(block)
            if line is None:
                problems.append(
                    f"directory sharer {core} of {block:#x} holds no copy")
            elif line.state.is_unique:
                problems.append(
                    f"directory sharer {core} of {block:#x} holds it "
                    f"{line.state.name}")
    return problems
