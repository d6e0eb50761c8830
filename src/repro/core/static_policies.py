"""The five static AMO placement policies of paper Table I.

A static policy maps the current L1D coherence state of the targeted block
to a fixed placement:

=============  ==  ==  ==  ==  =
Policy         UC  UD  SC  SD  I
=============  ==  ==  ==  ==  =
All Near       N   N   N   N   N
Unique Near    N   N   F   F   F
Present Near   N   N   N   N   F
Dirty Near     N   N   F   N   F
Shared Far     N   N   F   F   N
=============  ==  ==  ==  ==  =

*All Near* and *Unique Near* exist in shipping hardware (Arm Neoverse with
CMN interconnects); *Present Near*, *Dirty Near* and *Shared Far* are the
paper's proposed additions.  The UC/UD columns are always N — the L1D
controller never even consults the policy for Unique blocks.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.coherence.states import I, SC, SD, UC, UD, CacheState
from repro.core.policy import FAR as _F
from repro.core.policy import NEAR as _N
from repro.core.policy import AmoPolicy, Placement


class StaticPolicy(AmoPolicy):
    """A placement policy defined by a fixed state -> placement table."""

    def __init__(self, name: str, table: Mapping[CacheState, Placement],
                 existing: bool) -> None:
        missing = [s for s in CacheState if s not in table]
        if missing:
            raise ValueError(f"policy {name!r} missing states: {missing}")
        if table[UC] is _F or table[UD] is _F:
            raise ValueError(
                f"policy {name!r} issues far AMOs on Unique blocks, the "
                "pathological case every implementation avoids")
        self.name = name
        self.table: Dict[CacheState, Placement] = dict(table)
        #: True for policies available in shipping hardware.
        self.existing = existing

    def decide(self, block: int, state: CacheState, now: int) -> Placement:
        return self.table[state]


def _table(uc: Placement, ud: Placement, sc: Placement, sd: Placement,
           i: Placement) -> Dict[CacheState, Placement]:
    return {UC: uc, UD: ud, SC: sc, SD: sd, I: i}


def all_near() -> StaticPolicy:
    """Every AMO executes in the L1D (the baseline of all figures)."""
    return StaticPolicy("all-near", _table(_N, _N, _N, _N, _N), existing=True)


def unique_near() -> StaticPolicy:
    """Near only when the block is already Unique; far otherwise."""
    return StaticPolicy("unique-near", _table(_N, _N, _F, _F, _F), existing=True)


def present_near() -> StaticPolicy:
    """Near when the block is present in any state; far when Invalid.

    The paper's best static policy: presence implies locality worth
    upgrading for, absence suggests the HN invalidated us and other cores
    are competing for the block.
    """
    return StaticPolicy("present-near", _table(_N, _N, _N, _N, _F),
                        existing=False)


def dirty_near() -> StaticPolicy:
    """Near when Unique or SharedDirty (we were the last writer)."""
    return StaticPolicy("dirty-near", _table(_N, _N, _F, _N, _F),
                        existing=False)


def shared_far() -> StaticPolicy:
    """Far only for shared states (other cores will reread the block);
    Invalid blocks are fetched near (they may simply have been evicted)."""
    return StaticPolicy("shared-far", _table(_N, _N, _F, _F, _N),
                        existing=False)


#: name -> zero-argument constructor, in the paper's Table I order.
STATIC_POLICIES = {
    "all-near": all_near,
    "unique-near": unique_near,
    "present-near": present_near,
    "dirty-near": dirty_near,
    "shared-far": shared_far,
}

#: The baseline every speed-up in the paper is normalized against.
BASELINE_POLICY = "all-near"


def table_i_rows() -> Tuple[Tuple[str, str, Dict[str, str]], ...]:
    """Render Table I: (policy name, existing/proposed, state->N/F)."""
    rows = []
    for name, ctor in STATIC_POLICIES.items():
        policy = ctor()
        decisions = {
            state.name: ("N" if policy.table[state] is _N else "F")
            for state in (UC, UD, SC, SD, I)
        }
        rows.append((name, "Existing" if policy.existing else "Proposed",
                     decisions))
    return tuple(rows)
