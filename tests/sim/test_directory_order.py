"""Property tests: the directory's holder order, grant rule and snapshot.

Random holder sets (an owner or none, plus any set of sharers) are
installed on a small machine by construction.  A write must snoop the
other holders lowest core first, a ReadShared must grant SharedClean
exactly when another holder exists, and a directory snapshot must list
sharers as sorted tuples and survive ``restore``.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.coherence.directory import DirectoryState
from repro.coherence.invariants import check_swmr
from repro.coherence.states import CacheState
from repro.core.policy import AmoPolicy, Placement
from repro.frontend import isa
from repro.sim.config import TINY_CONFIG
from repro.sim.machine import Machine

CONFIG = TINY_CONFIG.scaled(8)
CORES = range(CONFIG.num_cores)
ADDR = 0x8000
BLOCK = ADDR >> 6


class _InvalRecorder(AmoPolicy):
    """All-near placement that logs which core each snoop invalidated."""

    name = "inval-recorder"

    def __init__(self, core, log):
        self.core = core
        self.log = log

    def decide(self, block, state, now):
        return Placement.NEAR

    def on_invalidation(self, block, now):
        self.log.append(self.core)


@st.composite
def holder_sets(draw):
    """``(owner or None, owner's state, sharers)`` for one block."""
    owner = draw(st.none() | st.sampled_from(CORES))
    sharers = draw(st.frozensets(st.sampled_from(CORES))) - {owner}
    if sharers:  # beside SC copies the owner can only be SharedDirty
        state = CacheState.SD
    else:
        state = draw(st.sampled_from(
            (CacheState.UC, CacheState.UD, CacheState.SD)))
    return owner, state, sharers


def _install(owner, state, sharers):
    machine = Machine(CONFIG, "all-near")
    machine.poke_value(ADDR, 41)
    machine.directory.restore(
        ((BLOCK, -1 if owner is None else owner, tuple(sorted(sharers))),))
    if owner is not None:
        machine.privates[owner].insert_l1(BLOCK, state)
    for core in sharers:
        machine.privates[core].insert_l1(BLOCK, CacheState.SC)
    if owner is None and sharers:  # clean shared data also lives at the LLC
        machine.home_nodes[BLOCK % CONFIG.llc_slices].llc_fill(BLOCK)
    assert check_swmr(machine) == []
    return machine


def _holders(owner, sharers):
    return set(sharers) | ({owner} if owner is not None else set())


@settings(max_examples=60, deadline=None)
@given(holders=holder_sets(), requestor=st.sampled_from(CORES))
def test_write_invalidates_other_holders_lowest_core_first(holders,
                                                           requestor):
    owner, state, sharers = holders
    machine = _install(owner, state, sharers)
    log = []
    machine.policies = [_InvalRecorder(c, log) for c in CORES]
    machine.execute(requestor, isa.write(ADDR, 7), 0)
    assert log == sorted(_holders(owner, sharers) - {requestor})
    assert machine.directory.peek(BLOCK).holders() == {requestor}
    assert check_swmr(machine) == []


@settings(max_examples=60, deadline=None)
@given(holders=holder_sets(), requestor=st.sampled_from(CORES))
def test_read_shared_grants_sc_exactly_when_another_holder_exists(
        holders, requestor):
    owner, state, sharers = holders
    others = _holders(owner, sharers)
    assume(requestor not in others)
    machine = _install(owner, state, sharers)
    machine.execute(requestor, isa.read(ADDR), 0)
    grant = machine.privates[requestor].l1_state(BLOCK)
    assert grant is (CacheState.SC if others else CacheState.UC)
    assert check_swmr(machine) == []


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.integers(0, 1 << 20),
    st.tuples(st.none() | st.sampled_from(CORES),
              st.lists(st.sampled_from(CORES), unique=True)),
    max_size=6))
def test_snapshot_lists_sorted_sharers_and_round_trips(entries):
    snap = tuple(sorted(
        (block, -1 if owner is None else owner, tuple(sharers))
        for block, (owner, sharers) in entries.items()))
    directory = DirectoryState()
    directory.restore(snap)
    got = directory.snapshot()
    assert got == tuple(sorted(
        (block, -1 if owner is None else owner, tuple(sorted(sharers)))
        for block, (owner, sharers) in entries.items()
        if owner is not None or sharers))
    again = DirectoryState()
    again.restore(got)
    assert again.snapshot() == got
