"""Edge-case machine tests: L2 paths, the pathological far case, SD."""

import pytest

from repro.coherence.invariants import check_swmr
from repro.coherence.states import CacheState
from repro.frontend import isa
from repro.sim.config import TINY_CONFIG
from repro.sim.machine import Machine


def fill_l1_set_of(machine, core, block, start=0x40_0000):
    """Evict ``block`` from the L1 into the L2 by filling its set."""
    priv = machine.privates[core]
    num_sets = priv.l1.num_sets
    target_set = block % num_sets
    now = 10_000
    for i in range(priv.l1.ways + 1):
        addr = (start // 64 // num_sets * num_sets + target_set
                + (i + 1000) * num_sets) * 64
        machine.execute(core, isa.read(addr), now)
        now += 1000
    return now


class TestL2Paths:
    def test_read_hits_l2_after_l1_eviction(self):
        m = Machine(TINY_CONFIG)
        m.execute(0, isa.read(0x1000), 0)
        now = fill_l1_set_of(m, 0, 0x1000 >> 6)
        before = m.stats.l2_hits
        done, _ = m.execute(0, isa.read(0x1000), now)
        assert m.stats.l2_hits == before + 1
        assert done == now + TINY_CONFIG.l2_latency

    def test_near_amo_promotes_from_l2(self):
        m = Machine(TINY_CONFIG)
        m.execute(0, isa.write(0x1000, 1), 0)  # UD in L1
        now = fill_l1_set_of(m, 0, 0x1000 >> 6)
        assert m.privates[0].l1_state(0x1000 >> 6) is CacheState.I
        m.execute(0, isa.ldadd(0x1000, 1), now)
        # The AMO found the block in the L2 and promoted it.
        line, level = m.privates[0].find(0x1000 >> 6)
        assert level == 1
        assert line.state is CacheState.UD
        assert m.read_value(0x1000) == 2

    def test_policy_sees_invalid_for_l2_resident_block(self):
        """Table I decisions key on the *L1D* state: under Present Near
        an AMO on a block that slipped to the L2 goes far."""
        m = Machine(TINY_CONFIG, "present-near")
        m.execute(0, isa.read(0x1000), 0)  # UC in L1
        now = fill_l1_set_of(m, 0, 0x1000 >> 6)
        m.execute(0, isa.stadd(0x1000, 1), now)
        assert m.stats.far_amos == 1


class TestPathologicalFarCase:
    def test_far_amo_snoops_requestor_holding_unique(self):
        """Section II-B: a far AMO while the requestor holds the block
        Unique forces a snoop back to the requestor — supported by the
        machine even though no policy chooses it."""
        m = Machine(TINY_CONFIG)
        m.execute(0, isa.write(0x1000, 5), 0)
        assert m.privates[0].l1_state(0x1000 >> 6) is CacheState.UD
        done, old = m._amo_far(0, isa.ldadd(0x1000, 1), 0x1000 >> 6, 100)
        assert old == 5
        assert m.read_value(0x1000) == 6
        # The requestor's own copy was invalidated by the snoop.
        assert m.privates[0].l1_state(0x1000 >> 6) is CacheState.I
        assert m.stats.invalidations == 1


class TestSharedDirty:
    def test_sd_arises_when_llc_set_full(self):
        """A snooped dirty owner keeps SD when the LLC set has no room."""
        m = Machine(TINY_CONFIG)
        hn_sets = m.home_nodes[0].llc.num_sets
        slices = TINY_CONFIG.llc_slices
        # Blocks homed at slice 0 mapping to LLC set 0.
        stride = slices * hn_sets
        ways = TINY_CONFIG.llc_ways
        now = 0
        # Fill LLC slice-0 set-0 via far-ineligible traffic: write then
        # read from another core (dirty data pushed into the LLC).
        victim_blocks = [i * stride for i in range(ways + 2)]
        for b in victim_blocks:
            m.execute(0, isa.write(b * 64, 1), now)
            now += 500
            m.execute(1, isa.read(b * 64), now)
            now += 500
        states = [m.privates[0].l1_state(b) for b in victim_blocks]
        assert CacheState.SD in states  # at least one owner kept SD

    def test_sd_block_serves_subsequent_reader(self):
        m = Machine(TINY_CONFIG)
        # Force an SD situation as above, then have a third core read.
        hn_sets = m.home_nodes[0].llc.num_sets
        stride = TINY_CONFIG.llc_slices * hn_sets
        now = 0
        blocks = [i * stride for i in range(TINY_CONFIG.llc_ways + 2)]
        for b in blocks:
            m.execute(0, isa.write(b * 64, b), now)
            now += 500
            m.execute(1, isa.read(b * 64), now)
            now += 500
        sd_blocks = [b for b in blocks
                     if m.privates[0].l1_state(b) is CacheState.SD]
        assert sd_blocks
        target = sd_blocks[0]
        m.execute(2, isa.read(target * 64), now)
        assert m.read_value(target * 64) == target
        assert check_swmr(m) == []


class TestUpgradePath:
    def test_shared_write_upgrades_and_invalidates(self):
        m = Machine(TINY_CONFIG)
        m.execute(0, isa.read(0x1000), 0)
        m.execute(1, isa.read(0x1000), 100)  # both SC
        before = m.stats.upgrades
        m.execute(0, isa.write(0x1000, 9), 200)
        assert m.stats.upgrades == before + 1
        assert m.privates[1].l1_state(0x1000 >> 6) is CacheState.I
        assert m.privates[0].l1_state(0x1000 >> 6) is CacheState.UD

    def test_amo_on_shared_block_upgrades_in_place(self):
        m = Machine(TINY_CONFIG)
        m.execute(0, isa.read(0x1000), 0)
        m.execute(1, isa.read(0x1000), 100)
        m.execute(0, isa.ldadd(0x1000, 1), 200)  # SC -> near upgrade
        assert m.stats.upgrades >= 1
        assert m.stats.near_amos == 1
