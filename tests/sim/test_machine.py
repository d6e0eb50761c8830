"""Behavioural tests for the machine's protocol and timing model.

These drive single operations through :meth:`Machine.execute` and check
coherence-state transitions, latency ordering, and the CHI flows of the
paper's Fig. 2.
"""

import pytest

from repro.coherence.invariants import check_swmr
from repro.coherence.states import CacheState
from repro.frontend import isa
from repro.sim.config import TINY_CONFIG
from repro.sim.machine import DeferredRead, Machine


def state_of(machine, core, addr):
    return machine.privates[core].l1_state(addr >> 6)


class TestReads:
    def test_cold_read_allocates_unique_clean(self, tiny_machine):
        m = tiny_machine
        done, result = m.execute(0, isa.read(0x1000), 0)
        assert isinstance(result, DeferredRead)
        assert result.addr == 0x1000
        # Sole reader gets an Exclusive (UC) grant.
        assert state_of(m, 0, 0x1000) is CacheState.UC
        assert done > TINY_CONFIG.l1_latency  # went past the L1

    def test_second_reader_shares(self, tiny_machine):
        m = tiny_machine
        m.execute(0, isa.read(0x1000), 0)
        m.execute(1, isa.read(0x1000), 100)
        assert state_of(m, 0, 0x1000) is CacheState.SC
        assert state_of(m, 1, 0x1000) is CacheState.SC

    def test_l1_hit_is_l1_latency(self, tiny_machine):
        m = tiny_machine
        m.execute(0, isa.read(0x1000), 0)
        done, _ = m.execute(0, isa.read(0x1000), 1000)
        assert done == 1000 + TINY_CONFIG.l1_latency

    def test_read_of_dirty_block_forwards_from_owner(self, tiny_machine):
        m = tiny_machine
        m.execute(0, isa.write(0x1000, 5), 0)
        assert state_of(m, 0, 0x1000) is CacheState.UD
        m.execute(1, isa.read(0x1000), 100)
        # Owner downgraded; value visible to the reader.
        assert state_of(m, 0, 0x1000) in (CacheState.SC, CacheState.SD)
        assert m.read_value(0x1000) == 5

    def test_dram_only_on_first_touch(self, tiny_machine):
        m = tiny_machine
        m.execute(0, isa.read(0x1000), 0)
        first = m.stats.dram_reads
        m.execute(1, isa.read(0x1000), 100)
        assert m.stats.dram_reads == first


class TestWrites:
    def test_write_makes_unique_dirty(self, tiny_machine):
        m = tiny_machine
        m.execute(0, isa.write(0x80, 3), 0)
        assert state_of(m, 0, 0x80) is CacheState.UD
        assert m.read_value(0x80) == 3

    def test_write_invalidates_sharers(self, tiny_machine):
        m = tiny_machine
        m.execute(0, isa.read(0x80), 0)
        m.execute(1, isa.read(0x80), 50)
        m.execute(1, isa.write(0x80, 9), 100)
        assert state_of(m, 0, 0x80) is CacheState.I
        assert state_of(m, 1, 0x80) is CacheState.UD
        assert m.stats.invalidations >= 1

    def test_store_buffer_hides_write_latency(self, tiny_machine):
        m = tiny_machine
        done, _ = m.execute(0, isa.write(0x80, 1), 0)
        assert done == 1  # visible cost is SB admission

    def test_store_buffer_fills_and_stalls(self, make_machine):
        config = TINY_CONFIG.replace(store_buffer_entries=2)
        m = make_machine(config=config)
        now = 0
        for i in range(8):
            # Distinct cold blocks: each drain takes a full transaction.
            done, _ = m.execute(0, isa.write(0x10000 + i * 64, 1), now)
            now = done
        assert m.stats.store_buffer_stalls > 0


class TestNearAmo:
    def test_amo_on_unique_block_is_fast_path(self, tiny_machine):
        m = tiny_machine
        m.execute(0, isa.write(0x80, 0), 0)
        before = m.stats.near_amo_unique_hits
        done, old = m.execute(0, isa.ldadd(0x80, 2), 100)
        assert m.stats.near_amo_unique_hits == before + 1
        assert old == 0
        assert m.read_value(0x80) == 2
        # L1 hit + ALU + commit overhead.
        assert done <= 100 + TINY_CONFIG.l1_latency \
            + TINY_CONFIG.amo_alu_latency + TINY_CONFIG.commit_stall_overhead

    def test_amo_load_returns_old_value(self, tiny_machine):
        m = tiny_machine
        m.poke_value(0x80, 41)
        _done, old = m.execute(0, isa.ldadd(0x80, 1), 0)
        assert old == 41
        assert m.read_value(0x80) == 42

    def test_amo_store_returns_none(self, tiny_machine):
        _done, result = tiny_machine.execute(0, isa.stadd(0x80, 1), 0)
        assert result is None

    def test_near_amo_leaves_block_dirty(self, tiny_machine):
        m = tiny_machine
        m.execute(0, isa.ldadd(0x80, 1), 0)
        assert state_of(m, 0, 0x80) is CacheState.UD

    def test_near_amo_steals_block_from_other_core(self, tiny_machine):
        m = tiny_machine
        m.execute(0, isa.ldadd(0x80, 1), 0)
        m.execute(1, isa.ldadd(0x80, 1), 100)
        assert state_of(m, 0, 0x80) is CacheState.I
        assert state_of(m, 1, 0x80) is CacheState.UD
        assert m.read_value(0x80) == 2

    def test_policy_not_consulted_on_unique(self, tiny_machine):
        m = tiny_machine
        m.execute(0, isa.write(0x80, 0), 0)
        m.execute(0, isa.ldadd(0x80, 1), 50)
        stats = m.policy_stats[0]
        assert stats.near_decisions + stats.far_decisions == 0

    def test_policy_consulted_on_miss(self, tiny_machine):
        m = tiny_machine
        m.execute(0, isa.ldadd(0x80, 1), 0)
        stats = m.policy_stats[0]
        assert stats.near_decisions == 1


class TestFarAmo:
    @pytest.fixture
    def far_machine(self, make_machine):
        return make_machine(policy="unique-near")

    def test_far_amo_leaves_no_private_copy(self, far_machine):
        m = far_machine
        m.execute(0, isa.ldadd(0x80, 1), 0)  # I-state: far under UN
        assert m.stats.far_amos == 1
        assert state_of(m, 0, 0x80) is CacheState.I
        assert m.read_value(0x80) == 1

    def test_far_amo_invalidates_all_copies(self, far_machine):
        m = far_machine
        m.execute(0, isa.read(0x80), 0)
        m.execute(1, isa.read(0x80), 50)
        m.execute(2, isa.ldadd(0x80, 1), 100)
        for core in range(3):
            assert state_of(m, core, 0x80) is CacheState.I

    def test_amo_buffer_hit_on_back_to_back_far_amos(self, far_machine):
        m = far_machine
        m.execute(0, isa.ldadd(0x80, 1), 0)
        m.execute(1, isa.ldadd(0x80, 1), 200)
        assert m.stats.amo_buffer_hits >= 1

    def test_far_store_faster_than_far_load(self, far_machine):
        m = far_machine
        done_store, _ = m.execute(0, isa.stadd(0x80, 1), 0)
        m2 = Machine(TINY_CONFIG, "unique-near")
        done_load, _ = m2.execute(0, isa.ldadd(0x80, 1), 0)
        # The store retires through the store buffer; the load blocks.
        assert done_store < done_load

    def test_atomics_serialize_per_core(self, far_machine):
        """The second AMO cannot start before the first completed."""
        m = far_machine
        m.execute(0, isa.stadd(0x80, 1), 0)
        first_free = m._amo_free[0]
        m.execute(0, isa.stadd(0x1080, 1), 1)
        assert m._amo_free[0] > first_free

    def test_far_amo_counts_split_load_store(self, far_machine):
        m = far_machine
        m.execute(0, isa.ldadd(0x80, 1), 0)
        m.execute(0, isa.stadd(0x1080, 1), 500)
        assert m.stats.far_amo_loads == 1
        assert m.stats.far_amo_stores == 1


class TestValueSemantics:
    def test_cas_success_and_failure(self, tiny_machine):
        m = tiny_machine
        m.poke_value(0x80, 7)
        _d, old = m.execute(0, isa.cas(0x80, expected=7, new=9), 0)
        assert old == 7 and m.read_value(0x80) == 9
        _d, old = m.execute(0, isa.cas(0x80, expected=7, new=11), 100)
        assert old == 9 and m.read_value(0x80) == 9

    def test_min_max_amo(self, tiny_machine):
        m = tiny_machine
        m.poke_value(0x80, 50)
        m.execute(0, isa.stmin(0x80, 30), 0)
        assert m.read_value(0x80) == 30
        m.execute(0, isa.stmin(0x80, 40), 100)
        assert m.read_value(0x80) == 30

    def test_think_costs_cycles(self, tiny_machine):
        done, result = tiny_machine.execute(0, isa.think(77), 5)
        assert done == 82
        assert result is None


class TestEvictions:
    def test_dirty_eviction_writes_back(self, tiny_machine):
        m = tiny_machine
        cfg = m.config
        num_sets = m.privates[0].l1.num_sets
        l2_sets = m.privates[0].l2.num_sets
        stride = max(num_sets, l2_sets) * 64
        total_ways = cfg.l1_ways + cfg.l2_ways
        now = 0
        for i in range(total_ways + 2):
            done, _ = m.execute(0, isa.write(0x100000 + i * stride, i), now)
            now += 1000
        assert m.stats.l2_evictions >= 1
        # The evicted dirty block's value must still be visible.
        assert m.read_value(0x100000) == 0
        done, _ = m.execute(1, isa.read(0x100000), now + 1000)
        assert m.read_value(0x100000) == 0

    def test_invariants_hold_after_eviction_chain(self, tiny_machine):
        m = tiny_machine
        now = 0
        for i in range(200):
            m.execute(i % 4, isa.write(0x100000 + i * 64 * 17, i), now)
            now += 50
        assert check_swmr(m) == []
