"""Tests for the private L1D + L2 hierarchy."""

import pytest

from repro.coherence.l1 import PrivateCacheHierarchy
from repro.coherence.states import CacheState
from repro.sim.config import TINY_CONFIG


@pytest.fixture
def priv():
    return PrivateCacheHierarchy(TINY_CONFIG)


def test_l1_state_invalid_when_absent(priv):
    assert priv.l1_state(42) is CacheState.I


def test_l1_state_invalid_when_only_in_l2(priv):
    """A block resident only in the L2 reads as Invalid at the L1D —
    the Table I decision input."""
    priv.insert_l1(1, CacheState.SC)
    # Evict block 1 from L1 into L2 by filling its set.
    target_set = 1 % priv.l1.num_sets
    ways = priv.l1.ways
    fillers = [target_set + (i + 1) * priv.l1.num_sets for i in range(ways)]
    for b in fillers:
        priv.insert_l1(b, CacheState.SC)
    line, level = priv.find(1)
    assert level == 2
    assert priv.l1_state(1) is CacheState.I


def test_insert_and_find(priv):
    priv.insert_l1(7, CacheState.UC)
    line, level = priv.find(7)
    assert level == 1
    assert line.state is CacheState.UC


def test_l1_eviction_spills_to_l2(priv):
    ways = priv.l1.ways
    blocks = [i * priv.l1.num_sets for i in range(ways + 1)]
    departures = []
    for b in blocks:
        departures.extend(priv.insert_l1(b, CacheState.SC))
    assert len(departures) == 1
    dep = departures[0]
    assert dep.line.block == blocks[0]
    assert not dep.left_hierarchy
    _line, level = priv.find(blocks[0])
    assert level == 2


def test_promote_moves_block_back_to_l1(priv):
    ways = priv.l1.ways
    blocks = [i * priv.l1.num_sets for i in range(ways + 1)]
    for b in blocks:
        priv.insert_l1(b, CacheState.SC)
    priv.promote(blocks[0])
    _line, level = priv.find(blocks[0])
    assert level == 1


def test_promote_missing_block_raises(priv):
    with pytest.raises(KeyError):
        priv.promote(999)


def test_promote_preserves_state(priv):
    ways = priv.l1.ways
    blocks = [i * priv.l1.num_sets for i in range(ways + 1)]
    priv.insert_l1(blocks[0], CacheState.UD)
    for b in blocks[1:]:
        priv.insert_l1(b, CacheState.SC)
    priv.promote(blocks[0])
    line, _ = priv.find(blocks[0])
    assert line.state is CacheState.UD


def test_promotion_starts_fresh_reuse_epoch(priv):
    ways = priv.l1.ways
    blocks = [i * priv.l1.num_sets for i in range(ways + 1)]
    priv.insert_l1(blocks[0], CacheState.UD, fetched_by_amo=True)
    priv.touch_l1(blocks[0])
    for b in blocks[1:]:
        priv.insert_l1(b, CacheState.SC)
    priv.promote(blocks[0], fetched_by_amo=False)
    line, _ = priv.find(blocks[0])
    assert not line.fetched_by_amo
    assert not line.reused


def test_touch_sets_reuse_bit_on_amo_fetched_lines(priv):
    priv.insert_l1(3, CacheState.UD, fetched_by_amo=True)
    line = priv.touch_l1(3)
    assert line.reused


def test_touch_leaves_non_amo_lines_unmarked(priv):
    priv.insert_l1(3, CacheState.SC)
    line = priv.touch_l1(3)
    assert not line.reused


def test_invalidate_removes_from_both_levels(priv):
    priv.insert_l1(5, CacheState.SC)
    line, was_in_l1 = priv.invalidate(5)
    assert was_in_l1
    assert line.block == 5
    assert priv.find(5) == (None, None)


def test_invalidate_l2_resident(priv):
    ways = priv.l1.ways
    blocks = [i * priv.l1.num_sets for i in range(ways + 1)]
    for b in blocks:
        priv.insert_l1(b, CacheState.SC)
    line, was_in_l1 = priv.invalidate(blocks[0])
    assert line is not None
    assert not was_in_l1


def test_invalidate_absent_block(priv):
    line, was_in_l1 = priv.invalidate(12345)
    assert line is None
    assert not was_in_l1


def test_set_state(priv):
    priv.insert_l1(9, CacheState.SC)
    priv.set_state(9, CacheState.UD)
    assert priv.l1_state(9) is CacheState.UD
    with pytest.raises(KeyError):
        priv.set_state(777, CacheState.UC)


def test_downgrade(priv):
    priv.insert_l1(9, CacheState.UD)
    assert priv.downgrade(9, CacheState.SC)
    assert priv.l1_state(9) is CacheState.SC
    assert not priv.downgrade(777, CacheState.SC)


def test_l2_eviction_leaves_hierarchy(priv):
    """Overfilling both levels produces a left_hierarchy departure."""
    l1_ways = priv.l1.ways
    l2_ways = priv.l2.ways
    # All blocks map to L1 set 0 and L2 set 0 when stride is lcm of sets.
    stride = max(priv.l1.num_sets, priv.l2.num_sets)
    left = []
    for i in range(l1_ways + l2_ways + 2):
        left.extend(d for d in priv.insert_l1(i * stride, CacheState.SC)
                    if d.left_hierarchy)
    assert left, "expected at least one hierarchy departure"
