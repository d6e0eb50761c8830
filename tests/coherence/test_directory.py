"""Tests for home nodes: directory entries, AMO buffer, LLC slices."""

import tracemalloc

import pytest

from repro.coherence.directory import (AmoBuffer, DirectoryState, DirEntry,
                                       HomeNode)
from repro.sim.config import TINY_CONFIG


class TestDirEntry:
    def test_new_entry_idle(self):
        entry = DirEntry()
        assert entry.is_idle()
        assert entry.holders() == set()

    def test_owner_counts_as_holder(self):
        entry = DirEntry()
        entry.owner = 2
        assert entry.holders() == {2}
        assert not entry.is_idle()

    def test_holders_union(self):
        entry = DirEntry()
        entry.owner = 1
        entry.add_sharer(2)
        entry.add_sharer(3)
        assert entry.holders() == {1, 2, 3}

    def test_drop_owner(self):
        entry = DirEntry()
        entry.owner = 1
        entry.drop(1)
        assert entry.owner is None

    def test_drop_sharer(self):
        entry = DirEntry()
        entry.add_sharer(1)
        entry.add_sharer(2)
        entry.drop(1)
        assert entry.sharer_cores() == [2]

    def test_drop_non_holder_is_noop(self):
        entry = DirEntry()
        entry.owner = 1
        entry.drop(9)
        assert entry.owner == 1

    def test_footprint_per_entry(self):
        # A full-map entry holds its sharers as bits, not a container:
        # an empty set alone is 216 bytes.
        count = 10_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            entries = [DirEntry() for _ in range(count)]
            for entry in entries:
                entry.add_sharer(3)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(entry.sharer_cores() == [3] for entry in entries)
        assert used / count <= 100


class TestAmoBuffer:
    def test_first_access_misses_then_hits(self):
        buf = AmoBuffer(4)
        assert not buf.access(10)
        assert buf.access(10)
        assert buf.hits == 1
        assert buf.misses == 1

    def test_lru_eviction(self):
        buf = AmoBuffer(2)
        buf.access(1)
        buf.access(2)
        buf.access(3)  # evicts 1
        assert not buf.access(1)
        assert 2 not in buf  # 2 was evicted when 1 was re-inserted

    def test_access_refreshes_recency(self):
        buf = AmoBuffer(2)
        buf.access(1)
        buf.access(2)
        buf.access(1)  # 1 becomes MRU
        buf.access(3)  # evicts 2
        assert 1 in buf
        assert 2 not in buf

    def test_invalidate(self):
        buf = AmoBuffer(4)
        buf.access(7)
        buf.invalidate(7)
        assert 7 not in buf
        buf.invalidate(7)  # idempotent

    def test_zero_capacity_never_hits(self):
        buf = AmoBuffer(0)
        assert not buf.access(1)
        assert not buf.access(1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            AmoBuffer(-1)


class TestHomeNode:
    def test_llc_lookup_counts(self):
        hn = HomeNode(0, TINY_CONFIG)
        assert not hn.llc_lookup(5)
        hn.llc_fill(5)
        assert hn.llc_lookup(5)
        assert hn.llc_hits == 1
        assert hn.llc_misses == 1

    def test_llc_drop(self):
        hn = HomeNode(0, TINY_CONFIG)
        hn.llc_fill(5)
        hn.llc_drop(5)
        assert not hn.llc_lookup(5)

    def test_llc_fill_if_room_declines_when_full(self):
        hn = HomeNode(0, TINY_CONFIG)
        ways = hn.llc.ways
        sets = hn.llc.num_sets
        for i in range(ways):
            assert hn.llc_fill_if_room(i * sets)
        assert not hn.llc_fill_if_room(ways * sets)

    def test_llc_fill_evicts_victim(self):
        hn = HomeNode(0, TINY_CONFIG)
        ways = hn.llc.ways
        sets = hn.llc.num_sets
        for i in range(ways):
            assert hn.llc_fill(i * sets) is None
        victim = hn.llc_fill(ways * sets)
        assert victim is not None
        assert victim.block == 0


class TestDirectoryState:
    def test_entry_created_on_demand(self):
        directory = DirectoryState()
        assert directory.peek(4) is None
        entry = directory.entry(4)
        assert directory.peek(4) is entry
        assert len(directory) == 1

    def test_entry_is_stable(self):
        directory = DirectoryState()
        assert directory.entry(4) is directory.entry(4)

    def test_tracked_blocks_only_live_entries(self):
        directory = DirectoryState()
        directory.entry(1)  # idle
        busy = directory.entry(2)
        busy.owner = 0
        assert directory.tracked_blocks() == [2]
