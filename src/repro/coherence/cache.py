"""Set-associative cache arrays with LRU replacement.

These arrays provide the *capacity and conflict* behaviour the paper's
results depend on (near AMOs on streaming data thrash the L1D and evict the
reused working set, Section V-A), while the coherence *protocol* lives in
:mod:`repro.coherence.l1` and :mod:`repro.coherence.directory`.

Implementation notes: each set is a plain dict mapping tag to
:class:`CacheLine`; dict insertion order doubles as the LRU stack
(oldest-inserted = least recently used; a touch re-inserts the entry).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.coherence.states import CacheState

#: One line in a cache snapshot: (block, state value, fetched_by_amo,
#: reused).  Plain ints/bools so snapshots hash and compare cheaply.
LineSnapshot = Tuple[int, int, bool, bool]

#: Architectural snapshot of a whole array: per set, the resident lines
#: in LRU→MRU order (dict insertion order *is* the replacement state, so
#: it must round-trip through snapshots).
CacheSnapshot = Tuple[Tuple[LineSnapshot, ...], ...]


class CacheLine:
    """A resident cache block and its per-block predictor metadata.

    Attributes:
        block: block number (byte address >> 6).
        state: CHI coherence state.
        fetched_by_amo: the block was allocated by a near AMO — the DynAMO
            reuse predictor tracks the fate of exactly these blocks.
        reused: some later access hit the block during this residency
            (the predictor's per-residency "reuse bit").
    """

    __slots__ = ("block", "state", "fetched_by_amo", "reused")

    def __init__(self, block: int, state: CacheState,
                 fetched_by_amo: bool = False) -> None:
        self.block = block
        self.state = state
        self.fetched_by_amo = fetched_by_amo
        self.reused = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheLine(block={self.block:#x}, state={self.state.name}, "
                f"amo={self.fetched_by_amo}, reused={self.reused})")


class SetAssocCache:
    """A set-associative, LRU-replacement cache tag/data array.

    Args:
        size_bytes: total capacity.
        ways: associativity.
        block_bytes: cache block size (64 in the simulated system).

    Raises:
        ValueError: if the geometry does not yield at least one set.
    """

    def __init__(self, size_bytes: int, ways: int, block_bytes: int = 64) -> None:
        if size_bytes <= 0 or ways <= 0 or block_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        num_sets = size_bytes // (ways * block_bytes)
        if num_sets < 1:
            raise ValueError(
                f"cache of {size_bytes}B / {ways} ways has no complete set")
        self.size_bytes = size_bytes
        self.ways = ways
        self.block_bytes = block_bytes
        self.num_sets = num_sets
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(num_sets)]

    def lookup(self, block: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line for ``block``, or None.

        ``touch`` promotes the line to most-recently-used.
        """
        line_set = self._sets[block % self.num_sets]
        line = line_set.get(block)
        if line is not None and touch:
            del line_set[block]
            line_set[block] = line
        return line

    def insert(self, line: CacheLine) -> Optional[CacheLine]:
        """Insert ``line``, returning the victim evicted to make room.

        The inserted line becomes most-recently-used.  Inserting a block
        that is already resident replaces its line without eviction.
        """
        line_set = self._sets[line.block % self.num_sets]
        victim = None
        if line.block in line_set:
            del line_set[line.block]
        elif len(line_set) >= self.ways:
            victim_block = next(iter(line_set))
            victim = line_set.pop(victim_block)
        line_set[line.block] = line
        return victim

    def remove(self, block: int) -> Optional[CacheLine]:
        """Remove and return the line for ``block`` (None when absent)."""
        return self._sets[block % self.num_sets].pop(block, None)

    def __contains__(self, block: int) -> bool:
        return block in self._sets[block % self.num_sets]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def lines(self) -> Iterator[CacheLine]:
        """Iterate over all resident lines (LRU→MRU within each set)."""
        for line_set in self._sets:
            yield from line_set.values()

    def lru_victim(self, block: int) -> Optional[CacheLine]:
        """Peek the line that *would* be evicted by inserting ``block``."""
        line_set = self._sets[block % self.num_sets]
        if block in line_set or len(line_set) < self.ways:
            return None
        return next(iter(line_set.values()))

    # --- snapshot/restore (model checking) ----------------------------

    def snapshot(self) -> CacheSnapshot:
        """Hashable architectural snapshot: contents + LRU order."""
        return tuple(
            tuple((line.block, int(line.state), line.fetched_by_amo,
                   line.reused)
                  for line in line_set.values())
            for line_set in self._sets)

    def restore(self, snap: CacheSnapshot) -> None:
        """Reset contents to ``snap``.

        Mutates the existing set dicts in place: ``_sets`` (and each
        dict inside it) is aliased by the machine's hot-path bindings,
        so neither the list nor its element dicts may be rebound.
        """
        for line_set, lines in zip(self._sets, snap):
            line_set.clear()
            for block, state, fetched, reused in lines:
                line = CacheLine(block, CacheState(state), fetched)
                line.reused = reused
                line_set[block] = line
