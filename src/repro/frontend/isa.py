"""Memory-operation "ISA" used by trace-driven programs.

Programs (see :mod:`repro.frontend.program`) are generators that yield
operations from this module and receive the operation's result back.  The
vocabulary deliberately mirrors the AMBA 5 CHI / Armv8.1-LSE split the paper
relies on:

* ``AmoLoad`` — an atomic read-modify-write that *returns the old value*
  (e.g. ``ldadd``, ``cas``, ``swp``).  These have load semantics: the issuing
  core stalls at commit until the value arrives (paper Section III-B1).
* ``AmoStore`` — an atomic read-modify-write with *no return value*
  (e.g. ``stadd``, ``stmin``).  These retire through the store buffer and
  only need a dataless acknowledgement, which is the key enabler for
  high-throughput far AMOs.

Plain ``Read``/``Write`` model ordinary loads and stores, and ``Think``
models the non-memory instructions between memory operations (it is how
workloads control their AMOs-per-kilo-instruction density).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Final, Optional

#: Cache block size in bytes (fixed by the simulated system, Table II).
BLOCK_SIZE: Final[int] = 64
#: log2(BLOCK_SIZE), used to convert byte addresses to block numbers.
BLOCK_SHIFT: Final[int] = 6


def block_of(addr: int) -> int:
    """Return the cache-block number that byte address ``addr`` falls in."""
    return addr >> BLOCK_SHIFT


class AmoKind(enum.IntEnum):
    """Arithmetic performed by an atomic memory operation.

    Integer-coded: the codes index the :func:`apply_amo` dispatch table
    directly, and identity/hash on the simulator's hot path cost what a
    small int costs.
    """

    ADD = 0
    AND = 1
    OR = 2
    XOR = 3
    MIN = 4
    MAX = 5
    SWAP = 6
    CAS = 7


class OpType(enum.IntEnum):
    """Top-level operation classes a program can issue (integer-coded)."""

    READ = 0
    WRITE = 1
    AMO_LOAD = 2
    AMO_STORE = 3
    THINK = 4
    #: Timing-neutral annotation: zero cycles, zero instructions, no
    #: machine state touched.  Sync primitives emit these around their
    #: wait loops so attribution sinks can see lock/barrier phases; with
    #: no stamp-wanting sink subscribed a MARK is architecturally
    #: invisible (the golden corpus proves it).
    MARK = 5


#: Members named by code that runs per simulated operation, as module
#: constants (a member load on the Enum class costs several global
#: loads; DESIGN.md §9).
READ, WRITE, AMO_LOAD, AMO_STORE, THINK, MARK = (
    OpType.READ, OpType.WRITE, OpType.AMO_LOAD, OpType.AMO_STORE,
    OpType.THINK, OpType.MARK)
ADD, MIN, MAX, SWAP, CAS = (AmoKind.ADD, AmoKind.MIN, AmoKind.MAX,
                            AmoKind.SWAP, AmoKind.CAS)


@dataclass(slots=True)
class MemOp:
    """A single dynamic operation issued by a program.

    Attributes:
        type: operation class.
        addr: byte address (ignored for ``THINK``).
        value: value written (``WRITE``) or AMO operand; for ``CAS`` this is
            the *new* value and ``expected`` carries the comparand.
        amo: arithmetic kind for AMO operations, ``None`` otherwise.
        expected: comparand for ``CAS``.
        cycles: duration for ``THINK`` operations.
        instructions: how many committed instructions this op represents
            (used for APKI accounting; ``THINK`` ops usually represent many).
    """

    type: OpType
    addr: int = 0
    value: int = 0
    amo: Optional[AmoKind] = None
    expected: int = 0
    cycles: int = 0
    instructions: int = 1

    @property
    def is_amo(self) -> bool:
        return self.type in (AMO_LOAD, AMO_STORE)

    @property
    def block(self) -> int:
        return self.addr >> BLOCK_SHIFT


# --- sync phase markers (MARK op payloads) ---------------------------
#
# The marker code travels in ``MemOp.value``; ``MemOp.addr`` carries the
# sync object's address so attribution can group waits per lock/barrier.

MARK_LOCK_BEGIN: Final[int] = 0      #: a thread starts trying to acquire
MARK_LOCK_ACQUIRED: Final[int] = 1   #: the acquiring atomic succeeded
MARK_LOCK_RELEASE: Final[int] = 2    #: the releasing store/swap issued
MARK_BARRIER_BEGIN: Final[int] = 3   #: a thread arrives at a barrier
MARK_BARRIER_RELEASE: Final[int] = 4 #: the last arriver flipped the sense
MARK_BARRIER_END: Final[int] = 5     #: a thread leaves the barrier

#: Stable trace names for marker codes (index = code).
MARK_NAMES: Final[tuple[str, ...]] = (
    "lock-begin", "lock-acquired", "lock-release",
    "barrier-begin", "barrier-release", "barrier-end",
)


def read(addr: int) -> MemOp:
    """Plain load from ``addr``."""
    return MemOp(READ, addr)


def write(addr: int, value: int = 0) -> MemOp:
    """Plain store of ``value`` to ``addr``."""
    return MemOp(WRITE, addr, value)


def think(cycles: int, instructions: Optional[int] = None) -> MemOp:
    """Non-memory work: ``cycles`` of compute, ``instructions`` committed.

    When ``instructions`` is omitted we assume one instruction per cycle,
    which approximates a core sustaining its issue width on compute code.
    """
    if instructions is None:
        instructions = max(1, cycles)
    return MemOp(THINK, 0, 0, None, 0, cycles, instructions)


def mark(code: int, addr: int) -> MemOp:
    """Timing-neutral sync marker (``cycles=0``, ``instructions=0``).

    ``code`` is one of the ``MARK_*`` constants; ``addr`` is the sync
    object's address.
    """
    return MemOp(MARK, addr, code, None, 0, 0, 0)


def ldadd(addr: int, value: int) -> MemOp:
    """Atomic fetch-and-add returning the old value."""
    return MemOp(AMO_LOAD, addr, value, ADD)


def stadd(addr: int, value: int) -> MemOp:
    """Atomic add with no return value (atomic-no-return)."""
    return MemOp(AMO_STORE, addr, value, ADD)


def ldmin(addr: int, value: int) -> MemOp:
    """Atomic fetch-and-min returning the old value."""
    return MemOp(AMO_LOAD, addr, value, MIN)


def stmin(addr: int, value: int) -> MemOp:
    """Atomic min with no return value."""
    return MemOp(AMO_STORE, addr, value, MIN)


def ldmax(addr: int, value: int) -> MemOp:
    """Atomic fetch-and-max returning the old value."""
    return MemOp(AMO_LOAD, addr, value, MAX)


def swap(addr: int, value: int) -> MemOp:
    """Atomic swap returning the old value."""
    return MemOp(AMO_LOAD, addr, value, SWAP)


def stswp(addr: int, value: int) -> MemOp:
    """Atomic swap with no return value (atomic-no-return).

    The paper's Section III-B1 recommendation: when the old value is not
    needed — e.g. a lock release — a store-type swap commits early and
    keeps far execution off the critical path.
    """
    return MemOp(AMO_STORE, addr, value, SWAP)


def cas(addr: int, expected: int, new: int) -> MemOp:
    """Atomic compare-and-swap; returns the old value.

    The CAS succeeded iff the returned old value equals ``expected``.
    """
    return MemOp(AMO_LOAD, addr, new, CAS, expected)


#: Dispatch table for :func:`apply_amo`, indexed by the AmoKind int code.
_AMO_FUNCS = [
    lambda old, operand, expected: old + operand,            # ADD
    lambda old, operand, expected: old & operand,            # AND
    lambda old, operand, expected: old | operand,            # OR
    lambda old, operand, expected: old ^ operand,            # XOR
    lambda old, operand, expected: min(old, operand),        # MIN
    lambda old, operand, expected: max(old, operand),        # MAX
    lambda old, operand, expected: operand,                  # SWAP
    lambda old, operand, expected: (operand if old == expected
                                    else old),               # CAS
]
assert len(_AMO_FUNCS) == len(AmoKind)


def apply_amo(kind: AmoKind, old: int, operand: int, expected: int = 0) -> int:
    """Compute the new memory value an AMO produces.

    Returns the value stored back to memory.  For ``CAS`` the store only
    happens when ``old == expected``.
    """
    try:
        func = _AMO_FUNCS[kind]
    except (IndexError, TypeError):
        raise ValueError(f"unknown AMO kind: {kind!r}") from None
    return func(old, operand, expected)
