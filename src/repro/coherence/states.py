"""Cache-block coherence states of the AMBA 5 CHI protocol.

CHI implements a tunable MOESI protocol with its own naming convention
(paper Section II-B):

===========  ======  ===============================================
CHI name     MOESI   Meaning at the private (L1D/L2) cache
===========  ======  ===============================================
UniqueClean  E       only copy, matches memory
UniqueDirty  M       only copy, modified
SharedClean  S       possibly other copies, matches memory/LLC
SharedDirty  O       possibly other copies, this cache owns the data
Invalid      I       no valid copy
===========  ======  ===============================================

Static AMO policies (Table I) and the DynAMO predictors key their
decisions on this state as observed at the requesting L1D.

The enum is integer-coded and its predicates are precomputed member
*attributes* (not properties): state tests sit on the simulator's
hottest path, where an attribute load beats a descriptor call and an
int hash beats ``Enum.__hash__``.  The long CHI names live on
``chi_name``; ``.name`` keeps the short mnemonic used by traces.
"""

from __future__ import annotations

import enum


class CacheState(enum.IntEnum):
    """Coherence state of a block in a private cache (CHI naming)."""

    UC = 0
    UD = 1
    SC = 2
    SD = 3
    I = 4  # noqa: E741 - the protocol's own name

    # Precomputed per-member attributes, assigned below the class body
    # (annotation-only here so type checkers see them).
    #: the protocol's long name (UniqueClean, ...).
    chi_name: str
    #: True when the cache holds the only copy (write permission).
    is_unique: bool
    #: True when other caches may hold read-only copies.
    is_shared: bool
    is_valid: bool
    #: True when this cache is responsible for writing data back.
    is_dirty: bool


#: The members as module constants, for code that runs per simulated
#: operation: a member load on the Enum class goes through
#: ``EnumType.__getattr__``, several times the cost of a global load
#: (DESIGN.md §9).
UC, UD, SC, SD, I = (CacheState.UC, CacheState.UD, CacheState.SC,
                     CacheState.SD, CacheState.I)

_CHI_NAMES = {
    UC: "UniqueClean",
    UD: "UniqueDirty",
    SC: "SharedClean",
    SD: "SharedDirty",
    I: "Invalid",
}
for _state in CacheState:
    _state.chi_name = _CHI_NAMES[_state]
    _state.is_unique = _state in (UC, UD)
    _state.is_shared = _state in (SC, SD)
    _state.is_valid = _state is not I
    _state.is_dirty = _state in (UD, SD)
del _state


#: The states a placement policy actually chooses between.  When the block
#: is already Unique in the L1D, issuing a far AMO is a pathological case
#: (the HN would have to snoop the requestor itself, Section II-B), so every
#: policy and both predictors execute those AMOs near unconditionally.
DECIDABLE_STATES = (I, SC, SD)
