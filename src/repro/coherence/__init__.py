"""CHI-style coherence substrate: states, caches, L1 hierarchy, home nodes."""

from repro.coherence.cache import CacheLine, SetAssocCache
from repro.coherence.directory import (AmoBuffer, DirectoryState, DirEntry,
                                       HomeNode)
from repro.coherence.l1 import Departure, PrivateCacheHierarchy
from repro.coherence.states import DECIDABLE_STATES, CacheState

__all__ = [
    "CacheLine", "SetAssocCache",
    "AmoBuffer", "DirectoryState", "DirEntry", "HomeNode",
    "Departure", "PrivateCacheHierarchy",
    "DECIDABLE_STATES", "CacheState",
]
