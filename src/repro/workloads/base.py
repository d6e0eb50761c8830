"""Workload framework: specs, address layout, registry, APKI classes.

Each workload reproduces the *synchronization structure* of one benchmark
from paper Table III — the same primitives (POSIX mutex, spinlock, direct
``ldadd``/``stadd``/``ldmin``/``stmin``/``cas``), the same qualitative
access/sharing pattern (reuse, turn-taking ping-pong, streaming/thrashing,
mixed working sets, multi-phase), and an AMO footprint in the same class
relative to the cache sizes.  See DESIGN.md for the substitution argument.

Workloads size themselves from a ``scale`` factor so the same definitions
drive quick tests and paper-scale runs.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.frontend.program import Program

#: APKI class boundaries from the paper (Fig. 6): Low < 2, Medium < 8.
LOW_APKI_BOUND = 2.0
HIGH_APKI_BOUND = 8.0


def check_scale(scale: float) -> float:
    """``scale`` if it is a usable size factor, else ValueError."""
    if not 0 < scale < math.inf:  # false for NaN too
        raise ValueError(
            f"scale must be positive and finite, got {scale!r}")
    return scale


def workload_code(raw: str) -> str:
    """Resolve a workload given as Table III code or human name.

    ``HIST``, ``hist`` and ``histogram`` all resolve to ``HIST``;
    anything else is a ValueError.
    """
    code = raw.strip().upper()
    if code in WORKLOADS:
        return code
    lowered = raw.strip().lower()
    for candidate, registered in WORKLOADS.items():
        if registered.spec.name.lower() == lowered:
            return candidate
    raise ValueError(f"unknown workload {raw!r} (try `repro list`)")


def classify_apki(apki: float) -> str:
    """Map an AMOs-per-kilo-instruction value to the paper's L/M/H sets."""
    if apki < LOW_APKI_BOUND:
        return "L"
    if apki < HIGH_APKI_BOUND:
        return "M"
    return "H"


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of one benchmark analogue (Table III row)."""

    code: str
    name: str
    suite: str
    input_name: str
    primitives: str
    #: APKI class the workload is designed to land in (validated by tests).
    intensity: str
    description: str
    #: alternative inputs accepted by the constructor (Fig. 9 sensitivity).
    inputs: tuple = ()


class AddressAllocator:
    """Bump allocator laying out a workload's shared/private data.

    Regions are cache-block aligned by default so distinct structures never
    share a block unless a workload deliberately co-locates fields (as the
    pthread mutex does).
    """

    def __init__(self, base: int = 0x10_0000) -> None:
        self._next = base

    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Reserve ``nbytes`` and return the region's base address."""
        if nbytes <= 0:
            raise ValueError("allocation must be positive")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        base = (self._next + align - 1) & ~(align - 1)
        self._next = base + nbytes
        return base

    def alloc_array(self, count: int, stride: int = 64) -> List[int]:
        """Reserve ``count`` elements ``stride`` bytes apart; returns bases."""
        base = self.alloc(count * stride)
        return [base + i * stride for i in range(count)]

    @property
    def bytes_used(self) -> int:
        return self._next - 0x10_0000


class Workload(ABC):
    """A runnable benchmark analogue.

    Subclasses populate :attr:`spec` (class attribute) and implement
    :meth:`programs`.  Constructors accept the thread count, a size scale
    and a seed; input-sensitive workloads also accept ``input_name``.
    """

    spec: WorkloadSpec

    def __init__(self, num_threads: int, scale: float = 1.0, seed: int = 0,
                 input_name: Optional[str] = None) -> None:
        if num_threads <= 0:
            raise ValueError("need at least one thread")
        check_scale(scale)
        self.num_threads = num_threads
        self.scale = scale
        self.seed = seed
        self.input_name = input_name or self.spec.input_name
        if self.spec.inputs and self.input_name not in self.spec.inputs:
            raise ValueError(
                f"{self.spec.code}: unknown input {self.input_name!r}; "
                f"expected one of {self.spec.inputs}")
        self.layout = AddressAllocator()

    @abstractmethod
    def programs(self) -> List[Program]:
        """Build the per-thread programs (fresh generators every call)."""

    def initial_values(self) -> Dict[int, int]:
        """Memory contents to install before the run starts."""
        return {}

    @property
    def amo_footprint_bytes(self) -> int:
        """Bytes of memory touched by AMOs (Table III column)."""
        return self.layout.bytes_used

    def scaled(self, value: float, minimum: int = 1) -> int:
        """``value * scale`` rounded and floored at ``minimum``."""
        return max(minimum, int(round(value * self.scale)))


WorkloadFactory = Callable[..., Workload]

#: code -> workload class, populated by the @register decorator.
WORKLOADS: Dict[str, WorkloadFactory] = {}


def register(cls):
    """Class decorator adding a workload to the registry by its code."""
    code = cls.spec.code
    if code in WORKLOADS:
        raise ValueError(f"duplicate workload code {code!r}")
    WORKLOADS[code] = cls
    return cls


def make_workload(code: str, num_threads: int, scale: float = 1.0,
                  seed: int = 0, input_name: Optional[str] = None) -> Workload:
    """Instantiate a registered workload by its Table III code."""
    try:
        factory = WORKLOADS[code]
    except KeyError:
        raise KeyError(
            f"unknown workload {code!r}; available: {sorted(WORKLOADS)}"
        ) from None
    return factory(num_threads, scale=scale, seed=seed, input_name=input_name)


def all_codes() -> List[str]:
    """All registered workload codes in registration (Table III) order."""
    return list(WORKLOADS)


def codes_by_intensity(intensity: str) -> List[str]:
    """Workload codes whose designed APKI class matches ``intensity``."""
    return [code for code, cls in WORKLOADS.items()
            if cls.spec.intensity == intensity]
