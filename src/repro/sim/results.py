"""Simulation statistics and results.

:class:`MachineStats` is the mutable counter block the machine updates on
the hot path; :class:`SimulationResult` is the immutable summary a run
returns, with the derived metrics the paper reports (execution cycles,
AMOs-per-kilo-instruction, near/far mix, average AMO latency, dynamic
energy breakdown).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.noc.message import TrafficMeter


class MachineStats:
    """Event counters updated by the machine while executing operations."""

    # Class-level annotations mirror __slots__ so type checkers see the
    # counters the __init__ loop creates dynamically.
    reads: int
    writes: int
    amo_loads: int
    amo_stores: int
    near_amos: int
    far_amos: int
    far_amo_loads: int
    far_amo_stores: int
    near_amo_unique_hits: int
    l1_hits: int
    l1_misses: int
    l2_hits: int
    llc_hits: int
    llc_misses: int
    dram_reads: int
    dram_writes: int
    snoops: int
    invalidations: int
    downgrades: int
    l1_evictions: int
    l2_evictions: int
    llc_evictions: int
    upgrades: int
    read_shared: int
    read_unique: int
    amo_latency_sum: int
    amo_buffer_hits: int
    store_buffer_stalls: int

    __slots__ = (
        "reads", "writes", "amo_loads", "amo_stores",
        "near_amos", "far_amos", "far_amo_loads", "far_amo_stores",
        "near_amo_unique_hits",
        "l1_hits", "l1_misses", "l2_hits",
        "llc_hits", "llc_misses", "dram_reads", "dram_writes",
        "snoops", "invalidations", "downgrades",
        "l1_evictions", "l2_evictions", "llc_evictions",
        "upgrades", "read_shared", "read_unique",
        "amo_latency_sum", "amo_buffer_hits",
        "store_buffer_stalls",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def total_amos(self) -> int:
        return self.near_amos + self.far_amos

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "MachineStats":
        """Rebuild a counter block from :meth:`as_dict` output.

        The field set must match exactly: a counter added or removed
        since the dict was produced means the data describes a different
        model, and silently resurrecting it would corrupt comparisons.

        Raises:
            ValueError: on unknown or missing counter names.
        """
        unknown = set(data) - set(cls.__slots__)
        if unknown:
            raise ValueError(
                f"unknown MachineStats fields: {sorted(unknown)}")
        missing = set(cls.__slots__) - set(data)
        if missing:
            raise ValueError(
                f"missing MachineStats fields: {sorted(missing)}")
        stats = cls()
        for name, value in data.items():
            setattr(stats, name, value)
        return stats


@dataclass
class SimulationResult:
    """Outcome of running one workload under one policy on one machine."""

    policy: str
    cycles: int
    per_core_finish: List[int]
    instructions: int
    amos_committed: int
    stats: MachineStats
    traffic: TrafficMeter
    #: placement decisions made by the policy (excludes Unique fast path).
    near_decisions: int = 0
    far_decisions: int = 0
    energy: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def apki(self) -> float:
        """Committed AMOs per kilo-instruction (paper Fig. 6 metric)."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.amos_committed / self.instructions

    @property
    def avg_amo_latency(self) -> float:
        total = self.stats.total_amos
        if total == 0:
            return 0.0
        return self.stats.amo_latency_sum / total

    @property
    def total_energy(self) -> float:
        return sum(self.energy.values())

    def throughput_per_kilocycle(self, updates: int) -> float:
        """Updates per 1000 cycles — the Fig. 1 throughput metric, with the
        caller saying how many shared-variable updates the workload did."""
        if self.cycles == 0:
            return 0.0
        return 1000.0 * updates / self.cycles

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Execution-time speed-up of this run relative to ``baseline``.

        Raises:
            ValueError: when either run reports zero cycles — a
                zero-cycle run never executed, so the ratio is
                meaningless in both directions.
        """
        if self.cycles == 0:
            raise ValueError("run completed in zero cycles")
        if baseline.cycles == 0:
            raise ValueError("baseline completed in zero cycles")
        return baseline.cycles / self.cycles

    def summary(self) -> str:
        s = self.stats
        return (
            f"policy={self.policy} cycles={self.cycles} "
            f"instrs={self.instructions} apki={self.apki:.2f} "
            f"amos={s.total_amos} (near={s.near_amos} far={s.far_amos}) "
            f"decisions=(near={self.near_decisions} "
            f"far={self.far_decisions}) "
            f"avg_amo_lat={self.avg_amo_latency:.1f} "
            f"energy={self.total_energy:.1f}nJ"
        )
