"""Dynamic-energy model (paper Section VI-E methodology, McPAT-style).

The paper estimates dynamic energy with McPAT 1.3 at 22 nm / 0.8 V and
finds that (i) energy reductions track performance improvements, and
(ii) NoC energy follows message counts.  We reproduce that with a
per-event energy model: every counter the machine collects is multiplied
by a per-event cost whose *ratios* follow published McPAT/CACTI numbers
for comparable structures (an L1 access is tens of pJ, an LLC slice access
several times that, DRAM an order of magnitude more, NoC energy
proportional to flit-hops).  Absolute joules are not meaningful — relative
comparisons across policies are, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.events import Sink
from repro.sim.results import MachineStats, SimulationResult


@dataclass(frozen=True)
class EnergyParams:
    """Per-event dynamic energy costs in nanojoules."""

    l1_access: float = 0.02
    l2_access: float = 0.08
    llc_access: float = 0.25
    directory_access: float = 0.05
    amo_buffer_access: float = 0.005
    alu_op: float = 0.003
    amt_access: float = 0.002
    noc_per_flit_hop: float = 0.012
    dram_access: float = 2.0
    #: static-ish per-cycle core overhead folded into dynamic accounting;
    #: ties total energy to execution time as McPAT's clock tree does.
    core_per_kilocycle: float = 0.5


DEFAULT_ENERGY = EnergyParams()


def energy_breakdown(result: SimulationResult,
                     params: EnergyParams = DEFAULT_ENERGY,
                     num_cores: int = 1) -> Dict[str, float]:
    """Compute the dynamic-energy breakdown for a finished run.

    Returns nJ by component: ``core``, ``cache``, ``noc``, ``dram``.
    """
    s: MachineStats = result.stats
    cache = (
        (s.l1_hits + s.l1_misses) * params.l1_access
        + s.l2_hits * params.l2_access
        + (s.llc_hits + s.llc_misses) * params.llc_access
        + (s.read_shared + s.read_unique + s.upgrades + s.far_amos)
        * params.directory_access
        + s.amo_buffer_hits * params.amo_buffer_access
        + s.total_amos * params.alu_op
        + (result.near_decisions + result.far_decisions) * params.amt_access
    )
    noc = result.traffic.flit_hops * params.noc_per_flit_hop
    dram = (s.dram_reads + s.dram_writes) * params.dram_access
    core = result.cycles / 1000.0 * params.core_per_kilocycle * num_cores
    return {"core": core, "cache": cache, "noc": noc, "dram": dram}


def attach_energy(result: SimulationResult, num_cores: int,
                  params: EnergyParams = DEFAULT_ENERGY) -> SimulationResult:
    """Fill ``result.energy`` in place and return the result."""
    result.energy = energy_breakdown(result, params, num_cores)
    return result


class EnergySink(Sink):
    """Stock instrumentation-bus sink attaching the energy breakdown.

    Energy is a pure function of the event *counts* the bus's fused
    stats and traffic stores already aggregate, so this sink needs no
    per-event dispatch (``wants_events = False``) — it derives the
    breakdown once at ``finalize`` time, exactly as the runner used to
    by calling :func:`attach_energy` after the simulation.
    """

    wants_events = False

    def __init__(self, num_cores: int,
                 params: EnergyParams = DEFAULT_ENERGY) -> None:
        self.num_cores = num_cores
        self.params = params

    def finalize(self, result: SimulationResult) -> None:
        attach_energy(result, self.num_cores, self.params)
