"""Experiment runner: execute (workload, policy, config) cells with caching.

Every figure in the paper is a grid of simulations over workloads and
policies.  The runner plans one :class:`~repro.harness.executor.RunSpec`
per cell and delegates execution to the executor layer, which memoizes
results on disk (keyed by every input that affects the outcome) so that
e.g. the Fig. 8 benchmark reuses the All Near baselines that Fig. 7
already simulated.  Pass ``jobs`` (or set ``$REPRO_JOBS``) to fan sweeps
out over worker processes: forkserver children of the harness's one
process pool (:class:`~repro.harness.executor.ProcessCompute`), which
exit with this process and rerun a dead worker's tasks once.

Long sweeps report progress: when stderr is a TTY the executor prints a
``[k/n] workload/policy (t.ts)`` line per simulated cell (cache hits are
silent); ``REPRO_PROGRESS=1`` / ``=0`` force it on / off.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence

from repro.harness.executor import (ResultStore, RunSpec, make_executor,
                                    make_spec)
from repro.sim.config import DEFAULT_CONFIG, SystemConfig
from repro.sim.results import SimulationResult

__all__ = ["Runner", "speedups_vs_baseline", "best_static_speedups"]


class Runner:
    """Executes simulation cells with an optional on-disk result cache."""

    def __init__(self, config: SystemConfig = DEFAULT_CONFIG,
                 cache_dir: Optional[str] = None,
                 use_cache: bool = True,
                 jobs: Optional[int] = None) -> None:
        self.config = config
        self.use_cache = use_cache and os.environ.get("REPRO_NO_CACHE") != "1"
        self.store = ResultStore(cache_dir, enabled=self.use_cache)
        self.cache_dir = self.store.cache_dir
        self._executor = make_executor(jobs, self.store)

    @property
    def jobs(self) -> int:
        return self._executor.jobs

    # --- planning -----------------------------------------------------

    def make_spec(self, workload: str, policy: str,
                  threads: Optional[int] = None, scale: float = 1.0,
                  seed: int = 0, input_name: Optional[str] = None,
                  config: Optional[SystemConfig] = None) -> RunSpec:
        """Plan one cell against this runner's (or an override) config."""
        return make_spec(workload, policy, threads=threads, scale=scale,
                         seed=seed, input_name=input_name,
                         config=config or self.config)

    # --- execution ----------------------------------------------------

    def run(self, workload: str, policy: str,
            threads: Optional[int] = None, scale: float = 1.0,
            seed: int = 0, input_name: Optional[str] = None,
            config: Optional[SystemConfig] = None) -> SimulationResult:
        """Run one cell (or return its cached result)."""
        spec = self.make_spec(workload, policy, threads=threads, scale=scale,
                              seed=seed, input_name=input_name, config=config)
        return self._executor.run(spec)

    def run_specs(self, specs: Sequence[RunSpec]) -> List[SimulationResult]:
        """Run a batch of planned cells (in parallel when ``jobs > 1``).

        Results come back in spec order; cached cells are served from
        the store without occupying a worker.
        """
        return self._executor.run_many(specs)

    def sweep(self, workloads: Iterable[str], policies: Iterable[str],
              **kwargs) -> Dict[str, Dict[str, SimulationResult]]:
        """Run a workload x policy grid; returns results[workload][policy]."""
        cells = [(wl, pol) for wl in workloads for pol in policies]
        specs = [self.make_spec(wl, pol, **kwargs) for wl, pol in cells]
        results = self.run_specs(specs)
        grid: Dict[str, Dict[str, SimulationResult]] = {}
        for (wl, pol), result in zip(cells, results):
            grid.setdefault(wl, {})[pol] = result
        return grid


def speedups_vs_baseline(grid: Dict[str, Dict[str, SimulationResult]],
                         baseline: str = "all-near") -> Dict[str, Dict[str, float]]:
    """Per-workload speed-ups of each policy over ``baseline``.

    Raises:
        ValueError: when a workload's row has no ``baseline`` entry —
            the grid was swept without the baseline policy.
    """
    out: Dict[str, Dict[str, float]] = {}
    for wl, by_policy in grid.items():
        base = by_policy.get(baseline)
        if base is None:
            raise ValueError(
                f"workload {wl!r} has no {baseline!r} result to normalize "
                f"against (policies present: {sorted(by_policy)})")
        out[wl] = {pol: res.speedup_over(base) if pol != baseline else 1.0
                   for pol, res in by_policy.items()}
    return out


def best_static_speedups(static_speedups: Dict[str, Dict[str, float]]
                         ) -> Dict[str, float]:
    """Per-workload best static speed-up (the paper's Best Static bar)."""
    return {wl: max(by_policy.values())
            for wl, by_policy in static_speedups.items()}
