"""Benchmark-suite configuration.

Every benchmark regenerates one table or figure of the paper.  The
simulations behind them are expensive, so:

* all benchmarks share the on-disk result cache (``.repro_cache``), and
* each is run once per session via ``benchmark.pedantic(rounds=1)`` —
  the interesting output is the regenerated rows/series printed to the
  terminal (and the shape assertions), not sub-millisecond timing noise.

Point ``REPRO_CACHE_DIR`` at a fresh directory to force fresh
simulations, and set ``REPRO_JOBS=N`` to fan cache misses out over N
worker processes (the session executor picks it up automatically; a
cold cache benefits enormously).
"""

import pytest

from repro.harness.executor import Executor


@pytest.fixture(scope="session")
def executor():
    """Shared caching executor for the whole benchmark session.

    Honors ``$REPRO_JOBS`` for parallel cache-miss execution.
    """
    return Executor()


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return it."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
