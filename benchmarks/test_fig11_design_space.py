"""Benchmark: regenerate paper Figure 11 (system design-space sweep)."""

from conftest import run_once

from repro.harness.figures import figure11


def test_fig11_design_space(benchmark, executor):
    data = run_once(benchmark, figure11, executor)
    print("\n" + data.render())

    systems = data.xs
    h_series = dict(zip(systems, data.series["geomean-H"]))

    # Paper shape 1: gains on the AMO-intensive set grow with NoC hop
    # cost (ping-ponging costs more, so avoiding it is worth more).
    assert h_series["NoC-3c"] > h_series["NoC-1c"]

    # Paper shape 2: DynAMO's benefit is insensitive to main-memory
    # latency: halving or doubling HBM latency moves the H geomean by
    # far less than the NoC sweep does.
    mem_spread = abs(h_series["Half-Lat"] - h_series["Double-Lat"])
    noc_spread = abs(h_series["NoC-3c"] - h_series["NoC-1c"])
    assert mem_spread < max(0.05, noc_spread)

    # All systems keep the speed-up above baseline on the H set.
    assert all(v > 1.0 for v in h_series.values())
