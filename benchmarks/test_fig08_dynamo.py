"""Benchmark: regenerate paper Figure 8 (DynAMO predictors)."""

from conftest import run_once

from repro.harness.figures import figure8


def test_fig08_dynamo_predictors(benchmark, executor):
    grid = run_once(benchmark, figure8, executor)
    print("\n" + grid.render())

    gm = grid.geomeans
    pn = "dynamo-reuse-pn"
    un = "dynamo-reuse-un"

    # Paper shape 1: DynAMO-Reuse-PN never falls below the All Near
    # baseline on any workload (its conservative fallback guarantees it).
    for wl, by_policy in grid.speedups.items():
        assert by_policy[pn] >= 0.97, (wl, by_policy[pn])

    # Paper shape 2: DynAMO-Reuse gains grow with AMO intensity
    # (paper: Reuse-PN 1.09x LMH, 1.14x MH, 1.31x H).
    assert gm[pn]["H"] > gm[pn]["MH"] > gm[pn]["LMH"] > 1.0

    # Paper shape 3: Reuse-PN captures a large share of the Best Static
    # upper bound without any profiling.
    assert gm[pn]["LMH"] > 1.0 + 0.4 * (gm["best-static"]["LMH"] - 1.0)
    assert gm[pn]["H"] > 1.0 + 0.4 * (gm["best-static"]["H"] - 1.0)

    # Paper shape 4: the metric-based design is roughly neutral
    # ("performs equally well as the All Near baseline").
    assert 0.95 < gm["dynamo-metric"]["LMH"] < 1.05

    # Paper shape 5: both reuse flavours capture the streaming far wins.
    for wl in ("HIST", "SPMV", "RSOR"):
        assert grid.speedups[wl][pn] > 1.15, wl
        assert grid.speedups[wl][un] > 1.15, wl

    # Paper shape 6 (Section VI-C): on SPMV and HIST the predictors do
    # NOT match the best static policy.
    for wl in ("HIST", "SPMV"):
        assert grid.speedups[wl][pn] < grid.speedups[wl]["best-static"], wl

    # Paper shape 7: the reuse designs comfortably beat the metric one.
    assert gm[pn]["H"] > gm["dynamo-metric"]["H"] + 0.05
