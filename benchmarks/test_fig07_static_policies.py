"""Benchmark: regenerate paper Figure 7 (static AMO policies)."""

from conftest import run_once

from repro.harness.figures import figure7


def test_fig07_static_policies(benchmark, executor):
    grid = run_once(benchmark, figure7, executor)
    print("\n" + grid.render())

    gm = grid.geomeans

    # Paper shape 1: Present Near is the best single static policy
    # overall and its gains grow with AMO intensity
    # (paper: 1.05x LMH, 1.09x MH, 1.19x H).
    for other in ("unique-near", "dirty-near", "shared-far"):
        assert gm["present-near"]["LMH"] >= gm[other]["LMH"], other
    assert gm["present-near"]["LMH"] > 1.0
    assert gm["present-near"]["H"] > gm["present-near"]["MH"] \
        > gm["present-near"]["LMH"]

    # Paper shape 2: Shared Far is the weakest policy (slowdowns on
    # average — it gives up the frequent SharedClean reuse).
    assert gm["shared-far"]["LMH"] < 1.0
    assert gm["shared-far"]["LMH"] == min(
        gm[p]["LMH"] for p in grid.policies if p != "best-static")

    # Paper shape 3: Dirty Near and Unique Near differ only on the rare
    # SharedDirty state, so their results are nearly identical.
    for agg in ("LMH", "MH", "H"):
        assert abs(gm["dirty-near"][agg] - gm["unique-near"][agg]) < 0.03

    # Paper shape 4: the far-friendly kernels show the big static wins
    # (paper: SPMV 1.62x, RSOR 1.26x, HIST 2.29x for Present Near).
    assert grid.speedups["HIST"]["present-near"] > 1.5
    assert grid.speedups["SPMV"]["present-near"] > 1.3
    assert grid.speedups["RSOR"]["present-near"] > 1.2

    # Paper shape 5: SPT (the Fig. 3(b) reuse-burst pattern) punishes
    # Unique Near.
    assert grid.speedups["SPT"]["unique-near"] < 0.9

    # Paper shape 6: Best Static dominates every individual policy.
    for agg in ("LMH", "MH", "H"):
        assert gm["best-static"][agg] >= max(
            gm[p][agg] for p in grid.policies if p != "best-static")
    # Paper values: Best Static 1.10x LMH / 1.16x MH / 1.35x H.
    assert 1.0 < gm["best-static"]["LMH"] < 1.3
    assert 1.1 < gm["best-static"]["H"] < 1.7
