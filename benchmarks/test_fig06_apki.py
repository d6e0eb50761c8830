"""Benchmark: regenerate paper Figure 6 (APKI characterization)."""

from conftest import run_once

from repro.harness.figures import figure6
from repro.workloads import TABLE_III_CODES, WORKLOADS
from repro.workloads.base import classify_apki


def test_fig06_apki(benchmark, executor):
    data = run_once(benchmark, figure6, executor)
    print("\n" + data.render())

    apki = {wl: load + store for wl, load, store in
            zip(data.xs, data.series["AtomicLoad"], data.series["AtomicStore"])}

    # Every workload lands in the APKI class it was designed for.
    for code in TABLE_III_CODES:
        designed = WORKLOADS[code].spec.intensity
        measured = classify_apki(apki[code])
        assert measured == designed, (
            f"{code}: designed {designed}, measured {measured} "
            f"({apki[code]:.2f} APKI)")

    # All three sets are populated (the paper's L/M/H split).
    classes = {classify_apki(v) for v in apki.values()}
    assert classes == {"L", "M", "H"}

    # Direct-atomic kernels are store-dominated; mutex suites
    # (CAS/swap-based) are load-dominated.
    loads = dict(zip(data.xs, data.series["AtomicLoad"]))
    stores = dict(zip(data.xs, data.series["AtomicStore"]))
    for code in ("HIST", "SPMV", "SSSP"):
        assert stores[code] > loads[code], code
    for code in ("CC", "WAT", "SPT"):
        assert loads[code] > stores[code], code
