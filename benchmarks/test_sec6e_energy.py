"""Benchmark: regenerate the Section VI-E dynamic-energy study."""

from conftest import run_once

from repro.harness.figures import energy_study


def test_sec6e_energy(benchmark, executor):
    data = run_once(benchmark, energy_study, executor)
    print("\n" + data.render())

    pn_total = dict(zip(data.xs, data.series["dynamo-reuse-pn/total"]))
    pn_noc = dict(zip(data.xs, data.series["dynamo-reuse-pn/noc"]))

    # Paper shape 1: energy reductions correlate with performance —
    # largest on the High-APKI set (paper: -4%/-6%/-12% for L/M/H).
    assert pn_total["H"] < pn_total["L"]
    assert pn_total["H"] < 1.0

    # Paper shape 2: the Low set is roughly energy-neutral.
    assert 0.9 < pn_total["L"] < 1.05

    # Paper shape 3: on the High set, the NoC component does NOT shrink
    # as much as total energy (far AMOs add NoC messages; the paper even
    # sees NoC energy rise on SPMV/HIST while total energy drops).
    assert pn_noc["H"] > pn_total["H"] - 0.05
