"""Benchmark: regenerate paper Figure 9 (input sensitivity)."""

from conftest import run_once

from repro.harness.figures import figure9


def test_fig09_input_sensitivity(benchmark, executor):
    data = run_once(benchmark, figure9, executor)
    print("\n" + data.render())

    un = dict(zip(data.xs, data.series["unique-near"]))
    dyn = dict(zip(data.xs, data.series["dynamo-reuse-pn"]))

    # Paper shape 1: Unique Near wins on the streaming inputs...
    assert un["SPMV/JP"] > 1.3
    assert un["HIST/IMG"] > 1.3
    # ... and loses (HIST, paper: -40%) or at best ties (SPMV) on the
    # locality inputs.
    assert un["HIST/BMP24"] < 0.8
    assert un["SPMV/rma10"] < un["SPMV/JP"] / 1.5

    # Paper shape 2: DynAMO-Reuse-PN adapts — it keeps most of the
    # streaming win and never loses on the locality inputs.
    assert dyn["SPMV/JP"] > 1.2
    assert dyn["HIST/IMG"] > 1.2
    assert dyn["SPMV/rma10"] > 0.95
    assert dyn["HIST/BMP24"] > 0.95

    # The adaptation gap: DynAMO beats Unique Near exactly where the
    # static choice backfires.
    assert dyn["HIST/BMP24"] > un["HIST/BMP24"] + 0.3
