"""Benchmark: regenerate paper Figure 1 (near/far counter throughput)."""

from conftest import run_once

from repro.harness.figures import figure1


def test_fig01_shared_counter_throughput(benchmark, runner):
    data = run_once(benchmark, figure1, runner)
    print("\n" + data.render())

    near = data.series["Atomic-Near"]
    far_load = data.series["AtomicLoad-Far"]
    far_store = data.series["AtomicStore-Far"]

    # Paper shape 1: single-threaded, near achieves the highest
    # throughput (its updates hit the L1D).
    assert near[0] > far_store[0] > far_load[0]
    # Paper shape 2: near throughput degrades as threads contend.
    assert near[-1] < near[0] / 2
    # Paper shape 3: at high thread counts the trend reverses and
    # AtomicStore-Far sustains the highest throughput.
    assert far_store[-1] > near[-1]
    assert far_load[-1] > near[-1]
    # Paper shape 4: far AtomicStore throughput is roughly flat —
    # the home node centralizes and serializes the updates.
    assert far_store[-1] > 0.5 * max(far_store)
