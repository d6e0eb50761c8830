"""Benchmark: regenerate paper Figure 10 (AMT sizing sweep)."""

from conftest import run_once

from repro.harness.figures import FIG10_COUNTERS, FIG10_ENTRIES, figure10


def test_fig10_amt_sizing(benchmark, executor):
    data = run_once(benchmark, figure10, executor)
    print("\n" + data.render())

    values = dict(zip(data.xs, data.series["geomean-speedup"]))

    # Every configuration still beats the All Near baseline on the
    # AMO-intensive set.
    assert all(v > 1.0 for v in values.values())

    # Paper shape: the modest 128-entry, 4-way, 32-max configuration is
    # at (or within noise of) the best across each sweep dimension —
    # growing the structure does not help because stale entries then
    # outlive their program phase.
    best_entries = max(values[f"entries={e}"] for e in FIG10_ENTRIES)
    assert values["entries=128"] > best_entries - 0.05

    ways = {w: values[f"ways={w}"] for w in (1, 2, 4, 8)}
    assert ways[4] > max(ways.values()) - 0.05

    counters = {c: values[f"counter={c}"] for c in FIG10_COUNTERS}
    assert counters[32] > max(counters.values()) - 0.05
