"""Verdict rules of ``bench compare`` on synthetic runs."""

from bench.compare import render, verdict
from bench.metrics import Metric

WALL = Metric("wall_s", "s", "lower", 0.10)
RATE = Metric("ops_per_s", "1/s", "higher", 0.10)


def test_clear_gain_is_better():
    old = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    new = [v * 0.8 for v in old]
    assert verdict(WALL, old, new) == ("better", 1.0)
    assert verdict(RATE, new, old)[0] == "better"


def test_regression_beyond_the_bound_is_worse():
    old = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(WALL, old, [v * 1.2 for v in old])[0] == "worse"


def test_small_shift_within_spread_is_unchanged():
    old = [10.0, 10.2, 9.8, 10.1, 9.9]
    assert verdict(WALL, old, [v * 1.01 for v in old])[0] == "unchanged"
    assert verdict(WALL, old, [v * 0.99 for v in old])[0] == "unchanged"


def test_noisy_baseline_is_unresolved_unless_every_run_wins():
    old = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert verdict(WALL, old, [9.5, 10.5, 9.0, 11.0, 10.0])[0] == \
        "unresolved"
    assert verdict(WALL, old, [7.0, 7.5, 6.9, 7.2, 7.1])[0] == "better"


def test_render_pairs_workloads_and_layers():
    def rec(wall, trace=False):
        metrics = ({"sim.machine.read_ns": wall * 100} if trace
                   else {"wall_s": wall})
        return {"workload": "sweep-h", "trace": trace, "failed": 0,
                "metrics": metrics}

    text = render([rec(10.0), rec(10.1), rec(10.0, True)],
                  [rec(13.0), rec(13.1), rec(9.0, True)])
    assert "== sweep-h: 2 old runs, 2 new runs" in text
    assert "worse" in text
    assert "sim.machine.read_ns" in text and "-10.0%" in text
