"""Experiment harness: cell executor, figure/table drivers, reporting."""

from repro.harness.executor import Executor, RunSpec
from repro.harness.report import (apki_classes, best_static_speedups,
                                  format_series, format_table, geomean,
                                  set_geomeans, set_members,
                                  speedups_vs_baseline)

__all__ = [
    "Executor", "RunSpec", "best_static_speedups", "speedups_vs_baseline",
    "apki_classes", "format_series", "format_table", "geomean",
    "set_geomeans", "set_members",
]
