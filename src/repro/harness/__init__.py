"""Experiment harness: grid runner, figure/table drivers, reporting."""

from repro.harness.executor import RunSpec
from repro.harness.runner import (Runner, best_static_speedups,
                                  speedups_vs_baseline)
from repro.harness.report import (apki_classes, format_series, format_table,
                                  geomean, set_geomeans, set_members)

__all__ = [
    "Runner", "RunSpec", "best_static_speedups", "speedups_vs_baseline",
    "apki_classes", "format_series", "format_table", "geomean",
    "set_geomeans", "set_members",
]
