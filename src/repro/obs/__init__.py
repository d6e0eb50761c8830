"""Observability layer: opt-in event-bus sinks plus reporting surfaces.

Everything here consumes the :mod:`repro.sim.events` instrumentation bus
— nothing in this package runs unless explicitly attached, so the
default simulation path keeps its zero-dispatch guarantee:

* :mod:`repro.obs.histogram` — log2 latency histograms (AMO near/far,
  lock acquire, NoC queueing) with percentile estimation;
* :mod:`repro.obs.timeseries` — interval counter sampling (decision
  mix, invalidations, LLC/DRAM pressure, AMT confidence over time);
* :mod:`repro.obs.attribution` — the ``repro why`` / ``repro diff``
  reports: cycle blame, AMT decision audit, and the histograms and
  interval series above, from one instrumented run;
* :mod:`repro.obs.perfetto` — JSONL trace -> Chrome trace-event
  conversion for Perfetto / ``chrome://tracing``;
* :mod:`repro.obs.bench` — the ``repro bench`` wall-time trajectory
  harness (``BENCH_history.json``).
"""

from repro.obs.histogram import (HistogramSink, Log2Histogram,
                                 histograms_from_metadata)
from repro.obs.perfetto import TraceFormatError, convert_events, convert_file
from repro.obs.timeseries import (IntervalSink, deltas,
                                  intervals_from_metadata)

__all__ = [
    "HistogramSink", "IntervalSink", "Log2Histogram", "TraceFormatError",
    "convert_events", "convert_file", "deltas", "histograms_from_metadata",
    "intervals_from_metadata",
]
