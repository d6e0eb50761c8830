"""IntervalSink tests: sampling mechanics and timing-neutrality.

The contract pinned here is the tentpole guarantee: attaching the
observability sinks must leave the simulation's timing and every
statistic bit-identical — they only *read* state.
"""

import random

import pytest

from repro.frontend import isa
from repro.frontend.program import GeneratorProgram
from repro.obs.attribution import AuditSink, BlameSink
from repro.obs.histogram import HistogramSink
from repro.obs.timeseries import (DEFAULT_INTERVAL, IntervalSink, deltas,
                                  intervals_from_metadata)
from repro.sim.config import TINY_CONFIG
from repro.sim.engine import run
from repro.sim.events import EventBus
from repro.sim.machine import Machine

BLOCKS = [0x9000 + i * 64 for i in range(8)]


def mixed_program(seed, ops=150):
    def body(core):
        rng = random.Random(seed * 7919 + core)
        for _ in range(ops):
            addr = rng.choice(BLOCKS)
            roll = rng.random()
            if roll < 0.3:
                yield isa.read(addr)
            elif roll < 0.5:
                yield isa.write(addr, rng.randrange(64))
            else:
                yield isa.ldadd(addr, 1)
    return GeneratorProgram(body)


def run_tiny(policy="dynamo-reuse-pn", sinks=(), seed=11):
    bus = EventBus()
    for sink in sinks:
        bus.subscribe(sink)
    machine = Machine(TINY_CONFIG, policy, bus=bus)
    programs = [mixed_program(seed) for _ in range(TINY_CONFIG.num_cores)]
    result = run(machine, programs, max_cycles=50_000_000)
    return result


# --- construction -----------------------------------------------------


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        IntervalSink(0)
    with pytest.raises(ValueError):
        IntervalSink(-5)
    assert IntervalSink().interval == DEFAULT_INTERVAL


# --- sampling mechanics -----------------------------------------------


def test_sink_samples_columnar_series():
    sink = IntervalSink(interval=500)
    result = run_tiny(sinks=[sink])
    payload = intervals_from_metadata(result.metadata)
    assert payload is not None
    assert payload["interval"] == 500
    cols = payload["columns"]
    lengths = {name: len(vals) for name, vals in cols.items()}
    assert len(set(lengths.values())) == 1, f"ragged columns: {lengths}"
    cycles = cols["cycle"]
    assert len(cycles) >= 2
    assert cycles == sorted(cycles)
    assert len(set(cycles)) == len(cycles), "duplicate sample boundaries"
    # The closing sample covers the whole run.
    assert cycles[-1] >= result.cycles
    # Cumulative counters never decrease.
    for name in ("ops", "near_amos", "far_amos", "invalidations"):
        series = cols[name]
        assert series == sorted(series), name
    # The final sample agrees with the end-of-run stats.
    s = result.stats
    assert cols["ops"][-1] == (s.reads + s.writes + s.amo_loads
                               + s.amo_stores)
    assert cols["near_amos"][-1] == s.near_amos
    assert cols["far_amos"][-1] == s.far_amos
    assert cols["near_decisions"][-1] == result.near_decisions
    assert cols["far_decisions"][-1] == result.far_decisions


def test_amt_columns_track_the_predictor():
    sink = IntervalSink(interval=500)
    result = run_tiny(policy="dynamo-reuse-pn", sinks=[sink])
    cols = intervals_from_metadata(result.metadata)["columns"]
    assert any(v > 0 for v in cols["amt_entries"]), \
        "DynAMO runs must populate the AMT"
    for entries, confident in zip(cols["amt_entries"],
                                  cols["amt_confident"]):
        assert confident <= entries


def test_amt_columns_zero_without_a_table():
    sink = IntervalSink(interval=500)
    result = run_tiny(policy="all-near", sinks=[sink])
    cols = intervals_from_metadata(result.metadata)["columns"]
    assert not any(cols["amt_entries"])
    assert not any(cols["amt_confidence_sum"])


def test_intervals_from_metadata_missing_payload():
    assert intervals_from_metadata({}) is None
    assert intervals_from_metadata({"intervals": [1, 2]}) is None


def test_deltas():
    assert deltas([]) == []
    assert deltas([3, 10, 10, 14]) == [3, 7, 0, 4]


# --- timing neutrality (the tentpole contract) ------------------------


@pytest.mark.parametrize("policy", ["all-near", "dynamo-reuse-pn"])
def test_sinks_are_timing_neutral(policy):
    """Stats are bit-identical with ``repro why``'s full sink set attached.

    The attribution sinks put the machine on its stamped path, so this
    also checks that path against the plain one.
    """
    baseline = run_tiny(policy=policy, sinks=())
    observed = run_tiny(policy=policy, sinks=[
        BlameSink(), AuditSink(), HistogramSink(),
        IntervalSink(interval=500)])
    assert observed.cycles == baseline.cycles
    assert observed.per_core_finish == baseline.per_core_finish
    assert observed.stats.as_dict() == baseline.stats.as_dict()
    assert observed.traffic.by_type() == baseline.traffic.by_type()
    assert observed.traffic.flit_hops == baseline.traffic.flit_hops
    assert observed.near_decisions == baseline.near_decisions
    assert observed.far_decisions == baseline.far_decisions
    # ... while actually having observed something.
    assert "intervals" in observed.metadata
    assert "intervals" not in baseline.metadata
    assert {"blame", "amt_audit", "histograms"} <= set(observed.metadata)
