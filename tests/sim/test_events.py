"""Instrumentation-bus tests: fast path, dispatch, tracing, invariants.

The bus must be invisible to timing (identical cycles with and without
event sinks), it must own the machine's hot-path counters (fused), and
the opt-in sinks (trace, sanitizer, collector) must see a stream that
reconciles exactly with the run's final statistics.
"""

import io
import json
import random

import pytest

from repro.frontend import isa
from repro.frontend.program import GeneratorProgram
from repro.sim.config import TINY_CONFIG
from repro.sim.engine import run
from repro.analysis.modelcheck.sanitize import SanitizerSink
from repro.energy.model import EnergySink
from repro.noc.message import TrafficMeter
from repro.sim.events import CollectorSink, EventBus, EventKind, TraceSink
from repro.sim.machine import Machine
from repro.sim.results import MachineStats
from repro.sync.mutex import PthreadMutex

BLOCKS = [0x8000 + i * 64 for i in range(8)]


def mixed_program(seed, ops=150):
    """Random reads/writes/AMOs over a small shared footprint."""
    def body(core):
        rng = random.Random(seed * 7919 + core)
        for _ in range(ops):
            addr = rng.choice(BLOCKS)
            roll = rng.random()
            if roll < 0.3:
                yield isa.read(addr)
            elif roll < 0.5:
                yield isa.write(addr, rng.randrange(64))
            elif roll < 0.75:
                yield isa.stadd(addr, 1)
            else:
                yield isa.ldadd(addr, 1)
    return GeneratorProgram(body)


def run_with_sinks(policy="all-near", sinks=(), seed=3):
    bus = EventBus()
    for sink in sinks:
        bus.subscribe(sink)
    machine = Machine(TINY_CONFIG, policy, bus=bus)
    programs = [mixed_program(seed) for _ in range(TINY_CONFIG.num_cores)]
    result = run(machine, programs, max_cycles=50_000_000)
    return machine, result


# --- bus mechanics ----------------------------------------------------


def test_stock_sinks_do_not_activate_dispatch():
    bus = EventBus()
    assert not bus.active
    bus.subscribe(EnergySink(TINY_CONFIG.num_cores))
    assert not bus.active, "finalize-only sinks must keep the fast path"
    collector = bus.subscribe(CollectorSink())
    assert bus.active
    bus.unsubscribe(collector)
    assert not bus.active


def test_machine_counters_are_fused_with_bus():
    machine = Machine(TINY_CONFIG, "all-near")
    assert machine.stats is machine.bus.stats
    assert machine.traffic is machine.bus.traffic
    assert isinstance(machine.bus.stats, MachineStats)
    assert isinstance(machine.bus.traffic, TrafficMeter)


def test_event_as_dict_flattens_info():
    ev = EventKind.AMO_NEAR
    from repro.sim.events import Event
    d = Event(ev, 7, 2, 0x40, info={"op": "STADD"}).as_dict()
    assert d == {"kind": "amo-near", "cycle": 7, "core": 2,
                 "block": 0x40, "op": "STADD"}


# --- timing neutrality ------------------------------------------------


@pytest.mark.parametrize("policy", ["all-near", "unique-near",
                                    "dynamo-reuse-pn"])
def test_event_sinks_do_not_perturb_timing(policy):
    """A fully instrumented run must execute the exact same simulation."""
    _, plain = run_with_sinks(policy)
    collector = CollectorSink()
    trace = TraceSink(io.StringIO())
    _, instrumented = run_with_sinks(policy, sinks=[collector, trace])
    assert instrumented.cycles == plain.cycles
    assert instrumented.per_core_finish == plain.per_core_finish
    assert instrumented.stats.as_dict() == plain.stats.as_dict()
    assert instrumented.traffic.by_type() == plain.traffic.by_type()
    assert collector.events, "instrumented run should have emitted events"


# --- event-stream contents -------------------------------------------


def test_amo_events_reconcile_with_stats():
    collector = CollectorSink()
    _, result = run_with_sinks("dynamo-reuse-pn", sinks=[collector])
    near = collector.by_kind(EventKind.AMO_NEAR)
    far = collector.by_kind(EventKind.AMO_FAR)
    assert len(near) == result.stats.near_amos
    assert len(far) == result.stats.far_amos
    # Events flagged as policy decisions match the decision counters
    # (the rest took the Unique fast path past the policy).
    assert sum(1 for ev in near if ev.info["decided"]) == \
        result.near_decisions
    assert sum(1 for ev in far if ev.info["decided"]) == \
        result.far_decisions


def test_message_events_reconcile_with_traffic_meter():
    collector = CollectorSink()
    _, result = run_with_sinks("unique-near", sinks=[collector])
    messages = collector.by_kind(EventKind.MESSAGE)
    assert sum(ev.info["count"] for ev in messages) == \
        result.traffic.total_messages()
    by_type = {}
    for ev in messages:
        by_type[ev.info["msg"]] = by_type.get(ev.info["msg"], 0) \
            + ev.info["count"]
    assert by_type == result.traffic.by_type()


def test_component_emitters_present():
    """Cache, directory and mesh events all appear on a contended run."""
    collector = CollectorSink()
    _, result = run_with_sinks("unique-near", sinks=[collector])
    kinds = {ev.kind for ev in collector.events}
    assert EventKind.LLC_ACCESS in kinds
    assert EventKind.MESSAGE in kinds
    assert EventKind.INVALIDATION in kinds
    assert EventKind.LINE_HANDOFF in kinds
    llc = collector.by_kind(EventKind.LLC_ACCESS)
    assert all(ev.block >= 0 for ev in llc)
    assert all(0 <= ev.info["slice"] < TINY_CONFIG.llc_slices
               for ev in llc)


def test_trace_sink_writes_parseable_jsonl():
    buf = io.StringIO()
    sink = TraceSink(buf)
    _, result = run_with_sinks("dynamo-reuse-pn", sinks=[sink])
    lines = buf.getvalue().splitlines()
    assert len(lines) == sink.events_written > 0
    near = far = near_decided = far_decided = 0
    for line in lines:
        record = json.loads(line)
        assert {"kind", "cycle", "core", "block"} <= set(record)
        if record["kind"] == "amo-near":
            near += 1
            near_decided += record["decided"]
        elif record["kind"] == "amo-far":
            far += 1
            far_decided += record["decided"]
    assert near == sink.near_events == result.stats.near_amos
    assert far == sink.far_events == result.stats.far_amos
    # AMO records flagged `decided` are the policy's placement calls and
    # reconcile exactly with the result's decision counters.
    assert near_decided == result.near_decisions
    assert far_decided == result.far_decisions


def test_trace_sink_owns_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = TraceSink(str(path))
    _, _result = run_with_sinks("all-near", sinks=[sink])
    sink.close()
    sink.close()  # idempotent
    lines = path.read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)


# --- invariant checking under contention ------------------------------


def lock_program(mutex, counter_addr, rounds):
    def body(core):
        for _ in range(rounds):
            yield from mutex.acquire(core)
            val = yield isa.read(counter_addr)
            yield isa.write(counter_addr, (val or 0) + 1)
            yield from mutex.release(core)
    return GeneratorProgram(body)


@pytest.mark.parametrize("policy", ["all-near", "shared-far",
                                    "dynamo-reuse-pn"])
def test_assertion_sink_contended_lock(policy):
    """Coherence invariants hold mid-run under a contended pthread mutex."""
    bus = EventBus()
    machine = Machine(TINY_CONFIG, policy, bus=bus)
    sink = bus.subscribe(SanitizerSink(full_check_every=1))
    mutex = PthreadMutex(0x10000)
    counter = 0x10040
    rounds = 10
    programs = [lock_program(mutex, counter, rounds)
                for _ in range(TINY_CONFIG.num_cores)]
    run(machine, programs, max_cycles=50_000_000)
    assert sink.checks > 0, "contended locking must exercise the checker"
    assert sink.sweeps == sink.checks
    assert machine.read_value(counter) == rounds * TINY_CONFIG.num_cores
