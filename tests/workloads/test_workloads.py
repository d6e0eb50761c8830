"""Every Table III workload builds, runs, and lands in its APKI class.

These run at a reduced scale with few threads so the whole file stays
fast; the APKI class check runs at full scale on the default system in
the benchmark suite instead (Fig. 6).
"""

import pytest

from repro.coherence.invariants import check_swmr
from repro.frontend.isa import MemOp
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.engine import run
from repro.sim.machine import Machine
from repro.workloads import TABLE_III_CODES, make_workload
from repro.workloads.microbench import SharedCounter

SMALL_THREADS = 4
SMALL_SCALE = 0.2


def small_run(code, policy="all-near", **kwargs):
    wl = make_workload(code, SMALL_THREADS, scale=SMALL_SCALE, **kwargs)
    machine = Machine(DEFAULT_CONFIG.scaled(SMALL_THREADS), policy)
    for addr, value in wl.initial_values().items():
        machine.poke_value(addr, value)
    result = run(machine, wl.programs(), max_cycles=2_000_000_000)
    return wl, machine, result


@pytest.mark.parametrize("code", TABLE_III_CODES)
def test_workload_builds_and_programs_yield_memops(code):
    wl = make_workload(code, SMALL_THREADS, scale=SMALL_SCALE)
    programs = wl.programs()
    assert len(programs) == SMALL_THREADS
    gen = programs[0].run(0)
    op = gen.send(None)
    assert isinstance(op, MemOp)


@pytest.mark.parametrize("code", TABLE_III_CODES)
def test_workload_runs_to_completion_and_commits_amos(code):
    _wl, machine, result = small_run(code)
    assert result.cycles > 0
    assert result.amos_committed > 0
    assert result.instructions > 0
    assert check_swmr(machine) == []


@pytest.mark.parametrize("code", TABLE_III_CODES)
def test_workload_deterministic_per_seed(code):
    _w1, _m1, a = small_run(code)
    _w2, _m2, b = small_run(code)
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions


@pytest.mark.parametrize("code", TABLE_III_CODES)
def test_workload_runs_under_far_policy(code):
    """All workloads must be correct when every decidable AMO goes far."""
    _wl, machine, result = small_run(code, policy="unique-near")
    assert result.cycles > 0
    assert check_swmr(machine) == []


@pytest.mark.parametrize("code", TABLE_III_CODES)
def test_footprint_positive_and_scaled(code):
    small = make_workload(code, SMALL_THREADS, scale=0.2)
    assert small.amo_footprint_bytes > 0


def test_programs_are_fresh_generators_each_call():
    wl = make_workload("HIST", SMALL_THREADS, scale=SMALL_SCALE)
    first = wl.programs()
    second = wl.programs()
    assert first is not second
    # Both sets must run independently.
    machine = Machine(DEFAULT_CONFIG.scaled(SMALL_THREADS))
    run(machine, first, max_cycles=2_000_000_000)
    machine2 = Machine(DEFAULT_CONFIG.scaled(SMALL_THREADS))
    run(machine2, second, max_cycles=2_000_000_000)


class TestSharedCounter:
    def test_total_updates_accounting(self):
        wl = SharedCounter(4, use_store=True)
        assert wl.total_updates == wl.iterations * 4

    def test_counter_value_exact(self):
        wl = SharedCounter(4, use_store=True)
        machine = Machine(DEFAULT_CONFIG.scaled(4))
        run(machine, wl.programs())
        assert machine.read_value(wl.counter_addr) == wl.total_updates

    def test_load_flavour_uses_amo_loads(self):
        wl = SharedCounter(2, use_store=False)
        machine = Machine(DEFAULT_CONFIG.scaled(2))
        result = run(machine, wl.programs())
        assert result.stats.amo_loads == wl.total_updates
        assert result.stats.amo_stores == 0


class TestInputVariants:
    @pytest.mark.parametrize("code,inputs", [
        ("SPMV", ("JP", "rma10")), ("HIST", ("IMG", "NASA", "BMP24")),
    ])
    def test_variants_run(self, code, inputs):
        for inp in inputs:
            _wl, _m, result = small_run(code, input_name=inp)
            assert result.cycles > 0

    def test_variants_differ(self):
        _w1, _m1, jp = small_run("SPMV", input_name="JP")
        _w2, _m2, rma = small_run("SPMV", input_name="rma10")
        assert jp.cycles != rma.cycles
