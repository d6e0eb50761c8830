"""Transactional family + microbench sweeps: build, run, invariants.

Covers the txn scenarios (KVS/BOOK/BANK/TXMIX) and the new microbench
sweep grids (AMOCOST/FSHARE) the same way the Table III suite is
covered — plus the family-specific contracts: exact commit accounting,
bank balance conservation, Zipf-input sensitivity, layout sensitivity,
and the APKI-class pin for *every* txn/micro workload (the drift catch
the Table III suite gets from the Fig. 6 benchmarks).
"""

import pytest

from repro.coherence.invariants import check_swmr
from repro.frontend.isa import MemOp
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.engine import run
from repro.sim.machine import Machine
from repro.workloads import (MICRO_SWEEP_CODES, TXN_CODES, WORKLOADS,
                             classify_apki, make_workload)
from repro.workloads.microbench import AMO_COST_INPUTS
from repro.workloads.txn import ZIPF_INPUTS, alpha_from_input

NEW_CODES = TXN_CODES + MICRO_SWEEP_CODES

SMALL_THREADS = 4
SMALL_SCALE = 0.2


def small_run(code, policy="all-near", threads=SMALL_THREADS,
              scale=SMALL_SCALE, **kwargs):
    wl = make_workload(code, threads, scale=scale, **kwargs)
    machine = Machine(DEFAULT_CONFIG.scaled(threads), policy)
    for addr, value in wl.initial_values().items():
        machine.poke_value(addr, value)
    result = run(machine, wl.programs(), max_cycles=2_000_000_000)
    return wl, machine, result


@pytest.mark.parametrize("code", NEW_CODES)
def test_builds_and_programs_yield_memops(code):
    wl = make_workload(code, SMALL_THREADS, scale=SMALL_SCALE)
    programs = wl.programs()
    assert len(programs) == SMALL_THREADS
    op = programs[0].run(0).send(None)
    assert isinstance(op, MemOp)


@pytest.mark.parametrize("code", NEW_CODES)
def test_runs_to_completion_and_commits_amos(code):
    _wl, machine, result = small_run(code)
    assert result.cycles > 0
    assert result.amos_committed > 0
    assert check_swmr(machine) == []


@pytest.mark.parametrize("code", NEW_CODES)
def test_deterministic_per_seed(code):
    _w1, _m1, a = small_run(code)
    _w2, _m2, b = small_run(code)
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions


@pytest.mark.parametrize("code", NEW_CODES)
def test_runs_under_far_policy(code):
    _wl, machine, result = small_run(code, policy="unique-near")
    assert result.cycles > 0
    assert check_swmr(machine) == []


@pytest.mark.parametrize("code", NEW_CODES)
def test_seeds_change_behaviour(code):
    if code == "FSHARE" or code == "AMOCOST":
        pytest.skip("sweep grids are seed-free by design")
    _w1, _m1, a = small_run(code)
    _w2, _m2, b = small_run(code, seed=7)
    assert (a.cycles, a.instructions) != (b.cycles, b.instructions)


class TestApkiClassPin:
    """Every txn/micro workload lands in its declared APKI class.

    Runs at default scale on the default system (8 threads), mirroring
    how Fig. 6 classifies the Table III suite; catches think-cycle or
    mix drift that would silently move a workload across the L/M/H
    boundaries the golden corpus and figures partition by.
    """

    TXN_MICRO = sorted(code for code, cls in WORKLOADS.items()
                       if cls.spec.suite in ("txn", "micro"))

    @pytest.mark.parametrize("code", TXN_MICRO)
    def test_declared_class_matches_measured(self, code):
        _wl, _machine, result = small_run(code, threads=8, scale=1.0)
        assert classify_apki(result.apki) == WORKLOADS[code].spec.intensity

    def test_family_spans_all_apki_classes(self):
        classes = {WORKLOADS[code].spec.intensity for code in TXN_CODES}
        assert classes == {"L", "M", "H"}


class TestKVStore:
    def test_commit_counter_exact(self):
        wl, machine, _result = small_run("KVS")
        assert machine.read_value(wl.runtime.commit_addr) == wl.total_txns

    def test_zipf_inputs_change_behaviour(self):
        _w1, _m1, flat = small_run("KVS", input_name="zipf-0.5")
        _w2, _m2, steep = small_run("KVS", input_name="zipf-1.4")
        assert flat.cycles != steep.cycles

    def test_all_zipf_inputs_run(self):
        for inp in ZIPF_INPUTS:
            _wl, _m, result = small_run("KVS", input_name=inp)
            assert result.cycles > 0

    def test_alpha_parsing(self):
        assert alpha_from_input("zipf-1.4") == 1.4
        with pytest.raises(ValueError):
            alpha_from_input("uniform")


class TestBank:
    def test_balance_sum_conserved(self):
        wl, machine, _result = small_run("BANK", policy="dynamo-reuse-pn")
        total = sum(machine.read_value(addr)
                    for addr in wl.runtime.object_addrs)
        assert total == wl.expected_total_balance

    def test_conserved_under_far_policy_too(self):
        wl, machine, _result = small_run("BANK", policy="unique-near")
        total = sum(machine.read_value(addr)
                    for addr in wl.runtime.object_addrs)
        assert total == wl.expected_total_balance

    def test_commit_counter_counts_transfers(self):
        wl, machine, _result = small_run("BANK")
        assert machine.read_value(wl.runtime.commit_addr) == \
            wl.total_transfers


class TestTxMix:
    def test_mix_inputs_change_behaviour(self):
        _w1, _m1, reads = small_run("TXMIX", input_name="read-heavy")
        _w2, _m2, writes = small_run("TXMIX", input_name="write-heavy")
        assert reads.cycles != writes.cycles

    def test_write_heavy_commits_exactly(self):
        wl, machine, _result = small_run("TXMIX", input_name="write-heavy")
        assert machine.read_value(wl.runtime.commit_addr) == wl.total_txns
        # Optimistic probing only charges retries when it observes a
        # taken lock; the counter must never go negative.
        assert machine.read_value(wl.runtime.retry_addr) >= 0


class TestAtomicCostSweep:
    @pytest.mark.parametrize("inp", AMO_COST_INPUTS)
    def test_grid_cell_runs(self, inp):
        wl, _machine, result = small_run("AMOCOST", input_name=inp)
        assert result.amos_committed == wl.total_updates

    def test_store_kind_uses_amo_stores(self):
        wl, _machine, result = small_run("AMOCOST", input_name="stadd-w1")
        assert result.stats.amo_stores == wl.total_updates
        assert result.stats.amo_loads == 0

    def test_cas_kind_uses_amo_loads(self):
        wl, _machine, result = small_run("AMOCOST", input_name="cas-w1")
        assert result.stats.amo_loads == wl.total_updates

    def test_sharing_degree_changes_cost(self):
        _w1, _m1, shared = small_run("AMOCOST", input_name="ldadd-w1")
        _w2, _m2, spread = small_run("AMOCOST", input_name="ldadd-w4")
        # Four words quarter the sharing degree: less ping-pong,
        # faster completion under the near policy.
        assert spread.cycles < shared.cycles


class TestFalseSharingSweep:
    def test_padded_beats_packed(self):
        _w1, _m1, packed = small_run("FSHARE", input_name="packed")
        _w2, _m2, padded = small_run("FSHARE", input_name="padded")
        # Same logical work: per-thread private counters.  Packing them
        # into common blocks creates pure false sharing, so the padded
        # layout must finish faster under the near policy.
        assert padded.cycles < packed.cycles

    def test_counters_exact_in_both_layouts(self):
        for inp in ("packed", "padded"):
            wl, machine, _result = small_run("FSHARE", input_name=inp)
            for addr in wl.counter_addrs:
                assert machine.read_value(addr) == wl.iterations
