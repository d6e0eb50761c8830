"""Property-based tests: coherence invariants and atomicity under fuzz.

Random multi-threaded programs are run under every placement policy; the
directory/cache invariants must hold at the end and shared counters must
equal the exact number of increments applied (atomicity/linearizability
of the AMO value model).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.invariants import check_swmr
from repro.core.registry import POLICIES
from repro.frontend import isa
from repro.frontend.program import GeneratorProgram
from repro.sim.config import TINY_CONFIG
from repro.sim.engine import run
from repro.sim.machine import Machine

ALL_POLICIES = sorted(POLICIES)


def random_program(seed, addrs, ops_count):
    def body(core):
        rng = random.Random(seed * 4099 + core)
        for _ in range(ops_count):
            addr = rng.choice(addrs)
            choice = rng.random()
            if choice < 0.35:
                yield isa.read(addr)
            elif choice < 0.55:
                yield isa.write(addr, rng.randrange(100))
            elif choice < 0.75:
                yield isa.stadd(addr, 1)
            elif choice < 0.9:
                yield isa.ldadd(addr, 1)
            else:
                yield isa.think(rng.randrange(1, 60))
    return GeneratorProgram(body)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000),
       policy=st.sampled_from(ALL_POLICIES),
       num_blocks=st.integers(1, 12))
def test_coherence_invariants_after_random_run(seed, policy, num_blocks):
    machine = Machine(TINY_CONFIG, policy)
    addrs = [0x4000 + i * 64 for i in range(num_blocks)]
    programs = [random_program(seed, addrs, 120)
                for _ in range(TINY_CONFIG.num_cores)]
    run(machine, programs, max_cycles=50_000_000)
    assert check_swmr(machine) == []


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), policy=st.sampled_from(ALL_POLICIES))
def test_counter_atomicity(seed, policy):
    """Sum of concurrent atomic increments is exact under every policy."""
    machine = Machine(TINY_CONFIG, policy)
    counter = 0x8000
    increments = 150

    def body(core):
        rng = random.Random(seed * 31 + core)
        for _ in range(increments):
            yield isa.think(rng.randrange(1, 30))
            if rng.random() < 0.5:
                yield isa.stadd(counter, 1)
            else:
                yield isa.ldadd(counter, 1)

    run(machine, [GeneratorProgram(body)
                  for _ in range(TINY_CONFIG.num_cores)])
    assert machine.read_value(counter) == increments * TINY_CONFIG.num_cores


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_policies_agree_on_final_memory_state(policy):
    """Placement changes timing, never architectural results: the same
    deterministic program must leave identical memory values under every
    policy."""
    def body(core):
        base = 0x2000 + core * 64
        for i in range(40):
            yield isa.stadd(base, i)
            yield isa.ldadd(0x9000, 1)
            yield isa.write(base + 8, i)

    machine = Machine(TINY_CONFIG, policy)
    run(machine, [GeneratorProgram(body)
                  for _ in range(TINY_CONFIG.num_cores)])
    assert machine.read_value(0x9000) == 40 * TINY_CONFIG.num_cores
    for core in range(TINY_CONFIG.num_cores):
        assert machine.read_value(0x2000 + core * 64) == sum(range(40))
        assert machine.read_value(0x2000 + core * 64 + 8) == 39


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_ldmin_converges_to_global_minimum(seed):
    machine = Machine(TINY_CONFIG, "dynamo-reuse-pn")
    target = 0x8000
    machine.poke_value(target, 10**9)
    rng = random.Random(seed)
    values = [[rng.randrange(1, 10**6) for _ in range(30)]
              for _ in range(TINY_CONFIG.num_cores)]

    def body(core):
        for v in values[core]:
            yield isa.stmin(target, v)

    run(machine, [GeneratorProgram(body)
                  for _ in range(TINY_CONFIG.num_cores)])
    assert machine.read_value(target) == min(min(vs) for vs in values)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), policy=st.sampled_from(ALL_POLICIES))
def test_time_never_flows_backwards(seed, policy):
    """Every operation completes at or after its issue time."""
    machine = Machine(TINY_CONFIG, policy)
    rng = random.Random(seed)
    addrs = [0x4000 + i * 64 for i in range(6)]
    now = 0
    for _ in range(200):
        core = rng.randrange(TINY_CONFIG.num_cores)
        addr = rng.choice(addrs)
        op = rng.choice([isa.read(addr), isa.write(addr, 1),
                         isa.stadd(addr, 1), isa.ldadd(addr, 1)])
        done, _ = machine.execute(core, op, now)
        assert done >= now
        now += rng.randrange(0, 40)
