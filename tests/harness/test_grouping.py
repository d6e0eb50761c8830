"""Shadow policies: a policy group costs one simulation per distinct
decision sequence, and every cell's result is its own run's, bit for bit.

A shadow policy decides beside the leader of a group (``Machine(...,
shadows=...)``) and is dropped the first time it answers differently;
:func:`~repro.harness.executor.iter_group` hands every surviving
shadow the leader's result with only ``policy`` replaced.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import registry
from repro.core.policy import AmoPolicy, Placement
from repro.core.static_policies import all_near
from repro.harness import executor as ex
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.events import EventBus, TraceSink
from repro.sim.machine import Machine

ARGS = dict(threads=4, scale=0.1, seed=0)


def _canonical(result):
    return json.dumps(ex.serialize_result(result), sort_keys=True)


def _without_policy(result):
    data = ex.serialize_result(result)
    data.pop("policy")
    return json.dumps(data, sort_keys=True)


def _group(specs):
    """:func:`iter_group`'s results in the order of ``specs``."""
    results = [None] * len(specs)
    for i, result in ex.iter_group(specs):
        results[i] = result
    return results


@pytest.fixture
def simulations(monkeypatch):
    """Counts ``execute_spec`` calls (real simulations) in this process,
    by the leader's policy."""
    calls = []
    real = ex.execute_spec

    def counting(spec, *args, **kwargs):
        calls.append(spec.policy)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(ex, "execute_spec", counting)
    return calls


class LateFar(AmoPolicy):
    """All Near, except that this core's ``k``-th decision is FAR."""

    name = "test-late-far"

    def __init__(self, k):
        self.k = k
        self.decisions = 0

    def decide(self, block, state, now):
        self.decisions += 1
        return Placement.FAR if self.decisions == self.k else Placement.NEAR


def _register(monkeypatch, name, factory):
    monkeypatch.setitem(registry.POLICIES, name, factory)


def test_diverging_shadow_is_dropped_and_rerun(monkeypatch, simulations):
    base = ex.make_spec("COUNTER", "all-near", **ARGS)
    near = ex.execute_spec(base)
    # About the per-core average, so the late decision is reached on at
    # least one core and comes after most of the run.
    k = near.near_decisions // ARGS["threads"]
    assert k > 10
    _register(monkeypatch, "test-late-far", lambda config: LateFar(k))
    late = ex.make_spec("COUNTER", "test-late-far", **ARGS)
    alone = ex.execute_spec(late)
    assert alone.far_decisions >= 1

    del simulations[:]
    grouped = _group([base, late])
    assert simulations == ["all-near", "test-late-far"]
    assert _canonical(grouped[0]) == _canonical(near)
    assert _canonical(grouped[1]) == _canonical(alone)
    assert _without_policy(grouped[1]) != _without_policy(grouped[0])


def test_renamed_copy_merges_into_one_simulation(monkeypatch, simulations):
    def renamed(config):
        policy = all_near()
        policy.name = "test-all-near-copy"
        return policy

    _register(monkeypatch, "test-all-near-copy", renamed)
    specs = [ex.make_spec("HIST", pol, **ARGS)
             for pol in ("all-near", "test-all-near-copy")]
    grouped = _group(specs)
    assert simulations == ["all-near"]
    assert [r.policy for r in grouped] == ["all-near", "test-all-near-copy"]
    assert _without_policy(grouped[0]) == _without_policy(grouped[1])
    assert _canonical(grouped[1]) == _canonical(ex.execute_spec(specs[1]))
    # Fresh objects: mutating one cell's result leaves the other alone.
    grouped[1].metadata["mark"] = 1
    grouped[1].per_core_finish[0] += 1
    assert "mark" not in grouped[0].metadata
    assert grouped[0].per_core_finish != grouped[1].per_core_finish


def test_machine_shadows_need_a_quiet_bus(tmp_path):
    bus = EventBus()
    bus.subscribe(TraceSink(str(tmp_path / "t.jsonl")))
    with pytest.raises(ValueError, match="quiet bus"):
        Machine(DEFAULT_CONFIG, "all-near", bus=bus,
                shadows=("present-near",))
    bus.close()


def test_group_rejects_specs_differing_beyond_policy():
    specs = [ex.make_spec("HIST", "all-near", **ARGS),
             ex.make_spec("SPMV", "present-near", **ARGS)]
    with pytest.raises(ValueError, match="more than their policy"):
        _group(specs)


def test_swapped_policies_rebind_the_hooks():
    """Assigning ``Machine.policies`` re-derives the hook lists."""
    machine = Machine(DEFAULT_CONFIG, "all-near")
    swapped = [registry.make_policy("dynamo-metric", DEFAULT_CONFIG)
               for _ in range(DEFAULT_CONFIG.num_cores)]
    machine.policies = swapped
    assert machine._near_hooks[0] == [swapped[0].on_near_amo]
    assert machine._depart_hooks[0] == [swapped[0].on_block_departure]


# --- executors: dedup by cache key, group by spec-minus-policy -----------

@pytest.mark.parametrize("enabled", [False, True], ids=["disabled", "store"])
def test_serial_batch_simulates_duplicates_once(tmp_path, monkeypatch,
                                                capsys, simulations,
                                                enabled):
    monkeypatch.setenv("REPRO_PROGRESS", "1")
    store = ex.ResultStore(str(tmp_path), enabled=enabled)
    spec = ex.make_spec("HIST", "all-near", **ARGS)
    results = ex.SerialExecutor(store).run_many([spec, spec])
    assert simulations == ["all-near"]
    assert results[0] is results[1]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("[1/1] HIST/all-near")


def test_serial_batch_groups_by_spec_minus_policy(tmp_path, simulations):
    """Two workloads' cells interleaved in one batch form two groups;
    merged cells come back in batch order and reach the store."""
    policies = registry.STATIC_POLICY_NAMES + registry.DYNAMO_POLICY_NAMES
    specs = [ex.make_spec(code, pol, **ARGS)
             for pol in policies for code in ("HIST", "COUNTER")]
    store = ex.ResultStore(str(tmp_path))
    results = ex.SerialExecutor(store).run_many(specs)
    assert len(simulations) < len(specs), "no cell merged"
    reread = ex.ResultStore(str(tmp_path))
    for spec, result in zip(specs, results):
        assert (result.policy, result.metadata["workload"]) == \
            (spec.policy, spec.workload)
        assert _canonical(reread.load(spec)) == _canonical(result)


def test_parallel_batch_splits_a_lone_group_over_the_workers(monkeypatch,
                                                            simulations):
    """Fewer groups than jobs: each group is split into strided parts,
    one task per worker, and every cell still equals its own run."""
    tasks = []
    real = ex._execute_group_serialized

    def recording(specs):
        tasks.append([spec.policy for spec in specs])
        return real(specs)

    monkeypatch.setattr(ex, "ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(ex, "_execute_group_serialized", recording)
    policies = registry.STATIC_POLICY_NAMES + registry.DYNAMO_POLICY_NAMES
    specs = [ex.make_spec("HIST", pol, **ARGS) for pol in policies]
    store = ex.ResultStore(enabled=False)
    results = ex.ParallelExecutor(2, store).run_many(specs)
    assert sorted(tasks) == sorted([list(policies[0::2]),
                                    list(policies[1::2])])
    for spec, result in zip(specs, results):
        assert _canonical(result) == _canonical(ex.execute_spec(spec))
