"""Determinism contracts: one spec, one result — however it is executed.

The golden corpus pins behaviour *across revisions*; these tests pin it
*within* a revision: the same seeded spec must produce an identical
``SimulationResult`` when re-run in-process, when fanned out through
``ParallelExecutor`` worker processes, when it shares a simulation with
the decision-equivalent policies of its group in a sweep, and when run
in two separate fresh interpreters (which catches accidental dependence
on dict order, ``id()``, ``hash()`` randomization, or module import
order).
"""

import json
import os
import subprocess
import sys

from repro.core.registry import DYNAMO_POLICY_NAMES, STATIC_POLICY_NAMES
from repro.harness.executor import (ParallelExecutor, ResultStore,
                                    SerialExecutor, execute_spec, make_spec,
                                    serialize_result)

SPEC_ARGS = dict(threads=4, scale=0.25, seed=0)

_SUBPROCESS_SCRIPT = """\
import json, sys
from repro.harness.executor import execute_spec, make_spec, serialize_result
spec = make_spec(sys.argv[1], sys.argv[2], threads=int(sys.argv[3]),
                 scale=float(sys.argv[4]), seed=int(sys.argv[5]))
print(json.dumps(serialize_result(execute_spec(spec)), sort_keys=True))
"""


def _canonical(result):
    return json.dumps(serialize_result(result), sort_keys=True)


def test_rerun_in_process_is_identical():
    spec = make_spec("COUNTER", "dynamo-reuse-pn", **SPEC_ARGS)
    assert _canonical(execute_spec(spec)) == _canonical(execute_spec(spec))


def test_serial_vs_parallel_executor_identical():
    """--jobs 1 and the process-pool executor agree bit for bit."""
    specs = [make_spec("COUNTER", "all-near", **SPEC_ARGS),
             make_spec("HIST", "dynamo-reuse-pn", **SPEC_ARGS),
             make_spec("SPMV", "present-near", **SPEC_ARGS)]
    serial = SerialExecutor(ResultStore(enabled=False)).run_many(specs)
    parallel = ParallelExecutor(
        jobs=2, store=ResultStore(enabled=False)).run_many(specs)
    for spec, a, b in zip(specs, serial, parallel):
        assert _canonical(a) == _canonical(b), (
            f"{spec.workload}/{spec.policy} differs between serial and "
            f"parallel execution")


def test_grouped_sweep_matches_single_cells():
    """A batch over all 8 policies of one workload, where some policies
    share a simulation, equals per-cell ``execute_spec`` bit for bit."""
    specs = [make_spec("HIST", policy, **SPEC_ARGS)
             for policy in STATIC_POLICY_NAMES + DYNAMO_POLICY_NAMES]
    assert len(specs) == 8
    grouped = SerialExecutor(ResultStore(enabled=False)).run_many(specs)
    for spec, result in zip(specs, grouped):
        assert _canonical(result) == _canonical(execute_spec(spec)), (
            f"{spec.workload}/{spec.policy} differs between its grouped "
            f"and its single-cell run")


def _run_in_fresh_interpreter(workload, policy):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT, workload, policy,
         str(SPEC_ARGS["threads"]), str(SPEC_ARGS["scale"]),
         str(SPEC_ARGS["seed"])],
        capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def test_two_fresh_processes_identical():
    """Two cold interpreters (fresh hash seeds, fresh imports) agree.

    Each subprocess gets its own PYTHONHASHSEED, so any reliance on
    set/dict iteration order of hash-randomized types or on ``id()``
    values would diverge here even when in-process reruns agree.
    """
    first = _run_in_fresh_interpreter("HIST", "dynamo-reuse-pn")
    second = _run_in_fresh_interpreter("HIST", "dynamo-reuse-pn")
    assert first == second
    # And both match this (long-running, differently-seeded) process.
    spec = make_spec("HIST", "dynamo-reuse-pn", **SPEC_ARGS)
    assert first == _canonical(execute_spec(spec))
