"""Per-arc pin: latency, messages and blame of every CHI arc on an idle machine.

Each arc is one (request x state) pair from
:mod:`repro.analysis.coherence_check`, built with that checker's own
helpers (``_install``, ``_op_for``, ``_policy_for``, ``_actor_for``) on a
fresh machine with a stamped bus.  Besides the L1 installs the checker
uses, every request also runs against the block installed in the
holder's L2 only (the L2-hit and L2-snoop paths).  Each arc issues its
op twice, at cycle 0 and again at cycle ``AGAIN``, so the second op sees
what the first left behind (an L1 hit, an AMO-buffer hit, an LLC copy).
For every op the pin compares:

* the completion latency,
* the cumulative ``traffic.by_type()`` and ``flit_hops``,
* the OP_RETIRE breakdowns ``bd`` and, where present, ``exec_bd`` /
  ``drain_bd``,

under ``TINY_CONFIG`` and ``DEFAULT_CONFIG``, each with
``direct_inval_acks`` False and True.

This is a *recorded characterization*: ``arc_pin.json`` holds what the
simulator itself produced when the table was written, not values derived
from Table II arithmetic.  It says which arc a change moved, by name; it
does not say whether the recorded value was right.  Regenerate it only
for a deliberate timing-model change::

    PYTHONPATH=src python -m tests.sim.test_arc_pin --update
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

import pytest

from repro.analysis.coherence_check import (ADDR, HOME, REQUESTS, STATES,
                                            _actor_for, _install, _op_for,
                                            _policy_for)
from repro.coherence.states import CacheState
from repro.sim.config import DEFAULT_CONFIG, TINY_CONFIG, SystemConfig
from repro.sim.events import CollectorSink, EventBus, EventKind
from repro.sim.machine import Machine

TABLE_PATH = os.path.join(os.path.dirname(__file__), "arc_pin.json")

#: Issue time of the repeated op: well after every first-op chain drains.
AGAIN = 10_000

CONFIGS: Dict[str, SystemConfig] = {
    "TINY_CONFIG": TINY_CONFIG,
    "DEFAULT_CONFIG": DEFAULT_CONFIG,
}

#: Where the prepared copy lives: the checker's L1 install, or the L2 only.
LEVELS = ("L1", "L2")


class _StampSink(CollectorSink):
    wants_stamps = True


def _arcs() -> List[Tuple[str, bool, str, str, CacheState]]:
    arcs = []
    for cfg_name in CONFIGS:
        for acks in (False, True):
            for level in LEVELS:
                for request in REQUESTS:
                    for state in STATES:
                        if level == "L2" and state is CacheState.I:
                            continue  # nothing to move into the L2
                        arcs.append((cfg_name, acks, level, request, state))
    return arcs


def arc_key(cfg_name: str, acks: bool, level: str, request: str,
            state: CacheState) -> str:
    return (f"{cfg_name} direct_inval_acks={acks} {request} x "
            f"{state.name} ({level})")


def run_arc(cfg_name: str, acks: bool, level: str, request: str,
            state: CacheState) -> List[Dict[str, object]]:
    """Run one arc's op twice; one record per op."""
    config = CONFIGS[cfg_name].replace(direct_inval_acks=acks)
    bus = EventBus()
    sink = bus.subscribe(_StampSink())
    machine = Machine(config, _policy_for(request), bus=bus)
    _install(machine, state)
    if level == "L2":
        priv = machine.privates[HOME]
        priv.l2.insert(priv.l1.remove(ADDR >> 6))
    actor = _actor_for(request)
    records = []
    for now in (0, AGAIN):
        done, _result = machine.execute(actor, _op_for(request), now)
        retire = sink.by_kind(EventKind.OP_RETIRE)[-1].info
        record: Dict[str, object] = {
            "lat": done - now,
            "by_type": machine.traffic.by_type(),
            "flit_hops": machine.traffic.flit_hops,
            "bd": retire["bd"],
        }
        for extra in ("exec_bd", "drain_bd"):
            if extra in retire:
                record[extra] = retire[extra]
        records.append(record)
    return records


def record_table() -> Dict[str, List[Dict[str, object]]]:
    return {arc_key(*arc): run_arc(*arc) for arc in _arcs()}


@pytest.fixture(scope="module")
def table():
    with open(TABLE_PATH) as fh:
        return json.load(fh)


def test_table_covers_every_arc(table):
    assert sorted(table) == sorted(arc_key(*arc) for arc in _arcs())


def _arc_id(arc) -> str:
    cfg_name, acks, level, request, state = arc
    return f"{cfg_name}-acks{int(acks)}-{level}-{request}-{state.name}"


@pytest.mark.parametrize("arc", _arcs(), ids=_arc_id)
def test_arc_matches_recorded_table(table, arc):
    got = run_arc(*arc)
    want = table[arc_key(*arc)]
    for which, (g, w) in zip(("first op", "repeated op"), zip(got, want)):
        assert g == w, f"{arc_key(*arc)}: {which} moved"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.sim.test_arc_pin --update")
    rows = sorted(record_table().items())
    with open(TABLE_PATH, "w") as fh:  # one arc per line: diffs name arcs
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(ops, sort_keys=True)}"
            for key, ops in rows) + "\n}\n")
