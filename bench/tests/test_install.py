"""Installing the tracer into the real program: digests unchanged,
clean uninstall, and a vanished wrap target degrades to a warning."""

import importlib

from bench.common import result_digest
from bench.metrics import layer_metrics
from bench.tracer import SERVE_TARGETS, SIM_TARGETS, Tracer
from repro.harness import executor as ex

#: The cheapest golden cell (a few ms).
SPEC = ex.make_spec("WAT", "present-near", threads=8, scale=0.5)


def _snapshot(targets):
    """Identity of every wrap target, and of each override below it."""
    out = {}
    for module, path, _name, _how in targets:
        owner = importlib.import_module(module)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        todo = [owner]
        while todo:
            cls = todo.pop()
            if isinstance(cls, type):
                todo.extend(cls.__subclasses__())
                value = vars(cls).get(parts[-1])
            else:
                value = getattr(cls, parts[-1])
            out[(id(cls), parts[-1])] = value
    return out


def _run():
    return result_digest(ex.serialize_result(ex.execute_spec(SPEC)))


def test_traced_cell_is_bit_identical_and_uninstalls_cleanly():
    before = _snapshot(SIM_TARGETS + SERVE_TARGETS)
    plain = _run()
    tracer = Tracer()
    tracer.install(SIM_TARGETS)
    try:
        with tracer.region("pass", "pass"):
            traced = _run()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.missing == []
    assert _snapshot(SIM_TARGETS + SERVE_TARGETS) == before
    totals = tracer.totals()
    for name in ("cell", "build", "machine_init", "simulate", "gen",
                 "machine.read", "machine.amo", "coherence",
                 "policy.decide", "policy.hook", "mem"):
        assert totals[name][0] > 0, name
    assert _run() == plain  # and nothing is left behind


def test_missing_target_warns_and_drops_its_metrics(capsys):
    tracer = Tracer()
    tracer.install([("repro.mem.hbm", "HbmMemory.no_such_method", "mem",
                     "op"),
                    ("repro.no_such_module", "f", "parse", "span")])
    tracer.uninstall()
    assert sorted(tracer.missing) == ["mem", "parse"]
    assert "cannot wrap repro.mem.hbm.HbmMemory.no_such_method" in \
        capsys.readouterr().err
    totals = {"pass": [1, 100.0, 10.0], "coherence": [5, 90.0, 90.0]}
    metrics = layer_metrics(totals, tracer.missing, serve=False,
                            overhead=1.5)
    assert "mem.self_frac" not in metrics
    assert "mem.access_calls" not in metrics
    assert "service.parse_ms" not in metrics
    assert metrics["coherence.self_frac"] == 0.9
    assert metrics["trace.coverage"] == 0.9
