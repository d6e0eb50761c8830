"""Self-time arithmetic, span records and overhead correction of the
tracer, on a synthetic call tree driven by a fake clock."""

import json

import pytest

from bench import tracer as T


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(T, "_clock", fake)
    return fake


def _tree(tracer, clock):
    """root: 1 + mid(2 + leaf(5) + 3) + leaf(5) + 1 = 17 ns."""

    def leaf():
        clock.advance(5)

    leaf = tracer.op(leaf, "leaf")

    def mid():
        clock.advance(2)
        leaf()
        clock.advance(3)

    mid = tracer.op(mid, "mid")

    def root():
        with tracer.region("root", "r1"):
            clock.advance(1)
            mid()
            leaf()
            clock.advance(1)

    return root


def test_self_time_arithmetic(clock):
    tracer = T.Tracer(calibrate=False)
    _tree(tracer, clock)()
    totals = tracer.totals()
    assert totals["leaf"] == [2, 10, 10]
    assert totals["mid"] == [1, 10, 5]
    assert totals["root"] == [1, 17, 2]
    own = sum(t[2] for t in totals.values())
    assert own == 17  # self times partition the root exactly


def test_wrapper_cost_is_taken_off_parents_and_callee(clock):
    tracer = T.Tracer(calibrate=False)
    tracer.inside_ns, tracer.outside_ns = 1.0, 2.0
    _tree(tracer, clock)()
    totals = tracer.totals()
    # Each boundary loses its own inside cost; a parent also loses each
    # direct child's outside cost; inclusive times drop every
    # descendant's whole wrapper cost.
    assert totals["leaf"] == [2, 10 - 2 * 1, 10 - 2 * 1]
    assert totals["mid"] == [1, 10 - 1 - 1 * 3, 10 - 1 - (5 + 2)]
    assert totals["root"] == [1, 17 - 1 - 3 * 3,
                              17 - 1 - (10 + 2) - (5 + 2)]


def test_spans_share_ids_and_name_their_parent(clock, tmp_path):
    tracer = T.Tracer(calibrate=False)
    inner = tracer.span(lambda: clock.advance(4), "inner")
    outer = tracer.span(lambda spec: (clock.advance(1), inner()), "outer",
                        lambda spec: f"cell-{spec}")
    outer(7)
    spans = tracer.spans()
    assert [(s["name"], s["id"], s["parent"]) for s in spans] == [
        ("outer", "cell-7", None), ("inner", "cell-7", "outer")]
    path = tmp_path / "t.json"
    tracer.write_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert [(e["name"], e["ph"], e["dur"]) for e in events] == [
        ("outer", "X", 0.005), ("inner", "X", 0.004)]


def test_exceptions_keep_the_stack_balanced(clock):
    tracer = T.Tracer(calibrate=False)

    def boom():
        clock.advance(3)
        raise StopIteration

    boom = tracer.op(boom, "boom")
    with tracer.region("root"):
        with pytest.raises(StopIteration):
            boom()
        clock.advance(2)
    totals = tracer.totals()
    assert totals["boom"] == [1, 3, 3]
    assert totals["root"] == [1, 5, 2]
    assert tracer._state().stack == []


def test_calibration_is_non_negative():
    tracer = T.Tracer()
    assert tracer.inside_ns >= 0 and tracer.outside_ns >= 0
    assert tracer.inside_ns + tracer.outside_ns < 20_000
