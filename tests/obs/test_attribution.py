"""Cycle-blame attribution tests.

The load-bearing invariants:

* **zero cost / timing neutrality** — stamps are a second, separate
  bus gate: plain event sinks (TraceSink, golden digest sinks) must not
  enable them, and enabling them must not move a single cycle relative
  to the committed golden digests;
* **exact decomposition** — every retired op's gate breakdown sums to
  exactly its core-gating latency (zero unexplained residual);
* **critical path** — the walk covers the whole run (coverage ~1.0) and
  provably routes through a seeded contended lock;
* **payload shapes** — ``repro why`` / ``repro diff`` JSON validates
  against the checked-in schemas CI also uses.
"""

import hashlib
import io
import json
import os

import pytest

from repro.frontend import isa
from repro.frontend.program import GeneratorProgram
from repro.harness.executor import execute_spec, make_spec
from repro.obs.attribution import (AuditSink, BlameSink,
                                   extract_critical_path)
from repro.obs.attribution.report import (diff_payload, diff_specs,
                                          render_diff, render_why,
                                          why_payload, why_spec)
from repro.obs.attribution.schema import validate
from repro.obs.perfetto import load_jsonl
from repro.sim.config import TINY_CONFIG
from repro.sim.engine import run
from repro.sim.events import (CollectorSink, Event, EventBus, EventKind,
                              Sink, TraceSink)
from repro.sim.machine import Machine
from repro.sync.mutex import PthreadMutex

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "schemas")


def _load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


class _StampCollector(CollectorSink):
    wants_stamps = True


def _small_spec(policy, workload="HIST"):
    return make_spec(workload, policy, threads=4, scale=0.25,
                     config=TINY_CONFIG)


# --- zero cost when unsubscribed --------------------------------------


class TestStampGate:
    def test_stamps_off_by_default(self):
        assert EventBus().stamps is False

    def test_plain_event_sinks_do_not_enable_stamps(self):
        """TraceSink / CollectorSink make the bus active, not stamped."""
        bus = EventBus()
        bus.subscribe(TraceSink(io.StringIO()))
        bus.subscribe(CollectorSink())
        assert bus.active is True
        assert bus.stamps is False

    def test_stamp_sinks_enable_both_gates(self):
        bus = EventBus()
        sink = bus.subscribe(BlameSink())
        assert bus.active is True and bus.stamps is True
        bus.unsubscribe(sink)
        assert bus.active is False and bus.stamps is False

    def test_unstamped_run_emits_no_stamp_events(self):
        spec = _small_spec("all-near")
        collector = CollectorSink()
        execute_spec(spec, extra_sinks=(collector,))
        kinds = {ev.kind for ev in collector.events}
        assert EventKind.OP_RETIRE not in kinds
        assert EventKind.SYNC not in kinds

    def test_opted_in_tracesink_requests_stamps(self):
        bus = EventBus()
        bus.subscribe(TraceSink(io.StringIO(), stamps=True))
        assert bus.stamps is True


# --- timing neutrality vs the committed golden corpus -----------------


class TestTimingNeutrality:
    #: Cheapest golden cells (by committed trace_events).
    CELLS = (("WAT", "present-near"), ("OCE", "present-near"),
             ("WAT", "dynamo-reuse-pn"))
    #: sha256 of each cell's ``TraceSink(stamps=True)`` JSONL stream.
    STAMPED_STREAM_SHA256 = {
        "WAT/present-near":
            "6debe017106d3518ded066e13a823128c161d2e1999c7341b9b7deb68407c184",
        "OCE/present-near":
            "3eb5a6b49b8bc37736660a3eb940ba1b241bfd704913c20400a319c192b7d994",
        "WAT/dynamo-reuse-pn":
            "13bc4502572da67c926a02f311ac4a20d82acdf3968dfb1d33c02bc89f9f50b1",
    }

    @pytest.fixture(scope="class")
    def digests(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "golden", "digests.json")
        with open(path) as fh:
            return json.load(fh)

    @pytest.mark.parametrize("workload,policy", CELLS)
    def test_stamped_run_matches_golden_plain_fields(self, digests,
                                                     workload, policy):
        """Attribution sinks must not move a single cycle."""
        grid = digests["grid"]
        spec = make_spec(workload, policy, threads=grid["threads"],
                         scale=grid["scale"], seed=grid["seed"])
        result = why_spec(spec)  # BlameSink + AuditSink attached
        cell = digests["cells"][f"{workload}/{policy}"]
        assert result.cycles == cell["cycles"]
        assert result.instructions == cell["instructions"]
        assert result.amos_committed == cell["amos"]
        assert result.stats.near_amos == cell["near_amos"]
        assert result.stats.far_amos == cell["far_amos"]

    @pytest.mark.parametrize("workload,policy", CELLS)
    def test_stamped_trace_stream_is_pinned(self, digests, workload, policy):
        """The stamped event stream itself is pinned, not just its sums.

        Shifting cycles between blame categories (say ``hn_line`` into
        ``hn_busy``) keeps every breakdown summing to its latency; only
        a hash of the full stream notices.
        """
        grid = digests["grid"]
        spec = make_spec(workload, policy, threads=grid["threads"],
                         scale=grid["scale"], seed=grid["seed"])
        buf = io.StringIO()
        stamped = execute_spec(spec,
                               extra_sinks=(TraceSink(buf, stamps=True),))
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == self.STAMPED_STREAM_SHA256[f"{workload}/{policy}"]
        plain = execute_spec(spec)
        assert stamped.stats.as_dict() == plain.stats.as_dict()
        assert stamped.traffic.by_type() == plain.traffic.by_type()
        assert stamped.traffic.flit_hops == plain.traffic.flit_hops


# --- exact decomposition ----------------------------------------------


class TestDecomposition:
    @pytest.fixture(scope="class", params=["all-near", "dynamo-reuse-pn"])
    def stamped_run(self, request):
        spec = _small_spec(request.param)
        collector = _StampCollector()
        result = execute_spec(spec, extra_sinks=(collector,))
        return result, collector

    def test_gate_breakdown_sums_to_latency(self, stamped_run):
        _result, collector = stamped_run
        retires = collector.by_kind(EventKind.OP_RETIRE)
        assert retires
        for ev in retires:
            info = ev.info
            assert sum(info["bd"].values()) == info["lat"], info

    def test_no_unexplained_residual(self, stamped_run):
        """The 'other' bucket stays empty: every cycle has a name."""
        _result, collector = stamped_run
        other = sum(ev.info["bd"].get("other", 0)
                    for ev in collector.by_kind(EventKind.OP_RETIRE))
        assert other == 0

    def test_decided_amos_carry_audit_snapshots(self, stamped_run):
        _result, collector = stamped_run
        amos = (collector.by_kind(EventKind.AMO_NEAR)
                + collector.by_kind(EventKind.AMO_FAR))
        decided = [ev for ev in amos if ev.info.get("decided")]
        assert decided
        assert all("amt" in ev.info for ev in decided)


# --- TraceSink round-trip of stamp fields -----------------------------


class TestStampedTraceRoundTrip:
    def test_jsonl_preserves_breakdowns_and_markers(self):
        buf = io.StringIO()
        spec = _small_spec("dynamo-reuse-pn")
        execute_spec(spec, extra_sinks=(TraceSink(buf, stamps=True),))
        records = load_jsonl(io.StringIO(buf.getvalue()))
        retires = [r for r in records if r["kind"] == "op-retire"]
        syncs = [r for r in records if r["kind"] == "sync"]
        assert retires and syncs
        for r in retires:
            assert isinstance(r["lat"], int)
            assert isinstance(r["bd"], dict)
            assert sum(r["bd"].values()) == r["lat"]
            assert r["op"] in ("READ", "WRITE", "AMO_LOAD", "AMO_STORE")
        for r in syncs:
            assert isinstance(r["addr"], int)
            assert r["what"] in ("lock-begin", "lock-acquired",
                                 "lock-release", "barrier-begin",
                                 "barrier-release", "barrier-end")


# --- critical path ----------------------------------------------------


class TestCriticalPath:
    def test_seeded_contention_routes_through_the_lock(self):
        """A long critical section under one mutex must dominate the
        path: the walk has to cross the lock's handoff edges."""
        machine = Machine(TINY_CONFIG, "all-near")
        mutex = PthreadMutex(0x10000)
        shared = 0x20000

        def body(tid):
            for _ in range(8):
                yield from mutex.acquire(tid)
                value = yield isa.read(shared)
                yield isa.think(400)  # long, serialized critical section
                yield isa.write(shared, (value or 0) + 1)
                yield from mutex.release(tid)

        blame = BlameSink()
        machine.bus.subscribe(blame)
        result = run(machine, [GeneratorProgram(body) for _ in range(4)],
                     max_cycles=10_000_000)
        machine.bus.finalize(result)
        path = result.metadata["blame"]["critical_path"]
        lock_key = f"{mutex.lock_addr:#x}"
        assert lock_key in path["locks"], path["locks"]
        assert path["blame"].get("lock_wait", 0) > 0
        # Handoff hops: the walk visits more than the final core.
        wait_segments = [s for s in path["segments"]
                         if s["kind"] == "lock"]
        assert wait_segments
        assert any(s["from_core"] != s["core"] for s in wait_segments)
        # With 4 threads x 8 rounds x ~400-cycle serialized sections,
        # the other threads' sections show up as lock_wait + compute.
        assert path["coverage"] == pytest.approx(1.0, abs=0.02)

    def test_coverage_is_total_on_real_workloads(self):
        for policy in ("all-near", "dynamo-reuse-pn"):
            result = why_spec(_small_spec(policy))
            path = result.metadata["blame"]["critical_path"]
            assert sum(path["blame"].values()) == result.cycles
            assert path["coverage"] == pytest.approx(1.0, abs=1e-4)

    def test_empty_inputs(self):
        path = extract_critical_path({}, {}, [])
        assert path["end_core"] == -1 and path["blame"] == {}
        path = extract_critical_path({0: []}, {0: []}, [10])
        assert path["blame"] == {"compute": 10}


# --- why/diff payloads and schemas ------------------------------------


class TestPayloads:
    @pytest.fixture(scope="class")
    def hist_diff(self):
        spec_a = _small_spec("all-near")
        spec_b = _small_spec("dynamo-reuse-pn")
        result_a, result_b = diff_specs(spec_a, spec_b)
        return spec_a, result_a, spec_b, result_b

    def test_why_payload_validates(self, hist_diff):
        spec_a, result_a, _spec_b, _result_b = hist_diff
        payload = why_payload(result_a, spec_a)
        assert validate(payload, _load_schema("why.schema.json")) == []
        json.dumps(payload)  # JSON-serializable end to end

    def test_diff_payload_validates(self, hist_diff):
        spec_a, result_a, spec_b, result_b = hist_diff
        payload = diff_payload(result_a, spec_a, result_b, spec_b)
        assert validate(payload, _load_schema("diff.schema.json")) == []
        json.dumps(payload)

    def test_diff_attributes_the_cycle_delta(self, hist_diff):
        """Acceptance bar: >= 90% of the delta in named categories."""
        spec_a, result_a, spec_b, result_b = hist_diff
        payload = diff_payload(result_a, spec_a, result_b, spec_b)
        assert payload["delta_cycles"] != 0
        assert sum(payload["delta_blame"].values()) + payload["slack"] \
            == payload["delta_cycles"]
        assert payload["attributed_fraction"] >= 0.9

    def test_audit_reconciles_with_observed_speedup(self, hist_diff):
        """DynAMO's audit must estimate savings in the direction (and
        rough magnitude) of the measured per-AMO improvement."""
        _sa, result_a, _sb, result_b = hist_diff
        assert result_b.cycles < result_a.cycles  # HIST: dynamo wins
        audit = result_b.metadata["amt_audit"]
        assert audit["decided"] > 0
        assert audit["net_est_saved"] > 0

    def test_why_payload_carries_latencies_and_intervals(self, hist_diff):
        """On the stamped path the histograms see every executed AMO and
        the closing interval sample equals the end-of-run counters."""
        for spec, result in (hist_diff[:2], hist_diff[2:]):
            payload = why_payload(result, spec)
            stats = result.stats
            counts = {name: hist["count"]
                      for name, hist in payload["histograms"].items()}
            assert counts.get("amo_near", 0) == stats.near_amos
            assert counts.get("amo_far", 0) == stats.far_amos
            columns = payload["intervals"]["columns"]
            assert columns["cycle"][-1] >= result.cycles
            assert columns["near_amos"][-1] == stats.near_amos
            assert columns["far_amos"][-1] == stats.far_amos
            assert columns["invalidations"][-1] == stats.invalidations
            blocks = payload["blame"]["top_blocks"]
            assert sum(row["invalidations"] for row in blocks) \
                <= stats.invalidations

    def test_renderers_cover_the_payloads(self, hist_diff):
        spec_a, result_a, spec_b, result_b = hist_diff
        why_text = render_why(result_a, spec_a)
        assert "critical path" in why_text
        assert "AMT decision audit" in why_text
        assert "AMO-buffer hits: " in why_text
        assert "-- latency histograms" in why_text
        assert "-- interval time-series" in why_text
        diff_text = render_diff(
            diff_payload(result_a, spec_a, result_b, spec_b))
        assert "delta" in diff_text
        assert "diverging cache lines" in diff_text


class TestSchemaValidator:
    def test_accepts_and_rejects(self):
        schema = {"type": "object", "required": ["a"],
                  "additionalProperties": False,
                  "properties": {"a": {"type": "integer", "minimum": 0}}}
        assert validate({"a": 3}, schema) == []
        assert validate({"a": -1}, schema)  # minimum
        assert validate({"a": True}, schema)  # bool is not a JSON integer
        assert validate({}, schema)  # required
        assert validate({"a": 1, "b": 2}, schema)  # additionalProperties
        assert validate(3, schema)  # type

    def test_arrays_enums_and_patterns(self):
        schema = {"type": "array", "minItems": 1,
                  "items": {"enum": ["x", "y"]}}
        assert validate(["x", "y"], schema) == []
        assert validate([], schema)
        assert validate(["z"], schema)
        schema = {"type": "object",
                  "patternProperties": {"^0x": {"type": "integer"}},
                  "additionalProperties": False}
        assert validate({"0x40": 1}, schema) == []
        assert validate({"oops": 1}, schema)

    def test_type_lists_and_const(self):
        schema = {"type": ["string", "null"]}
        assert validate(None, schema) == []
        assert validate("s", schema) == []
        assert validate(1, schema)
        assert validate(2, {"const": 1})
        assert validate(1, {"const": 1}) == []


class TestBlameSinkInvalidations:
    def test_counts_invalidations_per_block(self):
        sink = BlameSink()
        for core in (0, 1, 2):
            sink.on_event(Event(EventKind.INVALIDATION, 5, core, 0x100))
        sink.on_event(Event(EventKind.INVALIDATION, 6, 0, 0x200))
        sink.on_event(Event(EventKind.SNOOP, 7, 0, 0x100))
        assert sink.invalidations == {0x100: 3, 0x200: 1}

    def test_top_blocks_carry_invalidations(self):
        result = why_spec(_small_spec("all-near"))
        rows = result.metadata["blame"]["top_blocks"]
        assert rows
        assert any(row["invalidations"] for row in rows)
        cycles = [row["cycles"] for row in rows]
        assert cycles == sorted(cycles, reverse=True)  # still by cycles


class TestAuditSink:
    def test_static_policy_groups_as_static(self):
        result = why_spec(_small_spec("all-near"))
        audit = result.metadata["amt_audit"]
        assert set(audit["groups"]) <= {"near/static", "far/static"}

    def test_dynamo_groups_split_by_amt_state(self):
        result = why_spec(_small_spec("dynamo-reuse-pn"))
        audit = result.metadata["amt_audit"]
        assert any(key.endswith(("amt-miss", "amt-hit", "amt-hit-zero"))
                   for key in audit["groups"])
        total = sum(row["count"] for row in audit["groups"].values())
        assert total == audit["decided"]


def test_zero_cost_marker_ops():
    """MARK ops are architecturally invisible: zero cycles, zero
    instructions, no memory traffic (also pinned by the golden corpus)."""
    op = isa.mark(isa.MARK_LOCK_BEGIN, 0x1000)
    assert op.cycles == 0 and op.instructions == 0


class _FinalizeProbe(Sink):
    wants_events = False

    def __init__(self):
        self.finalized = False

    def finalize(self, result):
        self.finalized = True


def test_finalize_only_sinks_still_skip_dispatch():
    bus = EventBus()
    bus.subscribe(_FinalizeProbe())
    assert bus.active is False and bus.stamps is False


# --- pinned why/diff documents ----------------------------------------


class TestPinnedReports:
    """The existing ``why``/``diff`` content, pinned at t8 x0.5.

    Hashes cover the ``why`` JSON restricted to its original keys (with
    the per-block ``invalidations`` column stripped), the ``diff`` text
    against all-near, and the ``why`` text up to the hottest-lines
    table.  New sections may be added around them; these may not move.
    """

    WHY_KEYS = ("schema", "spec", "cycles", "instructions", "amos",
                "blame", "amt_audit")
    #: cell -> (why JSON, diff text, why text prefix) sha256.
    PINS = {
        "HIST/dynamo-reuse-pn": (
            "7f2dcb5b5bce92d673960df29847dfefefcc7c5c330c42bc91809df36f41cf94",
            "6707458e55b55957d3ef2f9cc92e9a476a46341cd437e299fdda7425c4c4b414",
            "fd219bf4b1d817576f8975b24d6c206a8a2259c14cd68b9a6bd0e68064202164",
        ),
        "WAT/present-near": (
            "952c6cba192e56ab7244e283f0aa5ce2b729b40ab040fa92977f8a30099686d0",
            "8ab52ec19eb495f27930ea5bc7000c50b65b796148b513f625e5185e773d978c",
            "561a6edb79e0dd227755a0acf0803f1740b083eb13687df0cb76463d0b49be63",
        ),
    }

    @staticmethod
    def _sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.fixture(scope="class", params=sorted(PINS))
    def explained(self, request):
        workload, policy = request.param.split("/")
        spec = make_spec(workload, policy, threads=8, scale=0.5)
        base = make_spec(workload, "all-near", threads=8, scale=0.5)
        result, base_result = why_spec(spec), why_spec(base)
        return request.param, spec, result, base, base_result

    def test_why_json_is_pinned(self, explained):
        cell, spec, result, _base, _base_result = explained
        payload = why_payload(result, spec)
        kept = {key: payload[key] for key in self.WHY_KEYS}
        kept["blame"] = dict(kept["blame"], top_blocks=[
            {k: v for k, v in row.items() if k != "invalidations"}
            for row in kept["blame"]["top_blocks"]])
        text = json.dumps(kept, sort_keys=True)
        assert self._sha(text) == self.PINS[cell][0]

    def test_diff_text_is_pinned(self, explained):
        cell, spec, result, base, base_result = explained
        text = render_diff(diff_payload(base_result, base, result, spec))
        assert self._sha(text) == self.PINS[cell][1]

    def test_why_text_prefix_is_pinned(self, explained):
        cell, spec, result, _base, _base_result = explained
        text = render_why(result, spec)
        prefix = text[:text.index("-- hottest cache lines")]
        assert self._sha(prefix) == self.PINS[cell][2]
