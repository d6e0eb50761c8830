"""Service API contract tests: routes, validation, failure payloads.

Runs against a real in-process server (ephemeral port) with the fast
deterministic stub compute from ``conftest``.
"""

import json
import os

import pytest

from repro.obs.attribution.schema import validate

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "schemas", "serve.schema.json")

CELL = {"workload": "HIST", "policy": "all-near", "threads": 8,
        "scale": 0.5, "seed": 0}
OTHER = {"workload": "SPMV", "policy": "present-near", "threads": 8,
         "scale": 0.5, "seed": 0}


# --- liveness and routing ---------------------------------------------


def test_healthz(service):
    _server, client = service
    status, body = client.get("/v1/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["service"] == "repro-serve"
    assert body["uptime_s"] >= 0


def test_unknown_routes_404(service):
    _server, client = service
    assert client.get("/v1/nope")[0] == 404
    assert client.get("/totally/else")[0] == 404
    assert client.post("/v1/elsewhere", {})[0] == 404
    status, body = client.get("/v1/batch/j99999999")
    assert status == 404
    assert "no such job" in body["error"]


# --- request validation -----------------------------------------------


def test_malformed_json_is_400_not_500(service):
    _server, client = service
    status, body = client.post_raw("/v1/batch", b'{"cells": [')
    assert status == 400
    assert "not valid JSON" in body["error"]


def test_empty_body_is_400(service):
    _server, client = service
    status, body = client.post_raw("/v1/batch", b"")
    assert status == 400


def test_schema_violations_report_json_paths(service):
    _server, client = service
    status, body = client.post("/v1/batch", {"cells": "HIST"})
    assert status == 400
    assert any("$.cells" in e for e in body["errors"])

    status, body = client.post("/v1/batch", {"cells": [{"policy": "x"}]})
    assert status == 400
    assert any("$.cells[0]" in e and "workload" in e
               for e in body["errors"])

    status, body = client.post(
        "/v1/batch", {"cells": [dict(CELL, bogus_field=1)]})
    assert status == 400
    assert any("bogus_field" in e for e in body["errors"])

    status, body = client.post("/v1/batch", {"cells": []})
    assert status == 400, "empty batches rejected (minItems)"


def test_semantic_validation_names_the_cell(service):
    _server, client = service
    status, body = client.post(
        "/v1/batch",
        {"cells": [CELL, dict(CELL, workload="WARP_DRIVE")]})
    assert status == 400
    assert any(e.startswith("$.cells[1].workload") for e in body["errors"])

    status, body = client.post(
        "/v1/batch", {"cells": [dict(CELL, policy="magic")]})
    assert status == 400
    assert any("$.cells[0].policy" in e for e in body["errors"])

    status, body = client.post(
        "/v1/batch", {"cells": [dict(CELL, threads=10_000)]})
    assert status == 400
    assert any("$.cells[0]" in e and "cores" in e for e in body["errors"])

    status, body = client.post(
        "/v1/batch", {"cells": [dict(CELL, config={"warp": 9})]})
    assert status == 400
    assert any("$.cells[0].config" in e for e in body["errors"])


def test_a_batch_posted_again_is_not_parsed_again(service, monkeypatch):
    """The same body bytes reuse the specs planned the first time; a
    body that fails is checked every time, and one larger than
    ``BATCH_MEMO_MAX_BYTES`` is never remembered."""
    from repro.service import app
    app._plan_batch.cache_clear()
    parsed = []
    real = app.parse_batch
    monkeypatch.setattr(app, "parse_batch",
                        lambda payload: parsed.append(1) or real(payload))
    _server, client = service
    body = json.dumps({"cells": [dict(CELL, seed=31337)]}).encode()
    jobs = []
    for _ in range(2):
        status, posted = client.post_raw("/v1/batch", body)
        assert status == 202, posted
        jobs.append(posted["job"])
    assert len(parsed) == 1 and jobs[0] != jobs[1]
    status, job = client.get(f"/v1/batch/{jobs[1]}?wait=60")
    assert job["cells"][0]["status"] == "done"

    bad = json.dumps({"cells": [dict(CELL, policy="magic")]}).encode()
    for _ in range(2):
        assert client.post_raw("/v1/batch", bad)[0] == 400
    assert len(parsed) == 3

    padded = body + b" " * app.BATCH_MEMO_MAX_BYTES
    for _ in range(2):
        assert client.post_raw("/v1/batch", padded)[0] == 202
    assert len(parsed) == 5


@pytest.mark.parametrize("scale", ["0", "-1", "1e999", "-1e999", "NaN"])
def test_scale_must_be_positive_and_finite(service, scale):
    """The CLI's size-factor check, as a 400 naming the cell (an
    infinite scale once passed validation and failed in the worker)."""
    _server, client = service
    raw = json.dumps({"cells": [CELL]}).replace('"scale": 0.5',
                                                f'"scale": {scale}')
    status, body = client.post_raw("/v1/batch", raw.encode())
    assert status == 400
    assert any(e.startswith("$.cells[0].scale: scale must be positive "
                            "and finite") for e in body["errors"])


def test_workload_names_resolve_like_the_cli(service):
    _server, client = service
    job = client.run_batch([dict(CELL, workload="histogram")])
    assert job["cells"][0]["status"] == "done"
    assert job["cells"][0]["spec"].startswith("HIST/")


# --- batch lifecycle --------------------------------------------------


def test_batch_round_trip_with_dedup_and_cache(service):
    server, client = service
    job = client.run_batch([CELL, OTHER, dict(CELL)])
    assert job["counts"] == {"total": 3, "done": 3, "error": 0,
                             "pending": 0}
    by_index = {c["index"]: c for c in job["cells"]}
    assert by_index[0]["result"] == by_index[2]["result"], \
        "duplicate cells share one result"
    assert by_index[0]["key"] == by_index[2]["key"]
    assert by_index[0]["spec"] == "HIST/all-near t8 x0.5"

    # The duplicate never computed twice.
    stats = server.scheduler.stats()
    assert stats["cache"]["computed"] == 2

    # A repeat batch is answered from the cache.
    again = client.run_batch([CELL, OTHER])
    assert all(c["source"] == "cache" for c in again["cells"])
    stats = server.scheduler.stats()
    assert stats["cache"]["hits"] >= 2
    assert stats["cache"]["hit_ratio"] > 0


def test_worker_exception_is_a_cell_error_not_a_500(make_service):
    def explosive(spec):
        if spec.workload == "SPMV":
            raise RuntimeError("boom in the worker")
        from tests.service.conftest import stub_compute
        return stub_compute(spec)

    server, client = make_service(compute=explosive)
    job = client.run_batch([CELL, OTHER])
    by_index = {c["index"]: c for c in job["cells"]}
    assert by_index[0]["status"] == "done"
    assert by_index[1]["status"] == "error"
    assert "RuntimeError" in by_index[1]["error"]
    assert "boom in the worker" in by_index[1]["error"]
    assert "result" not in by_index[1]
    stats = server.scheduler.stats()
    assert stats["cells"]["errors"] == 1
    assert stats["cache"]["errors"] == 1
    cache = stats["cache"]
    assert cache["hits"] + cache["computed"] + cache["joined"] \
        + cache["errors"] == stats["cells"]["completed"] == 2

    # Errors are not cached: a retry recomputes (and fails again).
    retry = client.run_batch([OTHER])
    assert retry["cells"][0]["status"] == "error"
    assert server.scheduler.stats()["cells"]["errors"] == 2
    stats = server.scheduler.stats()
    cache = stats["cache"]
    assert cache["hits"] + cache["computed"] + cache["joined"] \
        + cache["errors"] == stats["cells"]["completed"] == 3


def test_results_can_be_stripped_for_cheap_polling(service):
    _server, client = service
    posted = client.post("/v1/batch", {"cells": [CELL]})[1]
    client.get(f"/v1/batch/{posted['job']}?wait=90")
    status, lean = client.get(f"/v1/batch/{posted['job']}?results=0")
    assert status == 200
    assert all("result" not in c for c in lean["cells"])


def test_bad_wait_value_is_400(service):
    _server, client = service
    posted = client.post("/v1/batch", {"cells": [CELL]})[1]
    status, body = client.get(f"/v1/batch/{posted['job']}?wait=soon")
    assert status == 400


def test_event_stream_reports_every_cell_then_a_summary(service):
    _server, client = service
    posted = client.post("/v1/batch", {"cells": [CELL, OTHER]})[1]
    lines = client.stream(posted["events_url"])
    cells, summary = lines[:-1], lines[-1]
    assert {c["index"] for c in cells} == {0, 1}
    assert all(c["status"] == "done" for c in cells)
    assert all("result" not in c for c in cells), \
        "the progress stream is lean"
    assert summary["done"] is True
    assert summary["counts"]["done"] == 2


# --- stats ------------------------------------------------------------


def test_stats_matches_the_checked_in_schema(service):
    server, client = service
    client.run_batch([CELL, OTHER])
    client.run_batch([CELL])
    status, stats = client.get("/v1/stats")
    assert status == 200
    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    assert validate(stats, schema) == []
    assert stats["workers"] == 4
    assert stats["cells"]["submitted"] == 3
    assert stats["cells"]["completed"] == 3
    assert stats["jobs"]["total"] == 2
    assert stats["latency"]["count"] == 3
    assert stats["latency"]["p99_ms"] >= stats["latency"]["p50_ms"]


def test_stats_accounting_identity(service):
    """hits + computed + joined + errors == completed cells when idle."""
    server, client = service
    client.run_batch([CELL, OTHER, CELL, OTHER, CELL])
    stats = server.scheduler.stats()
    cache = stats["cache"]
    assert cache["errors"] == 0
    assert cache["hits"] + cache["computed"] + cache["joined"] \
        + cache["errors"] == stats["cells"]["completed"]
    assert cache["misses"] == cache["computed"] + cache["joined"]
