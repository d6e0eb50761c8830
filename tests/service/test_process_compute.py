"""The default compute path: misses simulated in worker processes.

``make_server`` without an injected ``compute`` simulates misses through
a :class:`~repro.harness.executor.ProcessCompute`.  These tests pin
that path end to end (golden bit-identity, the dedup accounting, lazy
pool start, no child left behind) and its failure containment: a
worker that dies gets one retry on a fresh pool, a second death is a
per-cell error that is counted and never cached, and later misses
still compute.  Worker deaths are injected through ``ProcessCompute``'s
``worker`` argument with module-level (picklable) functions that, like
the default worker, take a list of specs and return a list of dicts.
"""

import functools
import multiprocessing
import os

from repro.harness.executor import (ProcessCompute, ResultStore,
                                    serialize_result)
from repro.service.api import parse_batch
from repro.service.app import make_server, serve
from tests.service.conftest import Client, assert_untorn, stub_compute
from tests.service.test_golden_service import (DIGESTS, GOLDEN_CELLS,
                                               _cells, _served_sha)

CELL = {"workload": "HIST", "policy": "all-near", "threads": 8,
        "scale": 0.5, "seed": 0}
#: The worker dies whenever it is handed this cell.
DOOMED = {"workload": "SPMV", "policy": "present-near", "threads": 8,
          "scale": 0.5, "seed": 0}


def stub_worker(specs):
    """Worker-side stub compute, serialized like the real worker."""
    return [serialize_result(stub_compute(spec)) for spec in specs]


def die_on_spmv(specs):
    if any(spec.workload == "SPMV" for spec in specs):
        os._exit(1)
    return stub_worker(specs)


def die_once(marker, specs):
    """Kill the first worker that runs this; later calls compute."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        return stub_worker(specs)
    os.close(fd)
    os._exit(1)


def test_default_process_path_serves_golden_cells(tmp_path):
    server = make_server(port=0, workers=2,
                         store=ResultStore(str(tmp_path / "cache")))
    compute = server.scheduler.compute
    assert isinstance(compute, ProcessCompute)
    assert compute._pool is None, "booting must start no process"
    serve(server)
    try:
        client = Client(server.port)
        # The repeated first cell parks on the leader's flight.
        job = client.run_batch(_cells() + _cells()[:1])
        assert job["counts"]["error"] == 0
        sent = GOLDEN_CELLS + GOLDEN_CELLS[:1]
        for cell_spec, cell in zip(sent, job["cells"]):
            key = f"{cell_spec['workload']}/{cell_spec['policy']}"
            assert _served_sha(cell) == DIGESTS["cells"][key]["result_sha256"]

        again = client.run_batch(_cells())
        assert [c["source"] for c in again["cells"]] == ["cache"] * 3
        stats = server.scheduler.stats()
        cache = stats["cache"]
        assert cache["computed"] == len(GOLDEN_CELLS)
        assert cache["hits"] + cache["computed"] + cache["joined"] == \
            stats["cells"]["completed"] == 7
    finally:
        server.close()
    assert multiprocessing.active_children() == []


def test_dead_worker_is_retried_once_on_a_fresh_pool(make_service,
                                                     tmp_path):
    marker = str(tmp_path / "worker-died")
    compute = ProcessCompute(2, worker=functools.partial(die_once, marker))
    server, client = make_service(compute=compute, workers=2)
    job = client.run_batch([CELL])
    assert os.path.exists(marker), "the first worker must have died"
    cell = job["cells"][0]
    assert cell["status"] == "done"
    assert cell["source"] == "computed"
    assert_untorn(CELL, cell["result"])
    assert server.scheduler.stats()["cells"]["errors"] == 0


def test_worker_dying_twice_is_a_cell_error_never_cached(make_service):
    server, client = make_service(
        compute=ProcessCompute(2, worker=die_on_spmv), workers=2)
    job = client.run_batch([DOOMED, DOOMED])
    for cell in job["cells"]:  # the leader and its joiner
        assert cell["status"] == "error"
        assert cell["error"].startswith("BrokenProcessPool")
        assert "result" not in cell
    stats = server.scheduler.stats()
    assert stats["cells"]["errors"] == 2
    assert stats["cache"]["errors"] == 1
    assert stats["cache"]["computed"] == 0
    spec = parse_batch({"cells": [DOOMED]})[0]
    assert server.scheduler.cache.store.load(spec) is None

    later = client.run_batch([CELL])
    assert later["cells"][0]["status"] == "done"
    assert later["cells"][0]["source"] == "computed"
    assert_untorn(CELL, later["cells"][0]["result"])
