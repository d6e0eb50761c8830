"""Transport and lifecycle: one send per JSON response, no delayed-ACK
stall, contained client hang-ups, clean SIGTERM."""

import http.client
import json
import os
import re
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

from repro.service.scheduler import Job
from tests.service.conftest import Client, stub_compute

CELL = {"workload": "HIST", "policy": "all-near", "threads": 8,
        "scale": 0.5, "seed": 0}
#: Cheapest golden cell: a real miss for the subprocess server.
MISS = {"workload": "WAT", "policy": "present-near", "threads": 8,
        "scale": 0.5, "seed": 0}

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def test_keep_alive_hits_do_not_wait_for_delayed_acks(service):
    """Nagle + delayed ACK costs >= 40 ms per response on Linux; a
    warm all-hit POST+GET round trip must take a fraction of that."""
    server, client = service
    client.run_batch([CELL])
    body = json.dumps({"cells": [CELL]}).encode()
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    rounds = []
    try:
        for _ in range(20):
            t0 = time.perf_counter()
            conn.request("POST", "/v1/batch", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            posted = json.loads(resp.read())
            assert resp.status == 202
            conn.request("GET", f"/v1/batch/{posted['job']}?wait=10")
            resp = conn.getresponse()
            job = json.loads(resp.read())
            assert job["cells"][0]["source"] == "cache"
            rounds.append((time.perf_counter() - t0) * 1e3)
    finally:
        conn.close()
    assert statistics.median(rounds) < 20.0, rounds


def _count_server_sends(monkeypatch, port):
    """Record every ``send``/``sendall`` on the server's side of a
    connection to ``port`` (its local port is the server's)."""
    sent = []

    def counting(real):
        def wrapper(sock, data, *args):
            if sock.getsockname()[1] == port:
                sent.append(bytes(data))
            return real(sock, data, *args)
        return wrapper

    for name in ("send", "sendall"):
        monkeypatch.setattr(socket.socket, name,
                            counting(getattr(socket.socket, name)))
    return sent


def test_json_responses_leave_in_one_send(make_service, monkeypatch):
    """Headers and body of a JSON response go to the socket together,
    so no body waits behind its headers for a delayed ACK.  The body is
    ``json.dumps(payload, sort_keys=True)`` of the server's payload,
    however its cells settled and whether or not it carries results."""
    def failing_seed_7(spec):
        if spec.seed == 7:
            # Reads like a spliced result, ahead of the real ones.
            raise RuntimeError('boom, "source": "\0result')
        return stub_compute(spec)

    server, client = make_service(compute=failing_seed_7)
    other = dict(CELL, seed=1)
    mixed = client.run_batch([dict(CELL, seed=7), CELL, other, other])
    assert [(c["status"], c["source"]) for c in mixed["cells"]] == [
        ("error", None), ("done", "computed"), ("done", "computed"),
        ("done", "joined")]
    hit = client.run_batch([CELL])
    assert hit["cells"][0]["source"] == "cache"
    sent = _count_server_sends(monkeypatch, server.port)
    paths = [("/v1/healthz", None)]
    for job in (mixed, hit):
        for query, include in (("", True), ("?results=0", False)):
            paths.append((f"/v1/batch/{job['job']}{query}",
                          server.scheduler.get(job["job"]).snapshot(
                              include_results=include)))
    for path, payload in paths:
        sent.clear()
        status, body = client.get(path)
        assert status == 200, body
        assert len(sent) == 1, (path, [len(s) for s in sent])
        assert sent[0].startswith(b"HTTP/1.1 200 ")
        raw = sent[0].split(b"\r\n\r\n", 1)[1]
        if payload is None:
            payload = body  # healthz: its uptime moves
        assert raw == json.dumps(payload, sort_keys=True).encode(), path


def test_client_gone_mid_response_is_contained(make_service, monkeypatch,
                                               capsys):
    """A client that resets its connection while its long-poll waits:
    the server's failed send is swallowed, with no traceback and no
    500, and the server keeps serving."""
    release = threading.Event()

    def blocking(spec):
        release.wait(10)
        return stub_compute(spec)

    server, client = make_service(compute=blocking, workers=1)
    finished, parked = threading.Event(), threading.Event()
    shutdown_request, wait = server.shutdown_request, Job.wait

    def shutdown_and_signal(request):
        shutdown_request(request)
        finished.set()

    def wait_and_signal(job, timeout=None):
        parked.set()
        return wait(job, timeout)

    monkeypatch.setattr(server, "shutdown_request", shutdown_and_signal)
    monkeypatch.setattr(Job, "wait", wait_and_signal)
    sent = _count_server_sends(monkeypatch, server.port)
    status, posted = client.post("/v1/batch", {"cells": [CELL]})
    assert status == 202
    finished.wait(10)  # the POST's connection is done with
    finished.clear()
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    sock.sendall(f"GET /v1/batch/{posted['job']}?wait=10 HTTP/1.1\r\n"
                 f"Host: x\r\n\r\n".encode())
    assert parked.wait(10), "the handler is parked in the long-poll"
    # SO_LINGER 0: close with a reset, so the server's send fails.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()
    sent.clear()
    release.set()
    assert finished.wait(10), "the handler finished"
    assert not any(s.startswith(b"HTTP/1.1 500") for s in sent), sent
    assert "Traceback" not in capsys.readouterr().err
    status, health = client.get("/v1/healthz")
    assert status == 200 and health["status"] == "ok"


def test_event_stream_delivers_each_line_as_its_cell_settles(
        make_service):
    """The NDJSON stream is not held back by response buffering: the
    first settled cell's line arrives while the other still computes."""
    release = threading.Event()

    def slow_seed_one(spec):
        if spec.seed == 1:
            release.wait(10)
        return stub_compute(spec)

    server, client = make_service(compute=slow_seed_one, workers=2)
    status, posted = client.post(
        "/v1/batch", {"cells": [CELL, dict(CELL, seed=1)]})
    assert status == 202
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request("GET", posted["events_url"])
        resp = conn.getresponse()
        assert resp.status == 200
        # Cell 1 still blocks: a held-back line would time out here.
        first = json.loads(resp.readline())
        assert (first["index"], first["status"]) == (0, "done")
        release.set()
        rest = [json.loads(line) for line in resp.read().splitlines()]
    finally:
        release.set()
        conn.close()
    assert [line.get("index") for line in rest] == [1, None]
    assert rest[-1]["done"] is True


def _serve_subprocess_after_a_miss(tmp_path):
    """``python -m repro serve`` that has simulated one miss."""
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.pathsep.join(
                   [os.path.abspath(SRC)]
                   + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", str(tmp_path / "cache")],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, env=env)
    try:
        first = proc.stdout.readline()
        port = re.search(r"http://[^\s:/]+:(\d+)", first)
        assert port is not None, first
        job = Client(int(port.group(1))).run_batch([MISS])
        assert job["cells"][0]["source"] == "computed"
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc


def _end(proc, sig):
    """Send ``sig``; read stdout to EOF, which no orphaned worker may
    hold open; returns (exit code, remaining stdout)."""
    try:
        proc.send_signal(sig)
        out, _ = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, out


def test_sigterm_after_a_miss_exits_cleanly(tmp_path):
    code, out = _end(_serve_subprocess_after_a_miss(tmp_path),
                     signal.SIGTERM)
    assert code == 0
    assert "shutting down" in out


def test_workers_die_with_a_killed_server(tmp_path):
    code, _out = _end(_serve_subprocess_after_a_miss(tmp_path),
                      signal.SIGKILL)
    assert code == -signal.SIGKILL
