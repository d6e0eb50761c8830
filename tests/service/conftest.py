"""Service test fixtures: a real in-process server + HTTP clients.

The server fixture binds a real :class:`ReproServer` on an ephemeral
port with a scheduler whose ``compute`` is injectable: API and load
tests use :func:`stub_compute` (deterministic, microsecond-fast,
internally redundant so torn reads are detectable), while the golden
end-to-end test uses the real :func:`execute_spec`.  :class:`Client`
speaks through ``urllib``; :class:`RawConnection` sends bytes exactly as
given on a bare socket.
"""

import hashlib
import json
import re
import socket
import urllib.error
import urllib.request
from typing import Dict, Optional, Tuple

import pytest

from repro.harness.executor import ResultStore, execute_spec
from repro.noc.message import TrafficMeter
from repro.service.app import make_server, serve
from repro.service.scheduler import Scheduler
from repro.sim.results import MachineStats, SimulationResult


def stub_key_number(spec):
    """Deterministic per-spec integer (drives every stub field)."""
    return int(hashlib.sha256(
        spec.cache_key().encode()).hexdigest()[:8], 16)


def stub_compute(spec):
    """Fast fake simulation with *internally redundant* fields.

    Every field is derived from one per-spec number, so a torn read
    (fields from two different results mixed into one response) breaks
    an invariant the tests can check: ``instructions == 3 * cycles``,
    ``per_core_finish == [cycles] * threads`` and
    ``metadata["key"] == spec.cache_key()``.
    """
    n = stub_key_number(spec)
    cycles = 1_000 + n % 1_000_000
    return SimulationResult(
        policy=spec.policy,
        cycles=cycles,
        per_core_finish=[cycles] * spec.threads,
        instructions=cycles * 3,
        amos_committed=n % 997,
        stats=MachineStats(),
        traffic=TrafficMeter(),
        metadata={"workload": spec.workload, "key": spec.cache_key(),
                  "seed": spec.seed},
    )


def assert_untorn(spec_dict, result):
    """Check the stub's redundancy invariants on one wire result."""
    cycles = result["cycles"]
    assert result["instructions"] == 3 * cycles, "torn read: instructions"
    threads = spec_dict.get("threads", 8)
    assert result["per_core_finish"] == [cycles] * threads, \
        "torn read: per_core_finish"
    assert result["metadata"]["workload"] == \
        spec_dict["workload"].upper(), "torn read: metadata"


class Client:
    """Minimal JSON-over-HTTP client for the test server."""

    def __init__(self, port):
        self.base = f"http://127.0.0.1:{port}"

    def request(self, path, data=None, headers=None, timeout=120):
        req = urllib.request.Request(self.base + path, data=data,
                                     headers=headers or {})
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def get(self, path):
        return self.request(path)

    def post(self, path, payload):
        return self.request(
            path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})

    def post_raw(self, path, body: bytes):
        """POST arbitrary bytes (malformed-body tests)."""
        return self.request(
            path, data=body, headers={"Content-Type": "application/json"})

    def stream(self, path, timeout=120):
        """GET an NDJSON endpoint; returns the parsed lines."""
        req = urllib.request.Request(self.base + path)
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            assert resp.status == 200
            return [json.loads(line) for line in resp.read().splitlines()]

    def run_batch(self, cells, wait=90):
        """POST a batch and long-poll it to completion."""
        status, posted = self.post("/v1/batch", {"cells": cells})
        assert status == 202, posted
        status, job = self.get(f"/v1/batch/{posted['job']}?wait={wait}")
        assert status == 200, job
        assert job["done"], job
        return job


class RawConnection:
    """HTTP/1.1 over a bare socket: requests leave as given, responses
    are read by their ``Content-Length``."""

    def __init__(self, port: int, timeout: float = 120) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self._buf = b""

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def _fill(self) -> bool:
        try:
            chunk = self.sock.recv(65536)
        except ConnectionResetError:
            chunk = b""
        self._buf += chunk
        return bool(chunk)

    def response(self) -> Optional[Tuple[int, bytes]]:
        """The next response's status and body; None once the server
        has closed the connection.

        Before it has read a valid HTTP version the stdlib answers an
        error with its HTML page alone and then closes; the status is
        taken from that page.
        """
        while len(self._buf) < 5 or (self._buf.startswith(b"HTTP/")
                                     and b"\r\n\r\n" not in self._buf):
            if not self._fill():
                break
        if not self._buf.startswith(b"HTTP/"):
            while self._fill():
                pass
            body, self._buf = self._buf, b""
            code = re.search(rb"Error code: (\d+)", body)
            return (int(code.group(1)), body) if code else None
        if b"\r\n\r\n" not in self._buf:
            return None
        head, self._buf = self._buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        while len(self._buf) < length:
            if not self._fill():
                return None
        body, self._buf = self._buf[:length], self._buf[length:]
        return int(lines[0].split()[1]), body

    def request(self, method: str, path: str, payload: Optional[Dict] = None
                ) -> Optional[Tuple[int, bytes]]:
        """Send one keep-alive request; its response as :meth:`response`."""
        body = b"" if payload is None else json.dumps(payload).encode()
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        if payload is not None:
            head += (f"Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\n")
        self.send(head.encode() + b"\r\n" + body)
        return self.response()

    def close(self) -> None:
        self.sock.close()


@pytest.fixture
def make_service(tmp_path):
    """Factory: spin up servers (ephemeral port); torn down at test end."""
    servers = []

    def _make(compute=stub_compute, workers=4, store=None, **sched_kw):
        if store is None:
            store = ResultStore(str(tmp_path / "service-cache"))
        scheduler = Scheduler(store=store, workers=workers,
                              compute=compute, **sched_kw)
        server = make_server(port=0, scheduler=scheduler)
        serve(server)
        servers.append(server)
        return server, Client(server.port)

    yield _make
    for server in servers:
        server.close()


@pytest.fixture
def service(make_service):
    """One stub-computed service: ``(server, client)``."""
    return make_service()


@pytest.fixture
def real_service(make_service):
    """A service running the real simulator (golden E2E tests)."""
    return make_service(compute=execute_spec, workers=2)
