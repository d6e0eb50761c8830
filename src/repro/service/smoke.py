"""CI smoke: boot the service, round-trip a batch, validate ``/v1/stats``.

``python -m repro.service.smoke`` starts ``repro serve`` in-process on
an ephemeral port, then:

1. checks ``GET /v1/healthz``;
2. posts one real golden cell (``WAT/present-near`` at t8/x0.5 — the
   cheapest cell of the corpus), waits for it, and — when the committed
   digest corpus is present — verifies the served result is
   bit-identical to ``tests/golden/digests.json``;
3. re-posts the same batch and requires it to be answered from the
   cache, bit-identical to the golden digest (to the first answer when
   the corpus is absent), with hit ratio > 0 afterwards;
4. speaks HTTP over a bare socket: a malformed request line must get
   400, and a POST+GET pair on one keep-alive connection must serve
   the same bytes again;
5. validates the ``GET /v1/stats`` document against the checked-in
   schema (``tests/schemas/serve.schema.json``) with the same
   dependency-free validator the other CI schema jobs use;
6. shuts the server down cleanly, boots a second server on the same
   cache directory and requires it to serve the same bytes from disk.

Exit 0 on success, 1 with a reason otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import re
import socket
import sys
import tempfile
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.harness.executor import ResultStore
from repro.harness.golden import DEFAULT_DIGEST_PATH, load_digests
from repro.obs.attribution.schema import validate
from repro.service.app import make_server, serve

#: The pinned smoke cell: cheapest member of the golden corpus.
SMOKE_CELL = {"workload": "WAT", "policy": "present-near",
              "threads": 8, "scale": 0.5, "seed": 0}

DEFAULT_SCHEMA = "tests/schemas/serve.schema.json"


def _request(base: str, path: str, payload: Optional[Dict] = None
             ) -> Tuple[int, Any]:
    url = base + path
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.smoke",
        description="service smoke test (CI gate)")
    parser.add_argument("--schema", default=DEFAULT_SCHEMA,
                        help="stats schema to validate against")
    parser.add_argument("--digests", default=DEFAULT_DIGEST_PATH,
                        help="golden digest corpus (skipped if absent)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as cache_dir:
        with _server(cache_dir) as base:
            served = _smoke(base, args)
        if served is None:
            return 1
        with _server(cache_dir) as base:
            cell = _round_trip(base, "restart")
        if cell is None:
            return 1
        if cell["source"] != "cache" or _sha(cell["result"]) != served:
            print(f"smoke: a server restarted on the same cache dir did "
                  f"not serve the same bytes from disk: "
                  f"source={cell['source']}")
            return 1
        print("smoke: restarted server served the same bytes from disk")
    print("service-smoke: ok")
    return 0


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


@contextlib.contextmanager
def _server(cache_dir: str) -> Iterator[str]:
    """A server on ``cache_dir`` for the block; yields its base URL."""
    server = make_server(port=0, workers=2, store=ResultStore(cache_dir))
    serve(server)
    try:
        yield f"http://127.0.0.1:{server.port}"
    finally:
        server.close()


def _sha(result: Dict) -> str:
    """The served result's digest, as ``repro golden`` computes it."""
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()).hexdigest()


def _round_trip(base: str, what: str) -> Optional[Dict]:
    """POST the smoke batch and wait for it: its one cell, or None."""
    status, posted = _request(base, "/v1/batch", {"cells": [SMOKE_CELL]})
    if status != 202:
        print(f"smoke: {what} POST /v1/batch failed: {status} {posted}")
        return None
    status, job = _request(base, f"/v1/batch/{posted['job']}?wait=90")
    if status != 200 or not job.get("done"):
        print(f"smoke: {what} job did not finish: {status} {job}")
        return None
    cell = job["cells"][0]
    if cell["status"] != "done":
        print(f"smoke: {what} cell failed: {cell}")
        return None
    return cell


def _raw_socket(base: str, served: str) -> bool:
    """Step 4: True, or False after printing what went wrong."""
    port = int(base.rsplit(":", 1)[1])
    bad = RawConnection(port)
    try:
        bad.send(b"GET /v1/healthz extra HTTP/1.1\r\n")
        answer = bad.response()
    finally:
        bad.close()
    if answer is None or answer[0] != 400:
        print(f"smoke: a malformed request line got {answer}, not 400")
        return False
    conn = RawConnection(port)
    try:
        posted = conn.request("POST", "/v1/batch", {"cells": [SMOKE_CELL]})
        if posted is None or posted[0] != 202:
            print(f"smoke: raw POST /v1/batch failed: {posted}")
            return False
        job_id = json.loads(posted[1])["job"]
        got = conn.request("GET", f"/v1/batch/{job_id}?wait=90")
    finally:
        conn.close()
    if got is None or got[0] != 200:
        print(f"smoke: raw GET on the same connection failed: {got}")
        return False
    cell = json.loads(got[1])["cells"][0]
    if cell.get("result") is None or _sha(cell["result"]) != served:
        print(f"smoke: raw keep-alive pair served other bytes: {cell}")
        return False
    print("smoke: raw socket ok (malformed request line -> 400, keep-alive "
          "POST+GET served the same bytes)")
    return True


def _smoke(base: str, args: argparse.Namespace) -> Optional[str]:
    """Steps 1-5 on a fresh server: the served result's digest, or
    None after printing why a step failed."""
    status, health = _request(base, "/v1/healthz")
    if status != 200 or health.get("status") != "ok":
        print(f"smoke: healthz failed: {status} {health}")
        return None
    print(f"smoke: healthz ok (uptime {health['uptime_s']}s)")

    cell = _round_trip(base, "first")
    if cell is None:
        return None
    print(f"smoke: batch round-trip ok "
          f"(source={cell['source']}, {cell['wall_ms']:.0f} ms)")
    served = _sha(cell["result"])

    try:
        corpus = load_digests(args.digests)
    except (FileNotFoundError, ValueError):
        corpus = None
        print(f"smoke: no digest corpus at {args.digests}; "
              f"skipping bit-identity check")
    if corpus is not None:
        key = f"{SMOKE_CELL['workload']}/{SMOKE_CELL['policy']}"
        want = corpus["cells"][key]["result_sha256"]
        if served != want:
            print(f"smoke: served result drifted from golden digest "
                  f"{key}: {served} != {want}")
            return None
        print(f"smoke: served result bit-identical to golden {key}")

    # The repeat is a memo hit; it must carry the same bytes, which the
    # check above pinned to the golden digest.
    again = _round_trip(base, "repeat")
    if again is None:
        return None
    if again["source"] != "cache":
        print(f"smoke: repeat batch not served from cache: "
              f"{again['source']}")
        return None
    if _sha(again["result"]) != served:
        print(f"smoke: repeat batch served other bytes: "
              f"{_sha(again['result'])} != {served}")
        return None
    print("smoke: repeat batch served bit-identical from the cache")
    if not _raw_socket(base, served):
        return None

    status, stats = _request(base, "/v1/stats")
    if status != 200:
        print(f"smoke: stats failed: {status}")
        return None
    if not stats["cache"]["hit_ratio"] > 0:
        print(f"smoke: expected hit ratio > 0, got {stats['cache']}")
        return None
    try:
        with open(args.schema) as fh:
            schema = json.load(fh)
    except OSError as exc:
        print(f"smoke: cannot read schema: {exc}")
        return None
    errors = validate(stats, schema)
    if errors:
        for error in errors:
            print(f"smoke: stats schema: {error}")
        return None
    print(f"smoke: stats ok (hit ratio "
          f"{stats['cache']['hit_ratio']:.2f}, schema valid)")
    return served


if __name__ == "__main__":  # pragma: no cover - CI entry point
    sys.exit(main())
