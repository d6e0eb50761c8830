"""The server reads request heads without ``email.parser``: it must
answer every request as a plain :class:`BaseHTTPRequestHandler` does."""

import email.parser
import http.client
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from tests.service.conftest import RawConnection

CELL = {"workload": "HIST", "policy": "all-near", "threads": 8,
        "scale": 0.5, "seed": 0}
BODY = json.dumps({"cells": [CELL]}).encode()
HEALTHZ = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"


class _Reference(BaseHTTPRequestHandler):
    """The stdlib's own answers: 200 to a GET; 202 to a POST whose
    ``Content-Length`` bytes are JSON, 400 otherwise."""

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def _answer(self, status):
        self.send_response(status)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def do_GET(self):  # noqa: N802 - http.server API
        self._answer(200)

    def do_POST(self):  # noqa: N802 - http.server API
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            json.loads(body)
        except ValueError:
            self._answer(400)
        else:
            self._answer(202)


@pytest.fixture(scope="module")
def reference():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Reference)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()


def _post(*headers, length=len(BODY), version="HTTP/1.1"):
    lines = [f"POST /v1/batch {version}", "Host: x",
             f"Content-Length: {length}", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + BODY


def _get(*headers, version="HTTP/1.1"):
    lines = [f"GET /v1/healthz {version}", "Host: x", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


#: Each request is sent alone: a server that answers an error before
#: reading all of it would reset the connection on close.
CASES = {
    "one-word request line": b"GARBAGE\r\n",
    "four-word request line": b"GET /v1/healthz x HTTP/1.1\r\n",
    "bad version": b"GET /v1/healthz HTTP/1.x\r\n",
    "HTTP/0.9 POST": b"POST /v1/batch\r\n",
    "header line without a colon": _get("NoColonHere", "X-After: 1"),
    "request line over 64 KiB": b"GET /" + b"a" * 65532,
    "header line over 64 KiB": b"GET /v1/healthz HTTP/1.1\r\nX: "
                               + b"a" * 65534,
    "101 header lines": b"GET /v1/healthz HTTP/1.1\r\n"
                        + b"".join(b"X-%d: y\r\n" % i for i in range(101)),
    # The blank line ending the head counts as a line too.
    "100 header lines": b"GET /v1/healthz HTTP/1.1\r\n"
                        + b"".join(b"X-%d: y\r\n" % i for i in range(100))
                        + b"\r\n",
    "99 header lines": b"GET /v1/healthz HTTP/1.1\r\n"
                       + b"".join(b"X-%d: y\r\n" % i for i in range(99))
                       + b"\r\n",
    "HTTP/2.0": b"GET /v1/healthz HTTP/2.0\r\n",
    "HTTP/1.0": _get(version="HTTP/1.0"),
    "HTTP/1.0 keep-alive": _get("Connection: keep-alive",
                                version="HTTP/1.0"),
    "HTTP/1.1 close": _get("Connection: close"),
    "HTTP/1.1 CLOSE": _get("connection: CLOSE"),
    "mixed-case names": _post("cONTENT-tYPE: application/json").replace(
        b"Content-Length", b"content-LENGTH"),
    "duplicate Content-Length": _post(f"Content-Length: {len(BODY) - 9}"),
    "folded header": _get("X-Folded: a", " b"),
    "continuation first": b"GET /v1/healthz HTTP/1.1\r\n x\r\nHost: y\r\n\r\n",
}


def _observe(port, request, body=None):
    """Statuses of the answers to ``request`` (and ``body`` sent after
    the first answer), then whether the connection still serves."""
    conn = RawConnection(port, timeout=10)
    try:
        conn.send(request)
        answers = [conn.response()]
        if body is not None:
            conn.send(body)
            answers.append(conn.response())
        statuses = [a[0] if a else None for a in answers]
        try:
            conn.send(HEALTHZ)
            alive = conn.response()
        except OSError:
            alive = None
        return statuses, alive is not None and alive[0] == 200
    finally:
        conn.close()


def _raw_answer(port, request):
    """Every byte the server answers ``request`` with, sent alone."""
    answer = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        while chunk := sock.recv(65536):
            answer += chunk
    return answer


@pytest.mark.parametrize("name", list(CASES))
def test_answers_like_the_stdlib(service, reference, name):
    server, _client = service
    ours = _observe(server.port, CASES[name])
    assert ours == _observe(reference, CASES[name]), name
    assert ours[0][0] is not None, name
    # Unlike the stdlib, which sends a rejected request line its error
    # page alone, every answer has a status line.
    assert _raw_answer(server.port, CASES[name]).startswith(b"HTTP/1."), name


def test_expected_answers(reference):
    """Pin a few of the stdlib's answers, so the comparison above
    cannot pass by both sides failing alike."""
    expected = {
        "four-word request line": 400, "bad version": 400,
        "request line over 64 KiB": 414, "header line over 64 KiB": 431,
        "101 header lines": 431, "100 header lines": 431,
        "99 header lines": 200, "HTTP/2.0": 505,
        "duplicate Content-Length": 202, "mixed-case names": 202,
    }
    for name, status in expected.items():
        assert _observe(reference, CASES[name])[0] == [status], name


def test_keep_alive_follows_version_and_connection(service):
    server, _client = service
    alive = {name: _observe(server.port, CASES[name])[1]
             for name in ("HTTP/1.0", "HTTP/1.0 keep-alive",
                          "HTTP/1.1 close", "header line without a colon")}
    assert alive == {"HTTP/1.0": False, "HTTP/1.0 keep-alive": True,
                     "HTTP/1.1 close": False,
                     "header line without a colon": True}


def test_expect_100_continue(service, reference):
    """The interim ``100 Continue`` leaves before the body is read."""
    head, body = _post("Expect: 100-continue").split(b"\r\n\r\n", 1)
    server, _client = service
    ours = _observe(server.port, head + b"\r\n\r\n", body)
    assert ours == ([100, 202], True)
    assert ours == _observe(reference, head + b"\r\n\r\n", body)


def test_requests_never_reach_the_email_parser(service, monkeypatch):
    """healthz, POST and GET /v1/batch answer with the stdlib's header
    parser broken."""
    def broken(*args, **kwargs):
        raise AssertionError("email.parser on the request path")

    server, _client = service
    monkeypatch.setattr(http.client, "parse_headers", broken)
    monkeypatch.setattr(email.parser.Parser, "parsestr", broken)
    conn = RawConnection(server.port, timeout=10)
    try:
        assert conn.request("GET", "/v1/healthz")[0] == 200
        status, posted = conn.request("POST", "/v1/batch",
                                      {"cells": [CELL]})
        assert status == 202
        job = json.loads(posted)["job"]
        status, body = conn.request("GET", f"/v1/batch/{job}?wait=10")
    finally:
        conn.close()
    assert status == 200
    assert json.loads(body)["cells"][0]["status"] == "done"
