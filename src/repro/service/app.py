"""The HTTP/JSON front end: ``repro serve``.

Stdlib-only: :class:`~http.server.ThreadingHTTPServer` handles
connection concurrency while the scheduler's bounded pool of worker
processes handles simulation concurrency, so a burst of clients cannot
oversubscribe the CPU.  The handler reads request heads itself rather
than through ``email.parser``, giving the stdlib's answers to bad
requests; it builds each JSON response head in one step and sends head
and body together, and a job snapshot splices in each result's stored
JSON bytes.  A batch body posted again reuses the specs planned for
it.  Routes:

* ``POST /v1/batch`` — validated RunSpec batch; answers ``202`` with a
  job id (hits in the body are already ``done`` from the cache).
* ``GET /v1/batch/<id>`` — job snapshot with per-cell status, source
  and (by default) full serialized results; ``?wait=SECONDS`` blocks
  until the job settles or the timeout elapses, ``?results=0`` strips
  result payloads for cheap polling.
* ``GET /v1/batch/<id>/events`` — NDJSON progress stream: one line per
  settled cell as it completes, then a final summary line.
* ``GET /v1/healthz`` — liveness (status + uptime).
* ``GET /v1/stats`` — uptime, worker/job/cell gauges, cache hit
  ratio, single-flight counters, latency percentiles (shape pinned by
  ``tests/schemas/serve.schema.json``).

Validation failures answer ``400`` with the JSON-path-tagged error
list; a worker exception surfaces as that cell's ``error`` payload,
never as a 500.
"""

from __future__ import annotations

import email.utils
import functools
import json
import re
import signal
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.harness.executor import ResultStore, RunSpec, sorted_json
from repro.service.api import BatchValidationError, parse_batch
from repro.service.scheduler import Scheduler

#: Longest a ``?wait=`` long-poll or event stream may block.
MAX_WAIT_S = 120.0

#: Largest accepted request body (a 1024-cell batch is ~256 KiB).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Batch bodies remembered with their planned specs, and the largest
#: body remembered (a 64-cell batch): at most 4 MiB of bodies.
BATCH_MEMO_ENTRIES = 256
BATCH_MEMO_MAX_BYTES = 16 * 1024

#: The stdlib's request-head limits (``http.client._MAXLINE`` and
#: ``_MAXHEADERS``): longest header line, most lines in a header block.
MAX_HEADER_LINE = 65536
MAX_HEADERS = 100

#: A header line as ``email.parser`` accepts one: printable ASCII up to
#: the first colon.  The headers kept end at the first line that is
#: neither this nor a continuation.
_HEADER_NAME = re.compile(r"[!-9;-~]*:")


@functools.lru_cache(maxsize=BATCH_MEMO_ENTRIES)
def _plan_batch(raw: bytes) -> Tuple[RunSpec, ...]:
    """Decode, validate and plan a ``POST /v1/batch`` body, with each
    spec's cache key hashed.

    Cached by the body's bytes, so a batch posted again reuses its
    specs and keys; a body that fails raises every time.  Call
    :func:`plan_batch`, which keeps large bodies out of the cache.
    """
    specs = tuple(parse_batch(json.loads(raw)))
    for spec in specs:
        spec.cache_key()
    return specs


def plan_batch(raw: bytes) -> Tuple[RunSpec, ...]:
    """The specs of a ``POST /v1/batch`` body.

    Raises:
        ValueError: ``json.JSONDecodeError`` or ``UnicodeDecodeError``
            for a body that is not JSON, :class:`BatchValidationError`
            for one that fails validation.
    """
    if len(raw) > BATCH_MEMO_MAX_BYTES:
        return _plan_batch.__wrapped__(raw)
    return _plan_batch(raw)


class _Headers(dict):
    """Request headers by lower-cased name; the first of a repeated
    name wins, as with ``email.message.Message.get``."""

    def get(self, name: str, default: Any = None) -> Any:
        return dict.get(self, name.lower(), default)


class ReproServer(ThreadingHTTPServer):
    """The service: an HTTP server owning a scheduler."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 scheduler: Scheduler,
                 quiet: bool = True) -> None:
        super().__init__(address, _Handler)
        self.scheduler = scheduler
        self.quiet = quiet
        self.started = time.time()
        self._date = (-1, "")

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    def uptime_s(self) -> float:
        return time.time() - self.started

    def http_date(self) -> str:
        """The ``Date`` header value, formatted at most once a second.

        Threads that race on a new second each format it; the pair is
        swapped in whole, so none reads a torn one.
        """
        now = int(time.time())
        last = self._date
        if last[0] != now:
            last = self._date = (now, email.utils.formatdate(now,
                                                             usegmt=True))
        return last[1]

    def close(self) -> None:
        """Stop accepting, drain the worker pool, release the socket."""
        self.shutdown()
        self.scheduler.shutdown(wait=True)
        self.server_close()


class _ResponseWriter:
    """``wfile`` that holds what is written until :meth:`flush`, then
    hands it to the socket in one ``sendall``.

    The held bytes are dropped before the send, so after a client went
    away the failed flush is not retried by the server's own flushes at
    the end of the request and of the connection.
    """

    closed = False

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._parts: List[bytes] = []

    def write(self, data: bytes) -> int:
        self._parts.append(data)
        return len(data)

    def flush(self) -> None:
        data, self._parts = b"".join(self._parts), []
        if data:
            self._sock.sendall(data)

    def close(self) -> None:
        self._parts = []
        self.closed = True


class _Handler(BaseHTTPRequestHandler):
    server: ReproServer  # narrowed for the route helpers

    # Keep-alive lets one client poll a job over one connection.
    protocol_version = "HTTP/1.1"

    # TCP_NODELAY: a JSON response leaves in one send, so Nagle has
    # nothing to hold back there; but the event stream sends its headers
    # and then one line per settled cell, and with Nagle on each later
    # small send would wait for the client's delayed ACK (~40 ms on
    # Linux).
    disable_nagle_algorithm = True

    # --- plumbing -----------------------------------------------------

    def setup(self) -> None:
        super().setup()
        self.wfile = _ResponseWriter(self.connection)

    def log_message(self, fmt: str, *args: object) -> None:
        if not self.server.quiet:  # pragma: no cover - log formatting
            super().log_message(fmt, *args)

    def parse_request(self) -> bool:
        """:meth:`BaseHTTPRequestHandler.parse_request` with the header
        lines split here rather than by ``email.parser``.

        It answers as the stdlib does: 400 for a bad request line, 431
        for an over-long header line or more than :data:`MAX_HEADERS`
        lines, 505 for HTTP/2 and later; ``Connection`` and
        ``Expect: 100-continue`` act as they do there.  One difference:
        a rejected request line gets a status line, headers and
        ``Connection: close`` (see :meth:`_reject_line`), where the
        stdlib sends its HTML error page alone.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = line
        words = line.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            major, _, minor = version[5:].partition(".")
            # isdecimal, not the stdlib's isdigit: '\xb2' is a digit that
            # int() refuses, and the stdlib answers 400 for it too.
            if not (version.startswith("HTTP/") and major.isdecimal()
                    and minor.isdecimal() and len(major) <= 10
                    and len(minor) <= 10):
                return self._reject_line(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad request version ({version!r})")
            if (int(major), int(minor)) >= (1, 1):
                self.close_connection = False
            if int(major) >= 2:
                return self._reject_line(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})")
            self.request_version = version
        if not 2 <= len(words) <= 3:
            return self._reject_line(HTTPStatus.BAD_REQUEST,
                                     f"Bad request syntax ({line!r})")
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                return self._reject_line(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad HTTP/0.9 request type ({command!r})")
        self.command = command
        # As the stdlib does against open redirects: '//x' is '/x'.
        self.path = "/" + path.lstrip("/") if path.startswith("//") \
            else path
        headers = self._read_headers()
        if headers is None:
            return False
        self.headers = headers
        conntype = headers.get("Connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif conntype == "keep-alive":
            self.close_connection = False
        if headers.get("Expect", "").lower() == "100-continue" \
                and self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def _reject_line(self, status: HTTPStatus, message: str) -> bool:
        """Answer a rejected request line; False, for :meth:`parse_request`.

        Until a version is accepted ``request_version`` is HTTP/0.9,
        under which ``send_error`` writes its error page without a
        status line, so a client could not read the status.
        """
        self.request_version = self.protocol_version
        self.send_error(status, message)
        return False

    def _read_headers(self) -> Optional[_Headers]:
        """Read the header block; None after answering 431.

        Like ``http.client.parse_headers`` it reads every line up to
        the blank one; like ``email.parser`` it keeps the lines before
        the first one that is neither a header nor a continuation.
        """
        headers = _Headers()
        last: Optional[str] = None  # the kept header a continuation extends
        kept = True
        count = 0
        while True:
            raw = self.rfile.readline(MAX_HEADER_LINE + 1)
            if len(raw) > MAX_HEADER_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long", f"got more than {MAX_HEADER_LINE} "
                    f"bytes when reading header line")
                return None
            count += 1
            if count > MAX_HEADERS:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {MAX_HEADERS} headers")
                return None
            if raw in (b"\r\n", b"\n", b""):
                break
            if not kept:
                continue
            line = raw.decode("iso-8859-1")
            if line[0] in " \t":
                if last is not None:
                    headers[last] += line
                continue
            match = _HEADER_NAME.match(line)
            if match is None:
                kept = False
                continue
            end = match.end()
            name = line[:end - 1].lower()
            if name in headers:
                last = None
            else:
                headers[name] = line[end:].lstrip(" \t")
                last = name
        for name, value in headers.items():
            headers[name] = value.rstrip("\r\n")
        return headers

    def handle_expect_100(self) -> bool:
        # The writer holds what is written until flushed, and the
        # client holds its body until it reads this.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send_json(self, status: int, payload: Dict) -> None:
        """Answer with ``payload``: headers and body in one send."""
        self._send_body(status, sorted_json(payload).encode())

    def _send_body(self, status: int, body: bytes) -> None:
        """Answer with the JSON ``body``; its head is built in one
        step, with the lines :meth:`send_response` would write."""
        self.log_request(status)
        if self.request_version != "HTTP/0.9":
            self.wfile.write((
                f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.server.http_date()}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1"))
        self.wfile.write(body)
        self.wfile.flush()

    def _error(self, status: int, message: str,
               errors: Optional[list] = None) -> None:
        payload: Dict[str, object] = {"error": message}
        if errors:
            payload["errors"] = errors
        self._send_json(status, payload)

    # --- routing ------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        query = parse_qs(url.query) if url.query else {}
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "healthz"]:
                self._get_healthz()
            elif parts == ["v1", "stats"]:
                self._get_stats()
            elif len(parts) == 3 and parts[:2] == ["v1", "batch"]:
                self._get_batch(parts[2], query)
            elif len(parts) == 4 and parts[:2] == ["v1", "batch"] \
                    and parts[3] == "events":
                self._get_batch_events(parts[2])
            else:
                self._error(404, f"no such resource: {url.path}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "batch"]:
                self._post_batch()
            else:
                self._error(404, f"no such resource: {url.path}")
        except (BrokenPipeError, ConnectionResetError):
            pass

    # --- routes -------------------------------------------------------

    def _get_healthz(self) -> None:
        self._send_json(200, {
            "status": "ok",
            "service": "repro-serve",
            "uptime_s": round(self.server.uptime_s(), 3),
        })

    def _get_stats(self) -> None:
        payload = self.server.scheduler.stats()
        payload["service"] = "repro-serve"
        payload["uptime_s"] = round(self.server.uptime_s(), 3)
        self._send_json(200, payload)

    def _post_batch(self) -> None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "bad Content-Length header")
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            self._error(400, f"body length {length} outside "
                             f"(0, {MAX_BODY_BYTES}]")
            return
        try:
            specs = plan_batch(self.rfile.read(length))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._error(400, f"body is not valid JSON: {exc}")
            return
        except BatchValidationError as exc:
            self._error(400, "batch failed validation", errors=exc.errors)
            return
        try:
            job = self.server.scheduler.submit(specs)
        except RuntimeError as exc:  # shutting down
            self._error(503, str(exc))
            return
        self._send_json(202, {
            "job": job.id,
            "cells": len(job.cells),
            "status_url": f"/v1/batch/{job.id}",
            "events_url": f"/v1/batch/{job.id}/events",
        })

    def _get_batch(self, job_id: str, query: Dict[str, list]) -> None:
        job = self.server.scheduler.get(job_id)
        if job is None:
            self._error(404, f"no such job: {job_id}")
            return
        wait_raw = query.get("wait", ["0"])[0]
        try:
            wait_s = min(float(wait_raw), MAX_WAIT_S)
        except ValueError:
            self._error(400, f"bad wait value: {wait_raw!r}")
            return
        if wait_s > 0 and not job.done:
            job.wait(timeout=wait_s)
        include = query.get("results", ["1"])[0] != "0"
        self._send_body(200, job.snapshot_json(include_results=include))

    def _get_batch_events(self, job_id: str) -> None:
        job = self.server.scheduler.get(job_id)
        if job is None:
            self._error(404, f"no such job: {job_id}")
            return
        # Unbounded-length response: close-delimited, not keep-alive.
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.flush()
        self.close_connection = True
        for cell in job.iter_completions(timeout=MAX_WAIT_S):
            line = sorted_json(cell.snapshot(include_results=False))
            self.wfile.write(line.encode() + b"\n")
            self.wfile.flush()
        summary = job.snapshot(include_results=False)
        del summary["cells"]
        self.wfile.write(sorted_json(summary).encode() + b"\n")
        self.wfile.flush()


def make_server(host: str = "127.0.0.1", port: int = 0,
                workers: int = 4,
                store: Optional[ResultStore] = None,
                scheduler: Optional[Scheduler] = None,
                quiet: bool = True) -> ReproServer:
    """Build a ready-to-run server (``port=0`` picks an ephemeral port)."""
    if scheduler is None:
        scheduler = Scheduler(store=store, workers=workers)
    return ReproServer((host, port), scheduler, quiet=quiet)


def serve(server: ReproServer) -> threading.Thread:
    """Run ``server`` on a daemon thread; returns the thread."""
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-accept", daemon=True)
    thread.start()
    return thread


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def serve_forever(host: str, port: int, workers: int,
                  store: Optional[ResultStore] = None,
                  quiet: bool = False) -> int:
    """Blocking entry point used by ``repro serve``.

    Ctrl-C and SIGTERM both stop accepting, drain the scheduler (and
    its worker processes), release the socket and return 0.
    """
    try:
        server = make_server(host, port, workers=workers, store=store,
                             quiet=quiet)
    except socket.error as exc:
        print(f"serve: cannot bind {host}:{port}: {exc}")
        return 1
    sched = server.scheduler
    print(f"repro serve: listening on http://{host}:{server.port} "
          f"({workers} workers, cache at "
          f"{sched.store.cache_dir})")
    print("  POST /v1/batch   GET /v1/batch/<id>[?wait=s]   "
          "GET /v1/healthz   GET /v1/stats")
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nrepro serve: shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.scheduler.shutdown(wait=True)
        server.server_close()
    return 0
