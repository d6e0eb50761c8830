"""serve-zipf load: a ``repro serve`` child process and closed-loop
HTTP clients, using only the standard library."""

from __future__ import annotations

import http.client
import itertools
import json
import queue
import re
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

from bench.common import ROOT, child_env, result_digest
from bench.model import model_row

#: Per-request budget: socket timeout of each call, and the server-side
#: long-poll of the GET.  A request that exceeds it is a failure.
REQUEST_TIMEOUT_S = 30.0

#: How long the server may take to print its port and answer healthz.
BOOT_TIMEOUT_S = 60.0

_PORT_RE = re.compile(r"http://[^\s:/]+:(\d+)")


class ServerProcess:
    """``python -m repro serve --port 0`` in a child process.

    The port is read from the child's first stdout line; after that a
    thread drains stdout until EOF and stderr (one log line per request)
    goes to DEVNULL, so no pipe can fill up and stall the server.
    """

    def __init__(self, cache_dir: str, workers: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers), "--cache-dir", cache_dir],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._drain = threading.Thread(target=self._read_stdout,
                                       name="serve-stdout", daemon=True)
        self._drain.start()
        try:
            self.port = self._read_port()
        except BaseException:
            self.close()
            raise

    def _read_stdout(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _read_port(self) -> int:
        try:
            line = self._lines.get(timeout=BOOT_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("repro serve printed nothing within "
                               f"{BOOT_TIMEOUT_S:.0f}s") from None
        match = _PORT_RE.search(line or "")
        if match is None:
            raise RuntimeError(f"repro serve did not report its port "
                               f"(first line: {line!r}, exit code "
                               f"{self.proc.poll()})")
        return int(match.group(1))

    def close(self) -> None:
        """Terminate the server and wait for it (kill if it lingers)."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def get_json(port: int, path: str, timeout: float = REQUEST_TIMEOUT_S):
    """One GET on a fresh connection: ``(status, parsed body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def wait_healthy(port: int, deadline_s: float = BOOT_TIMEOUT_S) -> None:
    """Poll ``/v1/healthz`` until it answers 200."""
    end = time.monotonic() + deadline_s
    while True:
        try:
            status, body = get_json(port, "/v1/healthz", timeout=2.0)
            if status == 200 and body.get("status") == "ok":
                return
        except (OSError, http.client.HTTPException, ValueError):
            pass
        if time.monotonic() > end:
            raise RuntimeError(f"healthz not ready after {deadline_s:.0f}s")
        time.sleep(0.01)


def _one_request(conn: http.client.HTTPConnection, body: bytes,
                 request_id: int) -> Dict:
    headers = {"Content-Type": "application/json",
               "X-Bench-Request": str(request_id)}
    conn.request("POST", "/v1/batch", body, headers)
    resp = conn.getresponse()
    posted = json.loads(resp.read())
    if resp.status != 202:
        raise RuntimeError(f"POST /v1/batch answered {resp.status}")
    conn.request("GET", f"/v1/batch/{posted['job']}"
                        f"?wait={REQUEST_TIMEOUT_S:g}",
                 headers={"X-Bench-Request": str(request_id)})
    resp = conn.getresponse()
    job = json.loads(resp.read())
    if resp.status != 200:
        raise RuntimeError(f"GET /v1/batch answered {resp.status}")
    if not job.get("done"):
        raise TimeoutError("job not done within the request timeout")
    return job


def run_clients(port: int, trace: Sequence[Sequence[int]],
                cells: Sequence[Dict], keys: Sequence[str],
                clients: int, region=None) -> List[Dict]:
    """Replay ``trace`` with ``clients`` closed-loop clients, each on one
    keep-alive connection.  Returns one record per request:
    ``{"ms", "error", "cells": [[key, digest, source, server wall_ms,
    model row]]}``.

    ``region(name, id)``, when given, is a tracer context manager that
    marks each client loop and request as spans.
    """
    records: List[Optional[Dict]] = [None] * len(trace)
    counter = itertools.count()
    lock = threading.Lock()

    def client(index: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    i = next(counter)
                if i >= len(trace):
                    return
                body = json.dumps(
                    {"cells": [cells[j] for j in trace[i]]}).encode()
                t0 = time.perf_counter()
                error, served = None, []
                try:
                    if region is not None:
                        with region("request", i):
                            job = _one_request(conn, body, i)
                    else:
                        job = _one_request(conn, body, i)
                    ms = (time.perf_counter() - t0) * 1e3
                    served = _served_cells(job, [keys[j] for j in trace[i]])
                except (OSError, http.client.HTTPException, ValueError,
                        KeyError, RuntimeError) as exc:
                    ms = (time.perf_counter() - t0) * 1e3
                    error = f"{type(exc).__name__}: {exc}"
                    conn.close()  # reconnect on the next request
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
                records[i] = {"ms": ms, "error": error, "cells": served}
        finally:
            conn.close()

    def run(index: int) -> None:
        if region is not None:
            with region("client", f"client{index}"):
                client(index)
        else:
            client(index)

    threads = [threading.Thread(target=run, args=(k,),
                                name=f"bench-client-{k}")
               for k in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [r if r is not None else {"ms": 0.0, "error": "not sent",
                                     "cells": []} for r in records]


def _served_cells(job: Dict, keys: List[str]) -> List[List]:
    """Per requested cell: ``[key, digest, source, wall_ms, model row]``;
    raises on a cell the server did not complete."""
    cells = job["cells"]
    if len(cells) != len(keys):
        raise RuntimeError(f"job has {len(cells)} cells, sent {len(keys)}")
    out = []
    for key, cell in zip(keys, cells):
        if cell.get("status") != "done":
            raise RuntimeError(f"cell {key} {cell.get('status')}: "
                               f"{cell.get('error')}")
        result = cell["result"]
        out.append([key, result_digest(result), cell["source"],
                    cell.get("wall_ms", 0.0), model_row(result)])
    return out
