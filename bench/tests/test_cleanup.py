"""An interrupted run stops every process it started and removes its
temp dirs, including the ``repro serve`` child and its cache."""

import os
import signal
import subprocess
import sys
import time

from bench.common import ROOT, TMP_DIR


def _serve_dirs():
    if not os.path.isdir(TMP_DIR):
        return set()
    return {d for d in os.listdir(TMP_DIR) if d.startswith("serve-zipf-")}


def _users_of(dirs):
    """PIDs whose command line names one of ``dirs``."""
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read().decode(errors="replace")
        except OSError:
            continue
        if any(d in cmdline for d in dirs):
            pids.append(int(pid))
    return pids


def test_sigterm_stops_passes_and_removes_temp_dirs():
    before = _serve_dirs()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench", "run", "--workload", "serve-zipf",
         "--seed", "0"], cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        seen = set()
        while time.monotonic() < deadline:
            seen = _serve_dirs() - before
            if seen and _users_of(seen):
                break
            time.sleep(0.01)
        assert seen, "no pass started"
        time.sleep(1.0)  # let the server boot and traffic start
        seen |= _serve_dirs() - before
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert not (_serve_dirs() - before)
    assert _users_of(seen) == []
