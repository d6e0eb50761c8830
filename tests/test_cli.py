"""Tests for the command-line interface."""

import time

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "HIST" in out and "dynamo-reuse-pn" in out


def test_table_command(capsys):
    assert main(["table", "1"]) == 0
    assert "present-near" in capsys.readouterr().out


def test_cost_command(capsys):
    assert main(["cost"]) == 0
    out = capsys.readouterr().out
    assert "55b/entry" in out
    assert "larger than this AMT" in out


def test_cost_custom_geometry(capsys):
    assert main(["cost", "--entries", "64", "--ways", "2"]) == 0
    assert "64-entry" in capsys.readouterr().out


def test_run_command(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["run", "RAY", "--threads", "4", "--scale", "0.15"]) == 0
    out = capsys.readouterr().out
    assert "policy=all-near" in out
    assert "energy breakdown" in out


def test_run_with_policy_and_input(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["run", "HIST", "--policy", "unique-near",
                 "--input", "BMP24", "--threads", "4",
                 "--scale", "0.15"]) == 0
    assert "policy=unique-near" in capsys.readouterr().out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "NOPE"])


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "99"])


@pytest.mark.parametrize("argv", [["figure", "7", "--jobs"],
                                  ["golden", "--jobs"],
                                  ["bench", "--jobs"],
                                  ["serve", "--workers"]],
                         ids=["figure", "golden", "bench", "serve"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_worker_counts_must_be_positive(capsys, argv, count):
    """A worker count below 1 is a usage error, before any work runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv + [count])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"must be a positive integer, got '{count}'" in err


# --- observability commands -------------------------------------------


def test_profile_command(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["profile", "--workload", "histogram",
                 "--policy", "dynamo-reuse-pn",
                 "--threads", "4", "--scale", "0.15"]) == 0
    out = capsys.readouterr().out
    assert "latency histograms" in out
    assert "interval time-series" in out
    assert "policy decision breakdown" in out


def test_profile_accepts_code_or_name():
    from repro.cli import _workload_code
    assert _workload_code("HIST") == "HIST"
    assert _workload_code("hist") == "HIST"
    assert _workload_code("histogram") == "HIST"
    with pytest.raises(Exception):
        _workload_code("not-a-workload")


def test_profile_requires_workload(capsys):
    assert main(["profile"]) == 2
    assert "--workload is required" in capsys.readouterr().err


def test_profile_save_and_load(capsys, tmp_path):
    saved = tmp_path / "profile.json"
    assert main(["profile", "--workload", "COUNTER",
                 "--threads", "4", "--scale", "0.5",
                 "--save", str(saved)]) == 0
    first = capsys.readouterr().out
    assert saved.exists()
    assert main(["profile", "--load", str(saved)]) == 0
    second = capsys.readouterr().out
    # The rendered report replays identically from the saved payload.
    assert second.strip() in first


def test_perfetto_command(capsys, tmp_path):
    import json

    trace = tmp_path / "trace.jsonl"
    out = tmp_path / "chrome.json"
    assert main(["run", "COUNTER", "--threads", "4", "--scale", "0.5",
                 "--no-cache", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["perfetto", str(trace), str(out)]) == 0
    assert "trace events" in capsys.readouterr().out
    with open(out) as fh:
        document = json.load(fh)
    assert document["traceEvents"]


def test_perfetto_missing_input(capsys, tmp_path):
    assert main(["perfetto", str(tmp_path / "nope.jsonl"),
                 str(tmp_path / "out.json")]) == 1
    assert "perfetto:" in capsys.readouterr().err


class _FakeClock:
    """Stands in for ``time`` in :mod:`repro.obs.bench`.

    Each bench run reads ``perf_counter`` twice, so the runs measure the
    given walls in turn, whatever the host's speed.
    """

    strftime = staticmethod(time.strftime)

    def __init__(self, *walls):
        self._reads = [t for wall in walls for t in (0.0, wall)]

    def perf_counter(self):
        return self._reads.pop(0)


def test_bench_command(capsys, tmp_path, monkeypatch):
    import repro.obs.bench as bench

    # 1.0 s recorded, then a check at 1.0 s and one 20% slower.
    monkeypatch.setattr(bench, "time", _FakeClock(1.0, 1.0, 1.2))
    history = tmp_path / "bench.json"
    assert main(["bench", "--history", str(history)]) == 0
    out = capsys.readouterr().out
    assert "bench:" in out and "wall" in out
    assert history.exists()
    assert main(["bench", "--history", str(history), "--check",
                 "--no-append"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "REGRESSION" not in out
    assert main(["bench", "--history", str(history), "--check",
                 "--no-append"]) == 1
    assert "REGRESSION" in capsys.readouterr().out
