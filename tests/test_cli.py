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


@pytest.mark.parametrize("argv", [
    ["figure", "7", "--jobs"],
    ["golden", "--jobs"],
    ["bench", "--jobs"],
    ["serve", "--workers"],
    ["run", "COUNTER", "--threads"],
    ["why", "WAT", "all-near", "--threads"],
    ["diff", "WAT", "all-near", "present-near", "--threads"],
    ["lint", "WAT", "--threads"],
    ["why", "WAT", "all-near", "--top"],
    ["diff", "WAT", "all-near", "present-near", "--top"],
], ids=["figure", "golden", "bench", "serve", "run-threads", "why-threads",
        "diff-threads", "lint-threads", "why-top", "diff-top"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_worker_counts_must_be_positive(capsys, argv, count):
    """A count below 1 is a usage error, before any work runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv + [count])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"must be a positive integer, got '{count}'" in err


@pytest.mark.parametrize("argv", [
    ["run", "COUNTER"],
    ["why", "WAT", "all-near"],
    ["diff", "WAT", "all-near", "present-near"],
    ["lint", "WAT"],
], ids=["run", "why", "diff", "lint"])
@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "1e999"])
def test_scales_must_be_positive_and_finite(capsys, argv, scale):
    """A size factor no workload can use is a usage error as well."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--scale", scale])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "scale must be positive and finite" in err


@pytest.mark.parametrize("argv,section", [
    (["why", "HIST", "dynamo-reuse-pn"], "-- hottest cache lines"),
    (["diff", "HIST", "all-near", "dynamo-reuse-pn"],
     "-- top diverging cache lines"),
], ids=["why", "diff"])
def test_top_shows_that_many_rows(capsys, argv, section):
    """``--top 20`` prints 20 rows on a cell with more than 20 lines
    (the blame once kept 16 lines and the diff 8 rows whatever it was
    asked for)."""
    assert main(argv + ["--threads", "4", "--scale", "0.15",
                        "--top", "20"]) == 0
    table = capsys.readouterr().out.split(section)[1].split("\n\n")[0]
    rows = table.splitlines()[2:]  # past the title tail and the header
    assert len(rows) == 20
    assert all(row.split()[0].startswith("0x") for row in rows)


# --- observability commands -------------------------------------------


def test_profile_command(capsys, tmp_path, monkeypatch):
    """``profile`` is gone; ``why`` renders everything it showed."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["why", "histogram", "dynamo-reuse-pn",
                 "--threads", "4", "--scale", "0.15"]) == 0
    out = capsys.readouterr().out
    assert "latency histograms" in out
    assert "interval time-series" in out
    hottest = out.split("-- hottest cache lines")[1].splitlines()
    assert hottest[1].split()[:5] == ["block", "cycles", "handoffs",
                                      "cores", "invals"]
    assert "AMO-buffer hits:" in out
    assert not list(tmp_path.iterdir())  # explained runs bypass the cache
    with pytest.raises(SystemExit) as exc:
        main(["profile"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage:")


def test_profile_accepts_code_or_name(capsys):
    from repro.workloads.base import workload_code
    assert workload_code("HIST") == "HIST"
    assert workload_code("hist") == "HIST"
    assert workload_code("histogram") == "HIST"
    with pytest.raises(ValueError, match="unknown workload"):
        workload_code("not-a-workload")
    outputs = []
    for name in ("HIST", "hist", "histogram"):
        assert main(["run", name, "--threads", "4", "--scale", "0.1",
                     "--no-cache"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs.count(outputs[0]) == 3
    with pytest.raises(SystemExit) as exc:
        main(["run", "not-a-workload"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "unknown workload 'not-a-workload'" in err


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
