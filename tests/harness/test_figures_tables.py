"""Tests for figure drivers and table reporters (small inputs)."""

import pytest

from repro.harness import figures, tables
from repro.harness.runner import Runner
from repro.sim.config import DEFAULT_CONFIG


class TestTables:
    def test_table1_matches_paper_matrix(self):
        text = tables.table1()
        assert "all-near" in text and "present-near" in text
        # Unique Near row: far everywhere but the Unique states.
        row = next(line for line in text.splitlines()
                   if line.startswith("unique-near"))
        assert row.count("F") == 3

    def test_table2_lists_table_ii_rows(self):
        text = tables.table2()
        assert "32 out-of-order cores" in text
        assert "MOESI-like AMBA 5 CHI" in text

    def test_table3_measures_footprints(self):
        text = tables.table3(threads=4, scale=0.2,
                             workloads=("HIST", "RAD", "TC"))
        assert "Histogram" in text and "Radiosity" in text
        assert "KB" in text or "MB" in text

    def test_table4_dynamo_row_all_yes(self):
        text = tables.table4()
        row = next(line for line in text.splitlines()
                   if line.startswith("DynAMO"))
        assert row.count("yes") == 3

    def test_render_table_dispatch(self):
        assert tables.render_table("1") == tables.table1()
        with pytest.raises(KeyError):
            tables.render_table("99")


class TestFigure1:
    def test_shapes(self, tmp_path):
        runner = Runner(DEFAULT_CONFIG.scaled(8), cache_dir=str(tmp_path))
        data = figures.figure1(runner, threads=(1, 4, 8))
        near = data.series["Atomic-Near"]
        far_store = data.series["AtomicStore-Far"]
        far_load = data.series["AtomicLoad-Far"]
        # Single-threaded: near has the highest throughput.
        assert near[0] > far_store[0] > far_load[0]
        # AtomicLoad-Far improves with thread count relative to near.
        assert far_load[-1] > far_load[0]
        # High thread count: far AtomicStore beats near.
        assert far_store[-1] > near[-1]
        # Near throughput degrades with contention.
        assert near[0] > near[-1]

    def test_thread_counts_clamped_to_config(self, tmp_path):
        runner = Runner(DEFAULT_CONFIG.scaled(4), cache_dir=str(tmp_path))
        data = figures.figure1(runner, threads=(1, 2, 64))
        assert data.xs == [1, 2]

    def test_render(self, tmp_path):
        runner = Runner(DEFAULT_CONFIG.scaled(4), cache_dir=str(tmp_path))
        data = figures.figure1(runner, threads=(1, 2))
        text = data.render()
        assert "Figure 1" in text
        assert "Atomic-Near" in text


class TestFigureDrivers:
    def test_figure6_apki_split(self, tmp_runner):
        data = figures.figure6(tmp_runner, workloads=("HIST", "RAY"))
        total_hist = data.series["AtomicLoad"][0] + data.series["AtomicStore"][0]
        assert total_hist > 8  # HIST is an H workload
        assert data.series["AtomicStore"][0] > data.series["AtomicLoad"][0]

    def test_figure7_small_subset(self, tmp_runner):
        grid = figures.figure7(tmp_runner, workloads=("HIST", "RAY"))
        assert "best-static" in grid.policies
        assert grid.speedups["HIST"]["best-static"] >= \
            grid.speedups["HIST"]["present-near"]
        assert grid.geomeans["best-static"]["LMH"] >= 1.0
        assert "Figure 7" in grid.render()

    def test_figure8_small_subset(self, tmp_runner):
        grid = figures.figure8(tmp_runner, workloads=("HIST", "RAY"))
        assert set(grid.policies) == {"dynamo-metric", "dynamo-reuse-un",
                                      "dynamo-reuse-pn", "best-static"}
        for wl in ("HIST", "RAY"):
            assert grid.speedups[wl]["dynamo-reuse-pn"] > 0

    def test_figures_registry(self):
        assert set(figures.FIGURES) == {"1", "6", "7", "8", "9", "10", "11",
                                        "energy", "blame", "txn"}

    def test_txn_study_small(self, tmp_runner):
        data = figures.txn_study(tmp_runner,
                                 inputs=("zipf-0.5", "zipf-1.4"),
                                 policies=("all-near", "dynamo-reuse-pn"))
        assert data.xs == [0.5, 1.4]
        for policy in ("all-near", "dynamo-reuse-pn"):
            throughput = data.series[f"txn-throughput/{policy}"]
            p99 = data.series[f"p99-lock-acquire/{policy}"]
            assert all(t > 0 for t in throughput)
            # Sharper skew concentrates lock traffic on the hot keys:
            # the acquisition tail grows and throughput drops.
            assert p99[-1] > p99[0]
            assert throughput[-1] < throughput[0]

    def test_energy_study_small(self, tmp_runner):
        data = figures.energy_study(tmp_runner, workloads=("HIST", "RAY"))
        assert "unique-near/total" in data.series
        assert len(data.xs) == 3
