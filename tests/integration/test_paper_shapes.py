"""Integration tests: the paper's headline qualitative results.

These run real workloads on the default (16-core) system and assert the
*shapes* the paper reports — who wins, and in roughly which direction —
not absolute numbers.  They use the shared on-disk cache, so repeated
test runs (and the benchmark suite) reuse each other's simulations.
"""

import pytest

from repro.harness.executor import Executor

executor = Executor()


def speedup(workload, policy, **kwargs):
    base, other = executor.run_many(
        [executor.make_spec(workload, pol, **kwargs)
         for pol in ("all-near", policy)])
    return other.speedup_over(base)


class TestStaticPolicyShapes:
    def test_streaming_kernels_favor_far(self):
        """HIST/SPMV/RSOR: far execution wins big (paper Fig. 7)."""
        for wl in ("HIST", "SPMV", "RSOR"):
            assert speedup(wl, "unique-near") > 1.2, wl

    def test_spt_punishes_unique_near(self):
        """SPT's CAS bursts need the block near (paper: UN loses)."""
        assert speedup("SPT", "unique-near") < 0.9

    def test_present_near_never_catastrophic(self):
        """Present Near stays within a few percent of All Near even on
        near-friendly workloads (its safety property)."""
        for wl in ("RAY", "WAT", "SPT", "BFS", "CC"):
            assert speedup(wl, "present-near") > 0.95, wl

    def test_reuse_workloads_punish_shared_far(self):
        """Read-before-AMO workloads lose under far-for-SC policies.

        KCOR is excluded: with CHI-faithful invalidation-ack routing our
        model has far-for-SC roughly tie on it (see EXPERIMENTS.md's
        divergence list); BFS and RAY reproduce the paper's direction.
        """
        for wl in ("BFS", "RAY"):
            assert speedup(wl, "shared-far") <= 1.0, wl


class TestDynamoShapes:
    def test_reuse_pn_never_below_baseline(self):
        """The paper's key DynAMO-Reuse-PN property: >= All Near
        everywhere (within noise)."""
        for wl in ("RAY", "SPT", "CC", "CLU", "HIST", "RSOR", "SPMV",
                   "GME", "BFS"):
            assert speedup(wl, "dynamo-reuse-pn") >= 0.97, wl

    def test_reuse_pn_captures_streaming_wins(self):
        for wl in ("HIST", "SPMV", "RSOR"):
            assert speedup(wl, "dynamo-reuse-pn") > 1.15, wl

    def test_predictors_below_best_static_on_hist(self):
        """Paper Section VI-C: on HIST/SPMV the predictors do NOT match
        the best static policy."""
        assert speedup("HIST", "dynamo-reuse-pn") < \
            speedup("HIST", "unique-near")

    def test_metric_predictor_roughly_baseline(self):
        """Paper: DynAMO-Metric performs about as well as All Near."""
        for wl in ("RAY", "CC"):
            assert 0.9 < speedup(wl, "dynamo-metric") < 1.1, wl


class TestInputSensitivity:
    def test_unique_near_flips_with_input(self):
        """Fig. 9: UN wins on streaming inputs, loses (or at best ties)
        on locality inputs."""
        assert speedup("HIST", "unique-near", input_name="IMG") > 1.3
        assert speedup("HIST", "unique-near", input_name="BMP24") < 0.8
        assert speedup("SPMV", "unique-near", input_name="JP") > 1.3
        assert speedup("SPMV", "unique-near", input_name="rma10") < 1.1

    def test_dynamo_adapts_to_both_inputs(self):
        assert speedup("HIST", "dynamo-reuse-pn", input_name="IMG") > 1.2
        assert speedup("HIST", "dynamo-reuse-pn", input_name="BMP24") > 0.95
        assert speedup("SPMV", "dynamo-reuse-pn", input_name="JP") > 1.2
        assert speedup("SPMV", "dynamo-reuse-pn", input_name="rma10") > 0.95


class TestSystemSensitivity:
    def test_insensitive_to_memory_latency(self):
        """Fig. 11: halving/doubling HBM latency barely moves DynAMO's
        relative gain."""
        cfg = executor.config
        gains = []
        for mem in (cfg.mem_latency // 2, cfg.mem_latency * 2):
            gains.append(speedup("HIST", "dynamo-reuse-pn",
                                 config=cfg.replace(mem_latency=mem)))
        assert gains[0] == pytest.approx(gains[1], rel=0.25)
