"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify two mechanisms the paper
argues for qualitatively:

* the dedicated **AMO buffer** at each home node (Section III-B2): far
  AMOs should lose throughput without it, because every far AMO then
  pays the slow LLC data-array access;
* **invalidation-ack routing** (DESIGN.md §6): collecting acks at the HN
  (CHI-faithful, our default) versus sending them directly to the
  requestor (DASH/Origin style), which cheapens near upgrades.
"""

from conftest import run_once

from repro.sim.config import DEFAULT_CONFIG


def _speedup(executor, workload, policy, **kwargs):
    base, other = executor.run_many(
        [executor.make_spec(workload, pol, **kwargs)
         for pol in ("all-near", policy)])
    return other.speedup_over(base)


def test_ablation_amo_buffer(benchmark, executor):
    """Removing the HN AMO buffer must hurt far execution on the
    buffer-friendly contended kernels."""
    def study():
        no_buffer = DEFAULT_CONFIG.replace(amo_buffer_entries=0)
        rows = {}
        for wl in ("HIST", "RSOR"):
            rows[wl] = (_speedup(executor, wl, "unique-near"),
                        _speedup(executor, wl, "unique-near",
                                 config=no_buffer))
        return rows

    rows = run_once(benchmark, study)
    print("\n=== Ablation: HN AMO buffer (Unique Near speed-up) ===")
    for wl, (with_buf, without) in rows.items():
        print(f"{wl:6} with-buffer={with_buf:.3f}  without={without:.3f}")
    # The buffer's win shows where back-to-back far AMOs hit the same
    # blocks (HIST's hot bins); elsewhere second-order queueing effects
    # can wobble a few percent either way.
    assert rows["HIST"][0] > rows["HIST"][1] + 0.1


def test_ablation_inval_ack_routing(benchmark, executor):
    """Direct-to-requestor invalidation acks cheapen near upgrades, so
    far-for-SC policies lose ground relative to the CHI-faithful mode."""
    def study():
        direct = DEFAULT_CONFIG.replace(direct_inval_acks=True)
        rows = {}
        for wl in ("KCOR", "SPT", "CC"):
            rows[wl] = (_speedup(executor, wl, "unique-near"),
                        _speedup(executor, wl, "unique-near", config=direct))
        return rows

    rows = run_once(benchmark, study)
    print("\n=== Ablation: invalidation-ack routing "
          "(Unique Near speed-up) ===")
    for wl, (chi, direct) in rows.items():
        print(f"{wl:6} chi-acks={chi:.3f}  direct-acks={direct:.3f}")
    # Averaged across the read-before-AMO workloads, the direct-ack mode
    # shifts the balance toward near (lower far speed-up).
    chi_avg = sum(v[0] for v in rows.values()) / len(rows)
    direct_avg = sum(v[1] for v in rows.values()) / len(rows)
    assert direct_avg <= chi_avg + 0.01
