#!/usr/bin/env python3
"""Graph-analytics policy study: the workloads the paper's intro motivates.

Runs four Galois-style graph workloads (BFS relaxation, connected
components, GMETIS partitioning, shortest-path tree) under every static
policy and both DynAMO-Reuse flavours, and prints a per-workload ranking.
Shows how the best static policy changes per workload — the paper's core
observation — and how the predictor tracks the winner without profiling.

Run:  python examples/graph_analytics.py
"""

from repro.harness import Executor, speedups_vs_baseline

WORKLOADS = ["BFS", "CC", "GME", "SPT"]
POLICIES = ["all-near", "unique-near", "present-near", "dirty-near",
            "shared-far", "dynamo-reuse-un", "dynamo-reuse-pn"]


def main() -> None:
    executor = Executor()  # shares the on-disk cache with the benchmarks
    print("Simulating", len(WORKLOADS), "graph workloads x",
          len(POLICIES), "policies (cached runs are instant)...")
    grid = executor.sweep(WORKLOADS, POLICIES)
    speedups = speedups_vs_baseline(grid)

    header = f"{'workload':10} " + " ".join(f"{p[:10]:>11}" for p in POLICIES)
    print("\nSpeed-up over All Near")
    print(header)
    print("-" * len(header))
    for wl in WORKLOADS:
        row = " ".join(f"{speedups[wl][p]:>11.3f}" for p in POLICIES)
        print(f"{wl:10} {row}")

    print("\nBest static policy per workload:")
    for wl in WORKLOADS:
        statics = {p: s for p, s in speedups[wl].items()
                   if not p.startswith("dynamo")}
        best = max(statics, key=statics.get)
        dyn = speedups[wl]["dynamo-reuse-pn"]
        print(f"  {wl:6} best-static = {best:13s} "
              f"({statics[best]:.3f}x), DynAMO-Reuse-PN = {dyn:.3f}x")
    print("\nNo single static policy wins everywhere; the predictor stays")
    print("at or near the per-workload winner without being told which")
    print("workload it is running.")


if __name__ == "__main__":
    main()
