"""Command line of the benchmark.

    python -m bench run [--workload W] [--seed S] [--seconds N]
                        [--trace 0|1] [--smoke]
    python -m bench trace WORKLOAD [--seed S] [--seconds N] [--smoke]
    python -m bench reference
    python -m bench compare OLD NEW
    python -m bench report

``run`` prints a summary, one ``record: {json}`` line per workload and,
last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without ``--workload`` it runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

from bench import workloads as W
from bench.common import DEFAULT_SECONDS, RECORD, have_sources


def _cmd_run(workloads: List[str], seed: int, seconds: float, trace: bool,
             smoke: bool) -> int:
    from bench.run import RunError, describe, result_line, run_one

    if not have_sources():
        print("bench: no src/repro next to bench/; nothing to measure",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so every pass process group is killed
    # and its temp dir removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    records = []
    for name in workloads:
        try:
            record = run_one(name, seed, seconds, trace, smoke)
        except RunError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print(describe(record))
        print(RECORD + json.dumps(record, sort_keys=True), flush=True)
        records.append(record)
    if len(records) == 1:
        final = result_line(records[0])
    else:
        final = {"correct": all(r["correct"] for r in records),
                 "attempted": sum(r["attempted"] for r in records),
                 "failed": sum(r["failed"] for r in records),
                 "metrics": {f"{r['workload']}/{name}": value
                             for r in records
                             for name, value in
                             result_line(r)["metrics"].items()}}
    print(json.dumps(final, sort_keys=True), flush=True)
    return 0


def _cmd_reference() -> int:
    from bench.common import REFERENCE_PATH, use_sources
    from bench.oracle import build_reference, write_reference

    if not have_sources():
        print("bench: no src/repro next to bench/", file=sys.stderr)
        return 2
    use_sources()
    data = build_reference()
    write_reference(data)
    cells = sum(len(v) for v in data["workloads"].values())
    print(f"bench reference: {cells} cells at seeds {data['seeds']} -> "
          f"{REFERENCE_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads (untraced by "
                                     "default)")
    run.add_argument("--workload", choices=sorted(W.WORKLOADS),
                     help="one workload (default: all, each in turn)")
    trace = sub.add_parser("trace", help="traced run: per-layer metrics "
                                         "and bench/out/<w>.trace.json")
    trace.add_argument("workload", choices=sorted(W.WORKLOADS))
    for p in (run, trace):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                       help="timed seconds per run; whole passes are "
                            "measured until this much has elapsed")
        p.add_argument("--smoke", action="store_true",
                       help="a few cells and 20 requests, one pass "
                            "(for the bench's own tests)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)

    sub.add_parser("reference", help="recompute bench/reference.json")
    cmp_ = sub.add_parser("compare", help="compare two files of captured "
                                          "`bench run` output")
    cmp_.add_argument("old")
    cmp_.add_argument("new")
    sub.add_parser("report", help="Fig. 8 geomeans from the last sweep "
                                  "passes, beside the paper's values")
    args = parser.parse_args(argv)

    if args.command == "run":
        names = [args.workload] if args.workload else list(W.WORKLOADS)
        return _cmd_run(names, args.seed, args.seconds, bool(args.trace),
                        args.smoke)
    if args.command == "trace":
        return _cmd_run([args.workload], args.seed, args.seconds, True,
                        args.smoke)
    if args.command == "reference":
        return _cmd_reference()
    if args.command == "compare":
        from bench.compare import main as compare_main
        return compare_main(args.old, args.new)
    from bench.report import main as report_main
    return report_main()


if __name__ == "__main__":
    sys.exit(main())
