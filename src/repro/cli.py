"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands:

* ``repro list`` — registered workloads and policies.
* ``repro run WORKLOAD [--policy P] [--threads N] [--scale S] [--input I]
  [--trace FILE [--stamps]]`` — simulate one cell and print its summary;
  ``--trace`` writes a per-event JSONL trace (bypasses the cache).
* ``repro figure {1,6,7,8,9,10,11,energy,blame,txn} [--jobs N]`` —
  regenerate a paper figure or study ("fig7"/"figure7" also accepted);
  ``--jobs`` fans cache misses out over worker processes (default:
  ``$REPRO_JOBS`` or serial).
* ``repro table {1,2,3,4}`` — print a paper table.
* ``repro cost [--entries N] [--ways W] [--counter-bits B]`` — AMT
  hardware cost (paper Section VI-G).
* ``repro why WORKLOAD POLICY [--format json] ...`` — the one-cell
  report: critical-path category breakdown (lock handoffs, barrier
  waits, NoC/home-node/DRAM legs), hottest cache lines by blamed cycles
  (with handoff and invalidation counts), AMT decision audit, latency
  histograms and the interval time-series; ``--format json`` prints
  the schema-validated document instead.
* ``repro diff WORKLOAD POLICY_A POLICY_B [--format json] ...`` —
  side-by-side cycle blame for two policies on one workload: per
  category delta attribution plus the top diverging locks and lines.
* ``repro perfetto TRACE.jsonl OUT.json`` — convert a ``--trace`` run
  to Chrome trace-event format (Perfetto / ``chrome://tracing``).
* ``repro bench [--check]`` — run the pinned micro-grid and append a
  wall-time record to ``BENCH_history.json``; ``--check`` exits
  non-zero on >15% wall-time regression.
* ``repro lint [WORKLOAD ...] [--all] [--format json] [--baseline F]
  [--write-baseline F]`` — static analysis: symbolic dry-run of the
  workload generators (races, deadlocks, false sharing, barrier
  divergence) plus coherence transition exhaustiveness; exits non-zero
  on unsuppressed errors not covered by the baseline.
* ``repro golden [--update] [--jobs N]`` — recompute the pinned
  golden-digest corpus (stats + trace hashes per workload x policy) and
  compare against ``tests/golden/digests.json``; ``--update`` is the
  only way to regenerate the committed digests.
* ``repro serve [--host H] [--port P] [--workers N] [--cache-dir D]``
  — long-running HTTP/JSON simulation service: ``POST /v1/batch``
  accepts validated RunSpec batches, hits answer straight from the
  sharded result cache, misses run on a bounded worker pool;
  ``GET /v1/batch/<id>`` polls (or ``?wait=s`` long-polls) per-cell
  progress and results, ``GET /v1/healthz`` / ``GET /v1/stats`` report
  liveness, hit ratio, queue depth and latency percentiles.
* ``repro check [--scope S ...] [--policy P ...] [--smoke]
  [--max-transitions N] [--format json] [--replay FILE]`` — small-scope
  model checker: explore every schedule of short op scripts on the real
  machine, checking SWMR, data values, AMO atomicity, deadlock freedom
  and policy/AMT spec conformance; ``--replay`` re-executes a recorded
  counterexample trace instead.  ``repro run --sanitize`` attaches
  the same invariants to a live simulation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.hardware_cost import amt_cost, l1d_area_ratio
from repro.core.registry import POLICIES
from repro.harness.executor import (Executor, ResultStore, env_int,
                                    execute_spec)
from repro.harness.figures import FIGURES
from repro.harness.tables import TABLES
from repro.sim.config import DEFAULT_CONFIG, PAPER_CONFIG
from repro.workloads import TABLE_III_CODES, WORKLOADS
from repro.workloads.base import check_scale, workload_code


def _workload_code(raw: str) -> str:
    """A workload as Table III code or human name (``hist``, ``histogram``)."""
    try:
        return workload_code(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(raw: str) -> int:
    """A count (workers, threads, rows): an integer >= 1."""
    if not raw.isdigit() or int(raw) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {raw!r}")
    return int(raw)


def _scale(raw: str) -> float:
    """A workload size factor: a positive, finite float."""
    try:
        return check_scale(float(raw))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _figure_name(raw: str) -> str:
    """Normalize figure names: "fig7", "figure7", "Fig 7" -> "7"."""
    name = raw.strip().lower()
    for prefix in ("figure", "fig"):
        if name.startswith(prefix):
            name = name[len(prefix):].lstrip(" -_")
            break
    return name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DynAMO (ISCA 2023) reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and policies")

    run = sub.add_parser("run", help="simulate one workload/policy cell")
    run.add_argument("workload", type=_workload_code,
                     help="Table III code or name (e.g. HIST or histogram)")
    run.add_argument("--policy", default="all-near",
                     choices=sorted(POLICIES))
    run.add_argument("--threads", type=_positive_int, default=None)
    run.add_argument("--scale", type=_scale, default=1.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--input", dest="input_name", default=None)
    run.add_argument("--paper-system", action="store_true",
                     help="use the full Table II system (32 cores)")
    run.add_argument("--no-cache", action="store_true")
    run.add_argument("--trace", metavar="FILE", default=None,
                     help="write a per-event JSONL trace to FILE "
                          "(runs uncached)")
    run.add_argument("--stamps", action="store_true",
                     help="with --trace: include stamp events (per-op "
                          "latency breakdowns, sync markers)")
    run.add_argument("--sanitize", action="store_true",
                     help="attach the runtime invariant sanitizer "
                          "(SWMR + AMO postconditions checked live; "
                          "runs uncached)")

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("which", type=_figure_name, choices=sorted(FIGURES),
                     help="figure name; 'fig7' and 'figure7' work too")
    fig.add_argument("--no-cache", action="store_true")
    fig.add_argument("--jobs", type=_positive_int, default=None,
                     help="worker processes for cache misses "
                          "(default: $REPRO_JOBS or 1)")

    tab = sub.add_parser("table", help="print a paper table")
    tab.add_argument("which", choices=sorted(TABLES))

    cost = sub.add_parser("cost", help="AMT hardware cost (Section VI-G)")
    cost.add_argument("--entries", type=int, default=128)
    cost.add_argument("--ways", type=int, default=4)
    cost.add_argument("--counter-bits", type=int, default=5)

    def _attrib_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--threads", type=_positive_int, default=None)
        p.add_argument("--scale", type=_scale, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--input", dest="input_name", default=None)
        p.add_argument("--paper-system", action="store_true",
                       help="use the full Table II system (32 cores)")
        p.add_argument("--top", type=_positive_int, default=8,
                       help="rows per table (locks, lines)")
        p.add_argument("--format", dest="fmt", choices=("text", "json"),
                       default="text")

    why = sub.add_parser(
        "why", help="explain one cell: critical path, per-category "
                    "latency decomposition, AMT decision audit, latency "
                    "histograms, interval time-series")
    why.add_argument("workload", type=_workload_code,
                     help="Table III code or name (e.g. HIST or histogram)")
    why.add_argument("policy", choices=sorted(POLICIES))
    _attrib_options(why)

    diff = sub.add_parser(
        "diff", help="side-by-side cycle blame for two policies on one "
                     "workload (delta attribution, diverging locks/lines)")
    diff.add_argument("workload", type=_workload_code,
                      help="Table III code or name")
    diff.add_argument("policy_a", choices=sorted(POLICIES))
    diff.add_argument("policy_b", choices=sorted(POLICIES))
    _attrib_options(diff)

    perf = sub.add_parser(
        "perfetto", help="convert a --trace JSONL file to Chrome "
                         "trace-event JSON (Perfetto/chrome://tracing)")
    perf.add_argument("trace", help="JSONL trace from `repro run --trace`")
    perf.add_argument("output", help="Chrome trace-event JSON to write")

    bench = sub.add_parser(
        "bench", help="run the pinned micro-grid and append wall-time "
                      "numbers to the benchmark history")
    bench.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes (part of the record key)")
    bench.add_argument("--history", metavar="FILE", default=None,
                       help="history file (default: BENCH_history.json)")
    bench.add_argument("--check", action="store_true",
                       help="exit non-zero on >15%% wall-time regression "
                            "vs recent history")
    bench.add_argument("--no-append", action="store_true",
                       help="measure and check without recording")

    lint = sub.add_parser(
        "lint", help="static analysis: race/deadlock/false-sharing "
                     "linter + coherence transition checker")
    lint.add_argument("workloads", nargs="*", type=_workload_code,
                      help="Table III codes or names to lint")
    lint.add_argument("--all", action="store_true", dest="lint_all",
                      help="lint every registered workload and the "
                           "coherence model")
    lint.add_argument("--threads", type=_positive_int, default=8,
                      help="cores to dry-run each workload with")
    lint.add_argument("--scale", type=_scale, default=1.0)
    lint.add_argument("--seed", type=int, default=0)
    lint.add_argument("--format", dest="fmt", choices=("text", "json"),
                      default="text")
    lint.add_argument("--baseline", metavar="FILE", default=None,
                      help="fail only on errors absent from this snapshot")
    lint.add_argument("--write-baseline", metavar="FILE", default=None,
                      help="snapshot current findings and exit")
    lint.add_argument("--no-coherence", action="store_true",
                      help="skip the coherence transition checker")

    golden = sub.add_parser(
        "golden", help="check (or --update) the committed golden-trace "
                       "digest corpus")
    golden.add_argument("--update", action="store_true",
                        help="regenerate the committed digests (the only "
                             "sanctioned way to change them)")
    golden.add_argument("--digests", metavar="FILE", default=None,
                        help="digest corpus file "
                             "(default: tests/golden/digests.json)")
    golden.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for the recompute")

    srv = sub.add_parser(
        "serve", help="long-running HTTP/JSON simulation service "
                      "(batch API over the sharded result cache)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8321,
                     help="TCP port; 0 picks an ephemeral port "
                          "(default: 8321)")
    srv.add_argument("--workers", type=_positive_int, default=None,
                     help="number of flight threads, and of worker "
                          "processes that simulate misses "
                          "(default: $REPRO_JOBS or 4)")
    srv.add_argument("--cache-dir", default=None,
                     help="result cache directory "
                          "(default: $REPRO_CACHE_DIR or .repro_cache); "
                          "$REPRO_CACHE_BYTES bounds it with LRU "
                          "eviction, $REPRO_MEMO_ENTRIES caps the "
                          "in-memory memo")

    check = sub.add_parser(
        "check", help="small-scope model checker: exhaustively verify "
                      "coherence + AMO placement on the real machine")
    check.add_argument("--scope", action="append", dest="scopes",
                       metavar="NAME", default=None,
                       help="scope name (repeatable; default: all)")
    check.add_argument("--policy", action="append", dest="policies",
                       metavar="NAME", default=None,
                       help="policy name (repeatable; default: all)")
    check.add_argument("--smoke", action="store_true",
                       help="the fast CI subset of scopes")
    check.add_argument("--max-transitions", type=int, default=None,
                       help="per-cell transition budget")
    check.add_argument("--format", dest="fmt", choices=("text", "json"),
                       default="text")
    check.add_argument("--replay", metavar="FILE", default=None,
                       help="re-execute a recorded counterexample trace "
                            "(JSON from a --format json violation) "
                            "instead of exploring")
    return parser


def _cmd_list() -> int:
    print("Workloads (Table III order):")
    for code in TABLE_III_CODES:
        spec = WORKLOADS[code].spec
        print(f"  {code:8} {spec.name:14} {spec.suite:9} "
              f"[{spec.intensity}] {spec.primitives}")
    extra = sorted(set(WORKLOADS) - set(TABLE_III_CODES))
    for code in extra:
        spec = WORKLOADS[code].spec
        print(f"  {code:8} {spec.name:14} {spec.suite:9} "
              f"[{spec.intensity}] {spec.primitives}")
    print("\nPolicies:")
    for name in POLICIES:
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.modelcheck.sanitize import (SanitizerError,
                                                    SanitizerSink)

    config = PAPER_CONFIG if args.paper_system else DEFAULT_CONFIG
    executor = Executor(store=ResultStore(enabled=not args.no_cache),
                        config=config)
    spec = executor.make_spec(args.workload, args.policy,
                              threads=args.threads, scale=args.scale,
                              input_name=args.input_name, seed=args.seed)
    if args.trace or args.sanitize:
        # Traced/sanitized runs always simulate: a cached result has no
        # events for the sinks to consume.
        from repro.sim.events import TraceSink

        sinks = []
        trace_sink = None
        if args.trace:
            trace_sink = TraceSink(args.trace, stamps=args.stamps)
            sinks.append(trace_sink)
        san_sink = None
        if args.sanitize:
            san_sink = SanitizerSink()
            sinks.append(san_sink)
        try:
            result = execute_spec(spec, extra_sinks=tuple(sinks))
        except SanitizerError as exc:
            print(f"sanitizer: INVARIANT VIOLATION: {exc}", file=sys.stderr)
            return 1
        print(result.summary())
        if trace_sink is not None:
            print(f"  trace: {trace_sink.events_written} events -> "
                  f"{args.trace} (amo-near={trace_sink.near_events} "
                  f"amo-far={trace_sink.far_events})")
        if san_sink is not None:
            print(f"  sanitizer: {san_sink.checks} event checks, "
                  f"{san_sink.sweeps} full SWMR sweeps, all clean")
    else:
        result = executor.run(spec)
        print(result.summary())
    print(f"  energy breakdown (nJ): "
          + ", ".join(f"{k}={v:.1f}" for k, v in result.energy.items()))
    print(f"  messages: {result.traffic.total_messages()} "
          f"({result.traffic.flit_hops} flit-hops)")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    store = ResultStore(enabled=not args.no_cache)
    data = FIGURES[args.which](executor=Executor(args.jobs, store))
    print(data.render())
    return 0


def _attrib_spec(args: argparse.Namespace, policy: str):
    from repro.harness.executor import make_spec

    config = PAPER_CONFIG if args.paper_system else DEFAULT_CONFIG
    return make_spec(args.workload, policy, threads=args.threads,
                     scale=args.scale, seed=args.seed,
                     input_name=args.input_name, config=config)


def _cmd_why(args: argparse.Namespace) -> int:
    from repro.obs.attribution.report import (render_why, why_payload,
                                              why_spec)

    spec = _attrib_spec(args, args.policy)
    result = why_spec(spec, args.top)
    if args.fmt == "json":
        print(json.dumps(why_payload(result, spec), sort_keys=True))
    else:
        print(render_why(result, spec, top=args.top))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.attribution.report import (diff_payload, diff_specs,
                                              render_diff)

    spec_a = _attrib_spec(args, args.policy_a)
    spec_b = _attrib_spec(args, args.policy_b)
    result_a, result_b = diff_specs(spec_a, spec_b, args.top)
    payload = diff_payload(result_a, spec_a, result_b, spec_b, args.top)
    if args.fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(render_diff(payload, top=args.top))
    return 0


def _cmd_perfetto(args: argparse.Namespace) -> int:
    from repro.obs.perfetto import TraceFormatError, convert_file

    try:
        written = convert_file(args.trace, args.output)
    except (OSError, TraceFormatError) as exc:
        print(f"perfetto: {exc}", file=sys.stderr)
        return 1
    print(f"{written} trace events -> {args.output} "
          f"(load in Perfetto or chrome://tracing)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import DEFAULT_HISTORY, bench_main

    code, report = bench_main(
        history_path=args.history or DEFAULT_HISTORY,
        jobs=args.jobs, check=args.check, append=not args.no_append)
    print(report)
    return code


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (apply_baseline, error_count, lint_all,
                                load_baseline, render_json, render_text,
                                save_baseline)

    if args.lint_all:
        codes = list(WORKLOADS)
    elif args.workloads:
        codes = args.workloads
    else:
        print("lint: name workloads to check or pass --all",
              file=sys.stderr)
        return 2
    with_coherence = args.lint_all and not args.no_coherence

    findings = lint_all(codes, num_threads=args.threads, scale=args.scale,
                        seed=args.seed, with_coherence=with_coherence)

    if args.write_baseline is not None:
        written = save_baseline(findings, args.write_baseline)
        print(f"lint: baseline with {written} finding(s) -> "
              f"{args.write_baseline}")
        return 0

    gated = findings
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2
        gated = apply_baseline(findings, baseline)

    if args.fmt == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))

    errors = error_count(gated)
    if errors:
        what = "new error(s) vs baseline" if args.baseline else "error(s)"
        print(f"lint: {errors} {what}", file=sys.stderr)
        return 1
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    from repro.harness.golden import DEFAULT_DIGEST_PATH, golden_main

    code, report = golden_main(
        path=args.digests or DEFAULT_DIGEST_PATH,
        update=args.update, jobs=args.jobs)
    print(report)
    return code


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.modelcheck import (check_grid, replay_trace,
                                           scope_by_name)
    from repro.analysis.modelcheck.explore import DEFAULT_MAX_TRANSITIONS
    from repro.analysis.modelcheck.report import render_json, render_text
    from repro.analysis.modelcheck.scope import SMOKE_SCOPES

    if args.replay is not None:
        try:
            with open(args.replay) as fh:
                trace = json.load(fh)
            result = replay_trace(trace)
        except (OSError, ValueError, KeyError,
                json.JSONDecodeError) as exc:
            print(f"check: bad trace: {exc}", file=sys.stderr)
            return 2
        for rec in result.violations:
            v = rec.violation
            print(f"step {v.step} (core {v.core}): {v.invariant}: "
                  f"{v.message}")
        if result.expected is not None:
            verdict = ("reproduced" if result.reproduced
                       else "NOT reproduced")
            print(f"replayed {result.steps} steps: recorded "
                  f"{result.expected.get('invariant')} violation "
                  f"{verdict}")
        else:
            print(f"replayed {result.steps} steps: "
                  f"{len(result.violations)} violation(s)")
        return 1 if result.violations else 0

    try:
        if args.smoke:
            names = list(SMOKE_SCOPES)
            if args.scopes:
                names = [n for n in names if n in args.scopes]
            scopes = [scope_by_name(n) for n in names]
        elif args.scopes:
            scopes = [scope_by_name(n) for n in args.scopes]
        else:
            scopes = None
    except KeyError as exc:
        print(f"check: {exc.args[0]}", file=sys.stderr)
        return 2
    policies = args.policies
    if policies:
        bad = [p for p in policies if p not in POLICIES]
        if bad:
            print(f"check: unknown policies {bad} "
                  f"(try `repro list`)", file=sys.stderr)
            return 2
    budget = (args.max_transitions if args.max_transitions is not None
              else DEFAULT_MAX_TRANSITIONS)
    report = check_grid(scopes, policies, max_transitions=budget)
    if args.fmt == "json":
        print(json.dumps(render_json(report), sort_keys=True))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import serve_forever

    workers = args.workers or env_int("REPRO_JOBS", 4)
    store = ResultStore(args.cache_dir)
    return serve_forever(args.host, args.port, workers, store=store)


def _cmd_cost(args: argparse.Namespace) -> int:
    cost = amt_cost(args.entries, args.ways, args.counter_bits)
    print(cost.describe())
    print(f"L1D is ~{l1d_area_ratio(cost):.1f}x larger than this AMT")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.stamps and not args.trace:
        parser.error("run: --stamps needs --trace")
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "table":
        print(TABLES[args.which]())
        return 0
    if args.command == "cost":
        return _cmd_cost(args)
    if args.command == "why":
        return _cmd_why(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "perfetto":
        return _cmd_perfetto(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "golden":
        return _cmd_golden(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "serve":
        return _cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
