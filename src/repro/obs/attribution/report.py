"""``repro why`` / ``repro diff``: explain where a run's cycles went.

``why_spec`` runs one cell with the attribution sinks (``BlameSink``,
``AuditSink``) and the latency-histogram and interval sinks attached,
and returns a result whose metadata carries the ``blame``,
``amt_audit``, ``histograms`` and ``intervals`` payloads;
``why_payload`` flattens that into the JSON document the CLI emits
under ``--format json`` (schema pinned in
``tests/schemas/why.schema.json``).  ``diff_specs`` runs two policies on
the same workload and attributes their cycle delta category by
category, plus the top diverging locks and cache lines.

Explained runs always simulate fresh and never touch the result cache:
their metadata payloads must not leak into sweep cache files, or a
parallel sweep would stop being byte-identical to a serial one.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.harness.executor import RunSpec, execute_spec, spec_label
from repro.obs.attribution.categories import PATH_ORDER, label_for
from repro.obs.attribution.collect import AuditSink, BlameSink
from repro.obs.histogram import (HistogramSink, histograms_from_metadata,
                                 sparkline)
from repro.obs.timeseries import IntervalSink, deltas
from repro.sim.results import SimulationResult

#: ``repro why`` / ``repro diff`` JSON document schema version.
WHY_SCHEMA = 1

#: Human labels for the standard histogram set, in render order.
_HIST_LABELS = [
    ("amo_near", "AMO near"),
    ("amo_far", "AMO far"),
    ("lock_acquire", "lock acquire"),
    ("noc_queue", "NoC queueing"),
]

#: Interval-series rows: cumulative column -> label.
_INTERVAL_ROWS = [
    ("ops", "ops"),
    ("near_amos", "near AMOs"),
    ("far_amos", "far AMOs"),
    ("far_decisions", "far decisions"),
    ("invalidations", "invalidations"),
    ("llc_accesses", "LLC accesses"),
    ("dram_accesses", "DRAM accesses"),
]


def why_spec(spec: RunSpec) -> SimulationResult:
    """Simulate ``spec`` with the explaining sinks attached."""
    return execute_spec(spec, extra_sinks=(
        BlameSink(), AuditSink(), HistogramSink(), IntervalSink()))


def _spec_fields(spec: RunSpec) -> Dict[str, object]:
    return {"workload": spec.workload, "policy": spec.policy,
            "threads": spec.threads, "scale": spec.scale,
            "seed": spec.seed, "input": spec.input_name,
            "label": spec_label(spec)}


def why_payload(result: SimulationResult,
                spec: RunSpec) -> Dict[str, object]:
    """The ``repro why --format json`` document for one explained run."""
    return {
        "schema": WHY_SCHEMA,
        "spec": _spec_fields(spec),
        "cycles": result.cycles,
        "instructions": result.instructions,
        "amos": result.amos_committed,
        "blame": result.metadata["blame"],
        "amt_audit": result.metadata["amt_audit"],
        "histograms": result.metadata.get("histograms", {}),
        "intervals": result.metadata["intervals"],
    }


def diff_specs(spec_a: RunSpec,
               spec_b: RunSpec) -> Tuple[SimulationResult,
                                         SimulationResult]:
    """Run both sides of a ``repro diff`` (fresh, instrumented)."""
    return why_spec(spec_a), why_spec(spec_b)


def _path_blame(result: SimulationResult) -> Dict[str, int]:
    path: Dict[str, object] = result.metadata["blame"]["critical_path"]
    return path["blame"]  # type: ignore[return-value]


def diff_payload(result_a: SimulationResult, spec_a: RunSpec,
                 result_b: SimulationResult,
                 spec_b: RunSpec) -> Dict[str, object]:
    """The ``repro diff --format json`` document.

    The per-category delta compares the two critical-path blame vectors;
    since each vector sums to (approximately) its run's cycle count, the
    deltas sum to the cycle delta, and ``attributed_fraction`` reports
    how much of that delta lands in *named* categories (everything but
    the ``other`` residual and the walk's coverage slack).
    """
    blame_a = _path_blame(result_a)
    blame_b = _path_blame(result_b)
    delta_cycles = result_a.cycles - result_b.cycles
    categories = sorted(set(blame_a) | set(blame_b))
    delta_blame = {cat: blame_a.get(cat, 0) - blame_b.get(cat, 0)
                   for cat in categories}
    slack = delta_cycles - sum(delta_blame.values())
    unattributed = abs(delta_blame.get("other", 0)) + abs(slack)
    if delta_cycles:
        attributed = max(0.0, 1.0 - unattributed / abs(delta_cycles))
    else:
        attributed = 1.0 if not unattributed else 0.0

    def _diverging(key: str) -> List[Dict[str, object]]:
        side_a: Dict[str, int] = result_a.metadata["blame"][
            "critical_path"][key]
        side_b: Dict[str, int] = result_b.metadata["blame"][
            "critical_path"][key]
        rows = [{"addr": addr, "a": side_a.get(addr, 0),
                 "b": side_b.get(addr, 0),
                 "delta": side_a.get(addr, 0) - side_b.get(addr, 0)}
                for addr in set(side_a) | set(side_b)]
        rows.sort(key=lambda r: -abs(r["delta"]))  # type: ignore[arg-type]
        return rows[:8]

    def _diverging_blocks() -> List[Dict[str, object]]:
        tops: Dict[str, Dict[str, int]] = {}
        for result, side in ((result_a, "a"), (result_b, "b")):
            for row in result.metadata["blame"]["top_blocks"]:
                cell = tops.setdefault(row["block"], {"a": 0, "b": 0})
                cell[side] = row["cycles"]
        rows = [{"block": block, "a": cell["a"], "b": cell["b"],
                 "delta": cell["a"] - cell["b"]}
                for block, cell in tops.items()]
        rows.sort(key=lambda r: -abs(r["delta"]))  # type: ignore[arg-type]
        return rows[:8]

    return {
        "schema": WHY_SCHEMA,
        "a": why_payload(result_a, spec_a),
        "b": why_payload(result_b, spec_b),
        "delta_cycles": delta_cycles,
        "delta_blame": delta_blame,
        "slack": slack,
        "attributed_fraction": round(attributed, 4),
        "diverging_locks": _diverging("locks"),
        "diverging_barriers": _diverging("barriers"),
        "diverging_blocks": _diverging_blocks(),
    }


# --- rendering ------------------------------------------------------------


def _ordered(blame: Dict[str, int]) -> List[str]:
    known = [cat for cat in PATH_ORDER if cat in blame]
    return known + sorted(set(blame) - set(known))


def _render_blame_table(blame: Dict[str, int], total: int) -> List[str]:
    lines = [f"  {'category':30} {'cycles':>12} {'share':>7}"]
    width = 24
    for cat in _ordered(blame):
        cycles = blame[cat]
        if not cycles:
            continue
        share = cycles / total if total else 0.0
        bar = "#" * max(1, round(width * cycles / total)) if total else ""
        lines.append(f"  {label_for(cat):30} {cycles:>12} {share:>6.1%} "
                     f"{bar}")
    return lines


def render_why(result: SimulationResult, spec: RunSpec,
               top: int = 8) -> str:
    """Terminal report for one explained run."""
    blame = result.metadata["blame"]
    path = blame["critical_path"]
    audit = result.metadata["amt_audit"]
    lines: List[str] = [result.summary(), ""]

    lines.append(f"-- critical path (ends on core {path['end_core']}, "
                 f"{path['cycles']} cycles, "
                 f"coverage {path['coverage']:.1%}) --")
    lines.extend(_render_blame_table(path["blame"], path["cycles"]))
    if path["locks"]:
        lines.append("  locks on path (handoff cycles): " + ", ".join(
            f"{addr}={cycles}"
            for addr, cycles in list(path["locks"].items())[:top]))
    if path["barriers"]:
        lines.append("  barriers on path (wait cycles): " + ", ".join(
            f"{addr}={cycles}"
            for addr, cycles in list(path["barriers"].items())[:top]))
    lines.append("")

    lines.append(f"-- aggregate op blame ({blame['ops']} retired mem-ops; "
                 f"core-gating cycles) --")
    gate_total = sum(blame["gate_totals"].values())
    lines.extend(_render_blame_table(blame["gate_totals"], gate_total))
    hidden = blame["hidden_totals"]
    if hidden:
        lines.append("  hidden (store-buffer-absorbed) work: " + ", ".join(
            f"{cat}={hidden[cat]}" for cat in _ordered(hidden)))
    lines.append("")

    lines.append("-- hottest cache lines (gate + hidden cycles) --")
    rows = blame["top_blocks"][:top]
    if rows:
        lines.append(f"  {'block':>12} {'cycles':>10} {'handoffs':>9} "
                     f"{'cores':>6} {'invals':>7}  top categories")
        for row in rows:
            cats = sorted(row["bd"].items(), key=lambda kv: -kv[1])[:3]
            cat_text = " ".join(f"{cat}={cycles}" for cat, cycles in cats)
            lines.append(f"  {row['block']:>12} {row['cycles']:>10} "
                         f"{row['handoffs']:>9} {row['handoff_cores']:>6}"
                         f" {row['invalidations']:>7}  {cat_text}")
    else:
        lines.append("  (no retired mem-ops)")
    lines.append("")

    lines.append("-- AMT decision audit --")
    lines.append(f"  decided AMOs: {audit['decided']} "
                 f"(+{audit['unique_fast']} unique-fast, no decision); "
                 f"scored against counterfactual: {audit['scored']}; "
                 f"AMO-buffer hits: {result.stats.amo_buffer_hits}")
    if audit["groups"]:
        lines.append(f"  {'placement/group':24} {'count':>8} "
                     f"{'cycles':>10} {'est saved':>10}")
        for key, row in audit["groups"].items():
            lines.append(f"  {key:24} {row['count']:>8} "
                         f"{row['cycles']:>10} {row['est_saved']:>10.0f}")
        lines.append(f"  placement quality: saved={audit['cycles_saved']:.0f}"
                     f" lost={audit['cycles_lost']:.0f}"
                     f" net={audit['net_est_saved']:.0f} cycles"
                     " (vs per-block counterfactual placement)")
    else:
        lines.append("  (no decided AMOs)")
    lines.append("")
    lines.extend(_render_histograms(result))
    lines.append("")
    lines.extend(_render_intervals(result.metadata["intervals"]))
    return "\n".join(lines)


def _render_histograms(result: SimulationResult) -> List[str]:
    hists = histograms_from_metadata(result.metadata)
    lines = ["-- latency histograms (cycles, log2 buckets) --",
             f"  {'':14} {'count':>8} {'mean':>8} {'p50':>7} {'p90':>7} "
             f"{'p99':>7} {'max':>8}"]
    for key, label in _HIST_LABELS:
        hist = hists.get(key)
        if hist is None:
            continue
        lines.append(
            f"  {label:14} {hist.count:>8} {hist.mean:>8.1f} "
            f"{hist.percentile(50):>7.0f} {hist.percentile(90):>7.0f} "
            f"{hist.percentile(99):>7.0f} {hist.max_value:>8} "
            f"|{hist.sparkline()}|")
    if len(lines) == 2:
        lines.append("  (no latency events recorded)")
    return lines


def _render_intervals(payload: Dict[str, object]) -> List[str]:
    columns: Dict[str, List[int]] = payload["columns"]  # type: ignore
    lines = [f"-- interval time-series ({len(columns['cycle'])} samples, "
             f"{payload['interval']} cycles each; first -> last) --"]
    for key, label in _INTERVAL_ROWS:
        series = deltas(columns[key])
        if any(series):
            lines.append(f"  {label:14} |{sparkline(series)}| "
                         f"total={sum(series)}")
    conf = columns["amt_confidence_sum"]
    entries = columns["amt_entries"]
    if any(entries):
        mean_conf = [c / e if e else 0.0 for c, e in zip(conf, entries)]
        lines.append(f"  {'AMT confidence':14} |{sparkline(mean_conf)}| "
                     f"final mean={mean_conf[-1]:.1f} over "
                     f"{entries[-1]} entries")
    return lines


def render_diff(payload: Dict[str, object], top: int = 8) -> str:
    """Terminal report for a two-policy diff."""
    a: Dict[str, object] = payload["a"]  # type: ignore[assignment]
    b: Dict[str, object] = payload["b"]  # type: ignore[assignment]
    label_a = a["spec"]["label"]  # type: ignore[index]
    label_b = b["spec"]["label"]  # type: ignore[index]
    delta = payload["delta_cycles"]
    lines = [
        f"=== repro diff: A = {label_a}  vs  B = {label_b} ===",
        f"  cycles: A={a['cycles']} B={b['cycles']} delta={delta:+} "
        f"(B speedup over A: "
        f"{a['cycles'] / b['cycles']:.3f}x)",  # type: ignore[operator]
        f"  attributed to named categories: "
        f"{payload['attributed_fraction']:.1%} of the delta "
        f"(slack={payload['slack']:+}, "
        f"other={payload['delta_blame'].get('other', 0):+})",  # type: ignore
        "",
        "-- critical-path blame, side by side (cycles) --",
        f"  {'category':30} {'A':>12} {'B':>12} {'delta':>12}",
    ]
    blame_a: Dict[str, int] = a["blame"]["critical_path"]["blame"]
    blame_b: Dict[str, int] = b["blame"]["critical_path"]["blame"]
    delta_blame: Dict[str, int] = payload["delta_blame"]  # type: ignore
    for cat in _ordered(delta_blame):
        va, vb = blame_a.get(cat, 0), blame_b.get(cat, 0)
        if not va and not vb:
            continue
        lines.append(f"  {label_for(cat):30} {va:>12} {vb:>12} "
                     f"{delta_blame[cat]:>+12}")
    lines.append(f"  {'total':30} {sum(blame_a.values()):>12} "
                 f"{sum(blame_b.values()):>12} "
                 f"{sum(delta_blame.values()):>+12}")

    for key, title in (("diverging_locks", "top diverging locks"),
                       ("diverging_barriers", "top diverging barriers")):
        rows: List[Dict[str, object]] = payload[key]  # type: ignore
        if not rows:
            continue
        lines.append("")
        lines.append(f"-- {title} (on-path wait cycles) --")
        lines.append(f"  {'addr':>12} {'A':>10} {'B':>10} {'delta':>11}")
        for row in rows[:top]:
            lines.append(f"  {row['addr']:>12} {row['a']:>10} "
                         f"{row['b']:>10} {row['delta']:>+11}")

    rows = payload["diverging_blocks"]  # type: ignore[assignment]
    if rows:
        lines.append("")
        lines.append("-- top diverging cache lines (gate + hidden cycles) --")
        lines.append(f"  {'block':>12} {'A':>10} {'B':>10} {'delta':>11}")
        for row in rows[:top]:
            lines.append(f"  {row['block']:>12} {row['a']:>10} "
                         f"{row['b']:>10} {row['delta']:>+11}")

    audit_a: Dict[str, object] = a["amt_audit"]  # type: ignore[assignment]
    audit_b: Dict[str, object] = b["amt_audit"]  # type: ignore[assignment]
    lines.append("")
    lines.append("-- AMT placement quality (est cycles vs counterfactual) --")
    lines.append(f"  A ({label_a}): saved={audit_a['cycles_saved']:.0f} "
                 f"lost={audit_a['cycles_lost']:.0f} "
                 f"net={audit_a['net_est_saved']:.0f}")
    lines.append(f"  B ({label_b}): saved={audit_b['cycles_saved']:.0f} "
                 f"lost={audit_b['cycles_lost']:.0f} "
                 f"net={audit_b['net_est_saved']:.0f}")
    return "\n".join(lines)
