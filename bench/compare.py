"""``python -m bench compare OLD NEW``: report-only comparison of two sets
of runs, by the rules of the choosing-metrics guide (sections 6 and 8).

OLD and NEW are files of captured ``bench run`` output; every
``record:`` line in them is one run.  Run the two commits in
alternating order: the i-th run of OLD and the i-th run of NEW of a
workload form a pair.  Per workload and end-to-end metric the report
gives each side's median and quartiles, the share of pairs NEW wins and
a verdict:

* ``worse``      — NEW's median is worse than OLD's by more than the bound;
* ``better``     — NEW wins at least 9 of 10 pairs and the medians differ
  by more than OLD's own spread (its interquartile distance);
* ``unresolved`` — OLD's spread is wider than the bound and not every
  NEW run beats every OLD run;
* ``unchanged``  — otherwise.

Traced runs are shown as per-layer medians side by side.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

from bench.common import RECORD, median, quartiles
from bench.metrics import END_TO_END, PER_LAYER, Metric


def read_records(path: str) -> List[Dict]:
    out = []
    with open(path) as fh:
        for line in fh:
            if line.startswith(RECORD):
                out.append(json.loads(line[len(RECORD):]))
    return out


def verdict(metric: Metric, old: Sequence[float],
            new: Sequence[float]) -> Tuple[str, float]:
    """``(verdict, share of pairs NEW wins)`` for one metric."""
    sign = 1.0 if metric.better == "higher" else -1.0

    def beats(a: float, b: float) -> bool:
        return (a - b) * sign > 0

    pairs = list(zip(old, new))
    wins = sum(beats(n, o) for o, n in pairs) / len(pairs) if pairs else 0.0
    m_old, m_new = median(old), median(new)
    q1, _, q3 = quartiles(old)
    spread = q3 - q1
    bound = metric.bound or 0.0
    if m_old and spread / abs(m_old) > bound:
        every = all(beats(n, o) for n in new for o in old)
        return ("better" if every else "unresolved"), wins
    if m_old and (m_old - m_new) * sign / abs(m_old) > bound:
        return "worse", wins
    if wins >= 0.9 and abs(m_new - m_old) > spread and beats(m_new, m_old):
        return "better", wins
    return "unchanged", wins


def _by_workload(records: List[Dict], trace: bool) -> Dict[str, List[Dict]]:
    out: Dict[str, List[Dict]] = {}
    for r in records:
        if bool(r.get("trace")) == trace and not r.get("smoke"):
            out.setdefault(r["workload"], []).append(r)
    return out


def _fmt(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def render(old: List[Dict], new: List[Dict]) -> str:
    lines = []
    old_e2e, new_e2e = _by_workload(old, False), _by_workload(new, False)
    for workload in sorted(set(old_e2e) & set(new_e2e)):
        o_runs, n_runs = old_e2e[workload], new_e2e[workload]
        lines.append(f"== {workload}: {len(o_runs)} old runs, "
                     f"{len(n_runs)} new runs "
                     f"(median [q1, q3]; wins = share of pairs new wins)")
        for m in END_TO_END:
            o = [r["metrics"][m.name] for r in o_runs if m.name in r["metrics"]]
            n = [r["metrics"][m.name] for r in n_runs if m.name in r["metrics"]]
            if not o or not n:
                continue
            what, wins = verdict(m, o, n)
            delta = (median(n) - median(o)) / median(o) if median(o) else 0.0
            lines.append(f"  {m.name:12s} {m.unit:5s} old {_fmt(o):34s} "
                         f"new {_fmt(n):34s} {delta:+7.1%} wins {wins:4.0%}"
                         f"  bound {m.bound:.0%}  {what}")
        failed_old = sum(r["failed"] for r in o_runs)
        failed_new = sum(r["failed"] for r in n_runs)
        lines.append(f"  failed ops: old {failed_old}, new {failed_new}")
    old_tr, new_tr = _by_workload(old, True), _by_workload(new, True)
    for workload in sorted(set(old_tr) & set(new_tr)):
        lines.append(f"== {workload} per layer (traced medians)")
        for m in PER_LAYER:
            o = [r["metrics"][m.name] for r in old_tr[workload]
                 if m.name in r["metrics"]]
            n = [r["metrics"][m.name] for r in new_tr[workload]
                 if m.name in r["metrics"]]
            if not o or not n:
                continue
            mo, mn = median(o), median(n)
            delta = f"{(mn - mo) / mo:+7.1%}" if mo else "    n/a"
            lines.append(f"  {m.name:28s} {mo:>14.6g} -> {mn:<14.6g} "
                         f"{delta} {m.unit}")
    if not lines:
        lines.append("compare: no workload has records in both files")
    return "\n".join(lines)


def main(old_path: str, new_path: str) -> int:
    print(render(read_records(old_path), read_records(new_path)))
    return 0
