"""Figure drivers: regenerate every figure of the paper's evaluation.

Each ``figureN`` function runs the simulations that figure needs (through
the caching :class:`~repro.harness.executor.Executor`) and returns a
structured result object with the same series/rows the paper plots, plus
a ``render()`` that prints them.  The benchmark suite calls these drivers
and asserts the paper's qualitative shapes on the returned data.

Drivers plan their whole grid as :class:`~repro.harness.executor.RunSpec`
batches and submit them through ``Executor.run_many`` / ``Executor.sweep``,
so an executor constructed with ``jobs > 1`` (or ``$REPRO_JOBS``) fans
the figure's cache misses out over worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.registry import STATIC_POLICY_NAMES
from repro.energy.model import energy_breakdown
from repro.harness.executor import Executor, execute_spec
from repro.harness.report import (apki_classes, best_static_speedups,
                                  format_series, format_table, set_geomeans,
                                  speedups_vs_baseline)
from repro.sim.config import SystemConfig
from repro.workloads import TABLE_III_CODES, make_workload

BASELINE = "all-near"
DYNAMO_POLICIES = ["dynamo-metric", "dynamo-reuse-un", "dynamo-reuse-pn"]

#: Thread counts of the Fig. 1 sweep.
FIG1_THREADS = (1, 2, 4, 8, 16)


@dataclass
class FigureData:
    """Common result container: named series over a shared x-axis."""

    name: str
    xlabel: str
    xs: List
    series: Dict[str, List[float]]
    notes: str = ""

    def render(self) -> str:
        lines = [f"=== {self.name} ==="]
        if self.notes:
            lines.append(self.notes)
        for label, ys in self.series.items():
            lines.append(format_series(label, self.xs, ys))
        return "\n".join(lines)


@dataclass
class SpeedupGrid:
    """Per-workload speed-up bars plus the paper's geomean columns."""

    name: str
    policies: List[str]
    speedups: Dict[str, Dict[str, float]]  # workload -> policy -> speed-up
    classes: Dict[str, str]
    geomeans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    notes: str = ""

    def compute_geomeans(self) -> None:
        for policy in self.policies:
            per_wl = {wl: self.speedups[wl][policy] for wl in self.speedups}
            self.geomeans[policy] = set_geomeans(per_wl, self.classes)

    def render(self) -> str:
        headers = ["workload", "class"] + list(self.policies)
        rows = []
        for wl in self.speedups:
            rows.append([wl, self.classes.get(wl, "?")]
                        + [self.speedups[wl][p] for p in self.policies])
        for agg in ("LMH", "MH", "H"):
            rows.append([f"geomean-{agg}", agg]
                        + [self.geomeans[p][agg] for p in self.policies])
        out = format_table(headers, rows, title=f"=== {self.name} ===")
        if self.notes:
            out += "\n" + self.notes
        return out


#: Fig. 1's series: (label, policy, AMOCOST input).  AMOCOST's ``-w1``
#: inputs are the shared-counter loop (every thread on one word).
FIG1_SERIES = (
    # Near execution costs the same for load- and store-type AMOs (an
    # L1 hit either way); the store-type loop is used so the near and
    # far-store series differ only in placement.
    ("Atomic-Near", "all-near", "stadd-w1"),
    ("AtomicLoad-Far", "unique-near", "ldadd-w1"),
    ("AtomicStore-Far", "unique-near", "stadd-w1"),
)


def figure1(executor: Optional[Executor] = None,
            threads: Sequence[int] = FIG1_THREADS) -> FigureData:
    """Fig. 1: near vs far AMO throughput on one shared counter.

    Three mechanisms: Atomic-Near (stadd, All Near), AtomicLoad-Far
    (ldadd, Unique Near) and AtomicStore-Far (stadd, Unique Near).
    """
    executor = executor or Executor()
    threads = [t for t in threads if t <= executor.config.num_cores]
    specs = [executor.make_spec("AMOCOST", policy, threads=t,
                                input_name=inp)
             for _, policy, inp in FIG1_SERIES for t in threads]
    results = iter(executor.run_many(specs))
    series = {
        label: [next(results).throughput_per_kilocycle(
                    make_workload("AMOCOST", t, input_name=inp).total_updates)
                for t in threads]
        for label, _, inp in FIG1_SERIES}
    return FigureData(
        name="Figure 1: shared-counter AMO throughput",
        xlabel="threads", xs=list(threads), series=series,
        notes="updates per kilocycle; higher is better")


def figure6(executor: Optional[Executor] = None,
            workloads: Sequence[str] = tuple(TABLE_III_CODES)) -> FigureData:
    """Fig. 6: committed AMOs per kilo-instruction per workload, split
    into AtomicLoad and AtomicStore, under the All Near baseline."""
    executor = executor or Executor()
    results = executor.run_many(
        [executor.make_spec(code, BASELINE) for code in workloads])
    loads, stores = [], []
    for res in results:
        total = res.stats.amo_loads + res.stats.amo_stores
        if total:
            load_frac = res.stats.amo_loads / total
        else:
            load_frac = 0.0
        loads.append(res.apki * load_frac)
        stores.append(res.apki * (1.0 - load_frac))
    return FigureData(
        name="Figure 6: AMOs per kilo-instruction (APKI)",
        xlabel="workload", xs=list(workloads),
        series={"AtomicLoad": loads, "AtomicStore": stores},
        notes="stacked: AtomicLoad + AtomicStore = total APKI; "
              "sets: L < 2, M < 8, H >= 8")


def _speedup_grid(name: str, policies: List[str],
                  executor: Optional[Executor],
                  workloads: Sequence[str],
                  notes: str = "") -> SpeedupGrid:
    """Speed-ups of ``policies`` over All Near; the figure computes the
    geomeans once its rows are final."""
    executor = executor or Executor()
    grid = executor.sweep(workloads, [BASELINE] + policies)
    speedups = speedups_vs_baseline(grid, BASELINE)
    classes = apki_classes({wl: grid[wl][BASELINE] for wl in workloads})
    for wl in speedups:
        speedups[wl].pop(BASELINE, None)
    return SpeedupGrid(name=name, policies=policies, speedups=speedups,
                       classes=classes, notes=notes)


def figure7(executor: Optional[Executor] = None,
            workloads: Sequence[str] = tuple(TABLE_III_CODES)) -> SpeedupGrid:
    """Fig. 7: static-policy speed-ups over All Near + Best Static bar."""
    policies = [p for p in STATIC_POLICY_NAMES if p != BASELINE]
    data = _speedup_grid("Figure 7: static AMO policies (vs All Near)",
                         policies, executor, workloads,
                         notes="best-static = per-workload max over the "
                               "static policies")
    for wl, best in best_static_speedups(data.speedups).items():
        data.speedups[wl]["best-static"] = best
    data.policies = policies + ["best-static"]
    data.compute_geomeans()
    return data


def figure8(executor: Optional[Executor] = None,
            workloads: Sequence[str] = tuple(TABLE_III_CODES)) -> SpeedupGrid:
    """Fig. 8: DynAMO predictor speed-ups over All Near + Best Static."""
    static = [p for p in STATIC_POLICY_NAMES if p != BASELINE]
    data = _speedup_grid("Figure 8: DynAMO predictors (vs All Near)",
                         static + DYNAMO_POLICIES, executor, workloads)
    statics = {wl: {p: row.pop(p) for p in static}
               for wl, row in data.speedups.items()}
    for wl, best in best_static_speedups(statics).items():
        data.speedups[wl]["best-static"] = best
    data.policies = DYNAMO_POLICIES + ["best-static"]
    data.compute_geomeans()
    return data


#: The Fig. 9 input-sensitivity matrix: workload -> inputs to compare.
FIG9_INPUTS = {"SPMV": ("JP", "rma10"), "HIST": ("IMG", "BMP24")}


def figure9(executor: Optional[Executor] = None) -> FigureData:
    """Fig. 9: input sensitivity of SPMV and HIST.

    Unique Near wins on the streaming inputs (JP / uniform image) and
    loses on the locality inputs (rma10 / skewed image), while
    DynAMO-Reuse-PN adapts to both.
    """
    executor = executor or Executor()
    cells = [(wl, inp) for wl, inputs in FIG9_INPUTS.items()
             for inp in inputs]
    policies = (BASELINE, "unique-near", "dynamo-reuse-pn")
    results = iter(executor.run_many(
        [executor.make_spec(wl, pol, input_name=inp)
         for wl, inp in cells for pol in policies]))
    xs, un, dyn = [], [], []
    for wl, inp in cells:
        base, un_res, dyn_res = [next(results) for _ in policies]
        xs.append(f"{wl}/{inp}")
        un.append(un_res.speedup_over(base))
        dyn.append(dyn_res.speedup_over(base))
    return FigureData(
        name="Figure 9: input sensitivity (vs All Near)",
        xlabel="workload/input", xs=xs,
        series={"unique-near": un, "dynamo-reuse-pn": dyn})


#: AMT sizing sweep points (paper Fig. 10).
FIG10_ENTRIES = (32, 64, 128, 256, 512)
FIG10_WAYS = (1, 2, 4, 8)
FIG10_COUNTERS = (8, 16, 32, 64, 128)

#: Workloads used for the sizing sweep: the AMO-intensive set is where
#: sizing matters (paper: performance degrades for H when the AMT grows).
FIG10_WORKLOADS = ("GME", "KCOR", "SPT", "HIST", "RSOR", "SPMV")


def figure10(executor: Optional[Executor] = None,
             workloads: Sequence[str] = FIG10_WORKLOADS) -> FigureData:
    """Fig. 10: DynAMO-Reuse-PN sensitivity to AMT sizing.

    Three sweeps around the best configuration (128 entries, 4 ways,
    counter max 32): entry count, associativity, counter size.  Values
    are geomeans of speed-up over All Near across ``workloads``.
    """
    from repro.harness.report import geomean

    executor = executor or Executor()
    cfg = executor.config
    points: List = []
    for entries in FIG10_ENTRIES:
        points.append((f"entries={entries}", cfg.replace(amt_entries=entries)))
    for ways in FIG10_WAYS:
        points.append((f"ways={ways}", cfg.replace(amt_ways=ways)))
    for counter in FIG10_COUNTERS:
        points.append((f"counter={counter}",
                       cfg.replace(amt_counter_max=counter)))

    # One batch over the whole (sweep point x workload x policy) space:
    # the parallel executor sees every miss at once.
    results = iter(executor.run_many(
        [executor.make_spec(wl, pol, config=config)
         for _label, config in points
         for wl in workloads
         for pol in (BASELINE, "dynamo-reuse-pn")]))
    xs: List[str] = []
    ys: List[float] = []
    for label, _config in points:
        vals = []
        for _wl in workloads:
            base = next(results)
            dyn = next(results)
            vals.append(dyn.speedup_over(base))
        xs.append(label)
        ys.append(geomean(vals))
    return FigureData(
        name="Figure 10: AMT sizing (DynAMO-Reuse-PN vs All Near)",
        xlabel="configuration", xs=xs,
        series={"geomean-speedup": ys},
        notes=f"geomean over AMO-intensive workloads {list(workloads)}; "
              "defaults elsewhere: 128 entries / 4 ways / counter 32")


#: System variants of the Fig. 11 design-space exploration.
def fig11_systems(cfg: SystemConfig) -> Dict[str, SystemConfig]:
    return {
        "original": cfg,
        "NoC-1c": cfg.replace(router_latency=0, link_latency=1),
        "NoC-3c": cfg.replace(router_latency=2, link_latency=1),
        "Half-Lat": cfg.replace(mem_latency=cfg.mem_latency // 2),
        "Double-Lat": cfg.replace(mem_latency=cfg.mem_latency * 2),
    }


#: Representative workloads per APKI set for the (expensive) Fig. 11 sweep.
FIG11_WORKLOADS = ("RAY", "WAT", "VOL", "FLU", "HIST", "SPMV", "RSOR", "GME")


def figure11(executor: Optional[Executor] = None,
             workloads: Sequence[str] = FIG11_WORKLOADS) -> FigureData:
    """Fig. 11: DynAMO-Reuse-PN on different systems.

    NoC hop cost 1/2/3 cycles and halved/doubled memory latency; the
    paper finds gains grow with hop cost and are insensitive to memory
    latency.  Values are per-APKI-set geomeans of speed-up over All Near.
    """
    executor = executor or Executor()
    systems = fig11_systems(executor.config)
    sets: Dict[str, List[float]] = {"L": [], "M": [], "H": []}
    xs = list(systems)
    policies = (BASELINE, "dynamo-reuse-pn")
    results = iter(executor.run_many(
        [executor.make_spec(wl, pol, config=config)
         for config in systems.values()
         for wl in workloads for pol in policies]))
    for _name in systems:
        grid = {wl: {pol: next(results) for pol in policies}
                for wl in workloads}
        speedups = {wl: grid[wl]["dynamo-reuse-pn"].speedup_over(
            grid[wl][BASELINE]) for wl in workloads}
        classes = apki_classes({wl: grid[wl][BASELINE] for wl in workloads})
        gm = set_geomeans(speedups, classes)
        sets["L"].append(gm["LMH"])
        sets["M"].append(gm["MH"])
        sets["H"].append(gm["H"])
    return FigureData(
        name="Figure 11: system design-space exploration "
             "(DynAMO-Reuse-PN vs All Near)",
        xlabel="system", xs=xs,
        series={"geomean-LMH": sets["L"], "geomean-MH": sets["M"],
                "geomean-H": sets["H"]},
        notes=f"representative workloads: {list(workloads)}")


def energy_study(executor: Optional[Executor] = None,
                 workloads: Sequence[str] = tuple(TABLE_III_CODES)) -> FigureData:
    """Section VI-E: dynamic energy of All Near / Unique Near / Reuse-PN.

    Reports per-APKI-set geometric-mean energy *ratios* (policy energy /
    All Near energy; below 1.0 = savings), plus the NoC component alone.
    """
    from repro.harness.report import geomean

    executor = executor or Executor()
    policies = ["unique-near", "dynamo-reuse-pn"]
    grid = executor.sweep(workloads, [BASELINE] + policies)
    classes = apki_classes({wl: grid[wl][BASELINE] for wl in workloads})
    xs = ["L", "M", "H"]
    series: Dict[str, List[float]] = {}
    for policy in policies:
        total, noc = [], []
        for which in xs:
            members = [wl for wl in workloads if classes[wl] == which]
            if not members:
                total.append(float("nan"))
                noc.append(float("nan"))
                continue
            total.append(geomean(
                grid[wl][policy].total_energy
                / grid[wl][BASELINE].total_energy for wl in members))
            noc.append(geomean(
                max(grid[wl][policy].energy["noc"], 1e-12)
                / max(grid[wl][BASELINE].energy["noc"], 1e-12)
                for wl in members))
        series[f"{policy}/total"] = total
        series[f"{policy}/noc"] = noc
    return FigureData(
        name="Section VI-E: dynamic energy relative to All Near",
        xlabel="APKI set", xs=xs, series=series,
        notes="ratios < 1.0 are energy savings")


#: Workloads of the cycle-blame attribution study: the Table III cells
#: where All Near and DynAMO-Reuse-PN genuinely diverge at the
#: golden-corpus grid shape (t8, half scale).
BLAME_WORKLOADS = ("HIST", "SPMV", "RSOR", "GME")


def blame_study(executor: Optional[Executor] = None,
                workloads: Sequence[str] = BLAME_WORKLOADS) -> FigureData:
    """Cycle-blame attribution: where does DynAMO's speed-up come from?

    For each workload, runs All Near vs DynAMO-Reuse-PN with the
    attribution sinks attached (always fresh — instrumented runs never
    touch the cache) and reports the ``repro diff`` delta attribution:
    the speed-up, the fraction of the cycle delta attributed to *named*
    blame categories (the acceptance bar is >= 90%), and the category
    explaining most of the delta.  The ``executor`` argument only supplies
    the system config; results are not cached.
    """
    executor = executor or Executor()
    from repro.obs.attribution.report import diff_payload, diff_specs

    xs, speedup, attributed = [], [], []
    top_cats = []
    # The golden-corpus grid shape (t8, half scale) keeps the uncached
    # instrumented runs CI-sized.
    for wl in workloads:
        spec_a = executor.make_spec(wl, BASELINE, threads=8, scale=0.5)
        spec_b = executor.make_spec(wl, "dynamo-reuse-pn", threads=8,
                                    scale=0.5)
        res_a, res_b = diff_specs(spec_a, spec_b)
        payload = diff_payload(res_a, spec_a, res_b, spec_b)
        xs.append(wl)
        speedup.append(res_a.cycles / res_b.cycles)
        attributed.append(payload["attributed_fraction"])
        delta_blame: Dict[str, int] = payload["delta_blame"]
        if delta_blame:
            top = max(delta_blame, key=lambda c: abs(delta_blame[c]))
            top_cats.append(f"{wl}:{top}({delta_blame[top]:+})")
    return FigureData(
        name="Cycle-blame study: All Near vs DynAMO-Reuse-PN",
        xlabel="workload", xs=xs,
        series={"speedup": speedup,
                "delta-attributed-fraction": attributed},
        notes="attributed fraction = share of the cycle delta landing in "
              "named blame categories (target >= 0.9); top contributors: "
              + "; ".join(top_cats))


#: Zipf-exponent sweep points of the txn figure (the KVS input grid)
#: and the policies compared.
TXN_FIGURE_INPUTS = ("zipf-0.5", "zipf-0.8", "zipf-1.1", "zipf-1.4")
TXN_FIGURE_POLICIES = (BASELINE, "present-near", "dynamo-reuse-pn")


def txn_study(executor: Optional[Executor] = None,
              workload: str = "KVS",
              inputs: Sequence[str] = TXN_FIGURE_INPUTS,
              policies: Sequence[str] = TXN_FIGURE_POLICIES) -> FigureData:
    """Transactional sweep: throughput + p99 lock-acquire vs Zipf alpha.

    Runs the key-value workload across its Zipf-exponent inputs under
    each policy with a :class:`~repro.obs.histogram.HistogramSink`
    attached (instrumented runs never touch the cache) and reports two
    series per policy: committed-transaction throughput per kilocycle
    and the p99 lock-acquisition latency.  Steeper exponents pile the
    lock traffic onto the hottest keys, which is where placement policy
    moves the tail.  The ``executor`` argument only supplies the system
    config.
    """
    executor = executor or Executor()
    from repro.obs.histogram import HistogramSink, histograms_from_metadata
    from repro.workloads.txn import alpha_from_input

    xs = [alpha_from_input(inp) for inp in inputs]
    series: Dict[str, List[float]] = {}
    # The golden-corpus grid shape (t8, half scale) keeps the uncached
    # instrumented runs CI-sized.
    for policy in policies:
        throughput, p99 = [], []
        for inp in inputs:
            spec = executor.make_spec(workload, policy, threads=8,
                                      scale=0.5, input_name=inp)
            result = execute_spec(spec, extra_sinks=(HistogramSink(),))
            wl = make_workload(workload, 8, scale=0.5, input_name=inp)
            throughput.append(
                result.throughput_per_kilocycle(wl.total_txns))
            hists = histograms_from_metadata(result.metadata)
            lock = hists.get("lock_acquire")
            p99.append(lock.percentile(99) if lock is not None else 0.0)
        series[f"txn-throughput/{policy}"] = throughput
        series[f"p99-lock-acquire/{policy}"] = p99
    return FigureData(
        name="Txn study: Zipf skew vs throughput and lock tail latency",
        xlabel="zipf alpha", xs=xs, series=series,
        notes=f"{workload} at t8/x0.5; transactions per kilocycle "
              "(higher is better) and p99 lock-acquire cycles (lower is "
              "better), per policy")


FIGURES = {
    "1": figure1,
    "6": figure6,
    "7": figure7,
    "8": figure8,
    "9": figure9,
    "10": figure10,
    "11": figure11,
    "energy": energy_study,
    "blame": blame_study,
    "txn": txn_study,
}
