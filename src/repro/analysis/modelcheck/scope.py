"""Scopes: the small worlds the model checker explores exhaustively.

A *scope* fixes a machine configuration (2–3 cores, scaled Table II
geometry) and one short op script per core over 1–2 cache lines.  The
checker then explores every schedule of those scripts.  Scopes are
declarative and JSON-serializable so a counterexample trace embeds the
full scope and replays anywhere.

Small-scope hypothesis: protocol bugs that exist at all manifest with
few cores, few lines and few ops — every coherence transition the
machine implements (fetch, upgrade, snoop, downgrade, invalidation,
spill, SD creation, near/far AMO, lock hand-off) is reachable inside
the default grid below.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Sequence, Tuple

from repro.frontend import isa
from repro.frontend.isa import MemOp
from repro.sim.config import TINY_CONFIG, SystemConfig

#: Script op kinds -> the ISA factory used (lock/unlock expand to
#: cas/stswp with the mutex value convention: holder writes core+1).
OP_KINDS = ("load", "store", "ldadd", "stadd", "swap", "cas",
            "lock", "unlock")


@dataclasses.dataclass(frozen=True)
class ScriptOp:
    """One scripted operation: ``kind`` on ``lines[line]`` + ``offset``.

    ``value`` is the store/AMO operand (for ``cas`` the new value, for
    ``lock`` ignored — the holder id is used); ``expected`` is the cas
    compare value.
    """

    kind: str
    line: int
    value: int = 1
    expected: int = 0
    offset: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "line": self.line, "value": self.value,
                "expected": self.expected, "offset": self.offset}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ScriptOp":
        return ScriptOp(kind=str(data["kind"]), line=int(data["line"]),
                        value=int(data.get("value", 1)),
                        expected=int(data.get("expected", 0)),
                        offset=int(data.get("offset", 0)))


@dataclasses.dataclass(frozen=True)
class Scope:
    """One exhaustively explored world: config + per-core scripts."""

    name: str
    cores: int
    lines: Tuple[int, ...]
    scripts: Tuple[Tuple[ScriptOp, ...], ...]
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    #: groups of line indices whose *summed* final value must equal the
    #: net of the add operands applied to them (the bank-transfer
    #: conservation invariant: debit/credit pairs cancel, so the total
    #: is preserved under every interleaving).  Group lines must be
    #: touched only by loads and add-AMOs (stores/swaps/cas would make
    #: the net order-dependent).
    conserve: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if len(self.scripts) != self.cores:
            raise ValueError(f"{self.name}: {len(self.scripts)} scripts "
                             f"for {self.cores} cores")
        for script in self.scripts:
            for op in script:
                if op.kind not in OP_KINDS:
                    raise ValueError(f"{self.name}: unknown op {op.kind!r}")
                if not 0 <= op.line < len(self.lines):
                    raise ValueError(f"{self.name}: line index {op.line} "
                                     f"out of range")
        add_pure = ("load", "ldadd", "stadd")
        for group in self.conserve:
            for line in group:
                if not 0 <= line < len(self.lines):
                    raise ValueError(f"{self.name}: conserve line index "
                                     f"{line} out of range")
            for script in self.scripts:
                for op in script:
                    if op.line in group and op.kind not in add_pure:
                        raise ValueError(
                            f"{self.name}: conserved line {op.line} is "
                            f"touched by {op.kind!r}; only loads and "
                            f"add-AMOs keep the group sum well-defined")

    def build_config(self) -> SystemConfig:
        """Machine configuration: TINY geometry scaled to ``cores``."""
        config = TINY_CONFIG.scaled(self.cores)
        if self.config_overrides:
            config = config.replace(**dict(self.config_overrides))
        return config

    def addr(self, op: ScriptOp) -> int:
        return self.lines[op.line] * isa.BLOCK_SIZE + op.offset

    def memop(self, core: int, op: ScriptOp) -> MemOp:
        """Translate a script op for ``core`` into a real ISA MemOp."""
        addr = self.addr(op)
        if op.kind == "load":
            return isa.read(addr)
        if op.kind == "store":
            return isa.write(addr, op.value)
        if op.kind == "ldadd":
            return isa.ldadd(addr, op.value)
        if op.kind == "stadd":
            return isa.stadd(addr, op.value)
        if op.kind == "swap":
            return isa.swap(addr, op.value)
        if op.kind == "cas":
            return isa.cas(addr, op.expected, op.value)
        if op.kind == "lock":
            # The mutex convention: acquire = cas(addr, 0, core+1),
            # retried until the old value was 0 (the explorer keeps the
            # core schedulable while the cas fails).
            return isa.cas(addr, 0, core + 1)
        assert op.kind == "unlock"
        return isa.stswp(addr, 0)

    def has_locks(self) -> bool:
        """True when any script acquires a lock (spin retries make the
        schedule space unbounded, so the multinomial naive count is only
        a lower bound and prune ratios are not meaningful)."""
        return any(op.kind == "lock"
                   for script in self.scripts for op in script)

    def amo_sum_addrs(self) -> Dict[int, int]:
        """Addresses touched *only* by add-AMOs -> expected final sum.

        On such addresses every schedule must produce exactly the sum of
        the operands (the paper's atomicity property); addresses mixed
        with stores/swaps are order-dependent and excluded.
        """
        sums: Dict[int, int] = {}
        impure = set()
        for script in self.scripts:
            for op in script:
                addr = self.addr(op)
                if op.kind in ("ldadd", "stadd"):
                    sums[addr] = sums.get(addr, 0) + op.value
                elif op.kind != "load":
                    impure.add(addr)
        return {a: s for a, s in sums.items() if a not in impure}

    def conservation_sums(self) -> List[Tuple[Tuple[int, ...], int]]:
        """Per-group ``(addresses, expected total)`` for ``conserve``.

        The expected total is the net of every add operand applied to
        the group's lines (memory starts zeroed), so a balanced
        debit/credit script nets to zero.  Addresses are taken from the
        scripted ops themselves, so offsets within conserved lines are
        covered too.
        """
        groups: List[Tuple[Tuple[int, ...], int]] = []
        for group in self.conserve:
            addrs = tuple(sorted({
                self.addr(op) for script in self.scripts for op in script
                if op.line in group}))
            net = sum(op.value for script in self.scripts for op in script
                      if op.line in group
                      and op.kind in ("ldadd", "stadd"))
            groups.append((addrs, net))
        return groups

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "cores": self.cores,
            "lines": list(self.lines),
            "scripts": [[op.as_dict() for op in script]
                        for script in self.scripts],
            "config_overrides": [list(kv) for kv in self.config_overrides],
            "conserve": [list(group) for group in self.conserve],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Scope":
        scripts = tuple(
            tuple(ScriptOp.from_dict(op) for op in script)
            for script in data["scripts"])
        overrides = tuple(
            (str(k), v) for k, v in data.get("config_overrides", ()))
        conserve = tuple(tuple(int(line) for line in group)
                         for group in data.get("conserve", ()))
        return Scope(name=str(data["name"]), cores=int(data["cores"]),
                     lines=tuple(int(x) for x in data["lines"]),
                     scripts=scripts, config_overrides=overrides,
                     conserve=conserve)


def _ops(*specs: Tuple) -> Tuple[ScriptOp, ...]:
    return tuple(ScriptOp(*spec) for spec in specs)


#: The default exhaustive grid (``repro check``).  Coverage notes per
#: scope say which protocol paths it is there to reach.
DEFAULT_SCOPES: Tuple[Scope, ...] = (
    # Contended counter: the paper's core scenario.  Near/far AMO ping-
    # pong, upgrade-on-SC, invalidation hooks, AMT learning.
    Scope("counter", 2, (0, 1),
          (_ops(("ldadd", 0), ("ldadd", 0)),
           _ops(("ldadd", 0, 2), ("ldadd", 0, 2)))),
    # Plain loads/stores mixed with AMOs, plus false sharing (stores on
    # offset 8 of the AMO'd line): ReadShared snoops, downgrades, SD
    # creation.  Its stores all miss in L1.
    Scope("mixed-rw", 2, (0, 1),
          (_ops(("store", 0, 5, 0, 8), ("ldadd", 1), ("load", 0)),
           _ops(("ldadd", 0), ("store", 1, 7, 0, 8), ("load", 1)))),
    # Store hits on a shared line: a load leaves the reader SC (and a
    # dirty writer SD), so the next store hits L1 and must upgrade —
    # the write-upgrade path no other scope reaches.
    Scope("rw-upgrade", 2, (0, 1),
          (_ops(("store", 0, 5), ("store", 0, 6)),
           _ops(("load", 0), ("store", 0, 7)))),
    # Both cores read first, then AMO: every policy decides on an SC
    # line, exercising the upgrade-under-AMO path.
    Scope("read-amo", 2, (0, 1),
          (_ops(("load", 0), ("ldadd", 0)),
           _ops(("load", 0), ("ldadd", 0)))),
    # AMO kind zoo: swap, one-shot cas (expected 0 -> succeeds at most
    # once per schedule), store-AMOs.
    Scope("amo-kinds", 2, (0, 1),
          (_ops(("ldadd", 0), ("swap", 1, 3), ("stadd", 0)),
           _ops(("cas", 0, 9, 0), ("ldadd", 1), ("stadd", 1)))),
    # Critical section under a real mutex: lock hand-off, deadlock
    # detection, far-cas bouncing of the lock line.
    Scope("lock", 2, (0, 1),
          (_ops(("lock", 0), ("ldadd", 1), ("unlock", 0)),
           _ops(("lock", 0), ("ldadd", 1), ("unlock", 0)))),
    # Three cores: transitions a 2-core scope cannot reach (two SC
    # sharers invalidated by one upgrade, 3-way interleavings).
    Scope("triple", 3, (0, 1),
          (_ops(("ldadd", 0), ("load", 1)),
           _ops(("stadd", 0), ("ldadd", 1)),
           _ops(("store", 1, 4, 0, 8), ("ldadd", 0)))),
    # Disjoint per-core working sets: every cross-core pair of ops is
    # independent — the sleep-set reducer should collapse this scope to
    # a near-single interleaving (the classic DPOR demonstrator).
    Scope("disjoint", 2, (0, 1),
          (_ops(("ldadd", 0), ("load", 0), ("stadd", 0)),
           _ops(("ldadd", 1), ("store", 1, 2, 0, 8), ("ldadd", 1)))),
    # Bank transfers (the txn family's BANK workload in miniature): two
    # accounts, opposed debit/credit stadd pairs plus an atomic audit
    # read.  The conservation invariant — the summed balance equals the
    # operand net under *every* interleaving — is checked explicitly at
    # each end state.
    Scope("bank", 2, (0, 1),
          (_ops(("stadd", 0, -3), ("stadd", 1, 3), ("ldadd", 0, 0)),
           _ops(("stadd", 1, -2), ("stadd", 0, 2), ("ldadd", 1, 0))),
          conserve=((0, 1),)),
    # One-way, one-set L1: every second access spills to L2 — the
    # departure hook (reuse-bit accounting) fires constantly.
    Scope("evict", 2, (0, 1),
          (_ops(("ldadd", 0), ("ldadd", 1), ("load", 0)),
           _ops(("ldadd", 1), ("ldadd", 0))),
          config_overrides=(("l1_size", 64), ("l1_ways", 1),
                            ("l2_size", 256), ("l2_ways", 2))),
)

#: Deterministic CI subset (``repro check --smoke``): the cheapest
#: scopes that still cover AMO contention, store upgrades, eviction and
#: the bank conservation invariant.
SMOKE_SCOPES: Tuple[str, ...] = ("counter", "read-amo", "rw-upgrade",
                                 "evict", "bank")


def scope_by_name(name: str,
                  scopes: Sequence[Scope] = DEFAULT_SCOPES) -> Scope:
    for scope in scopes:
        if scope.name == name:
            return scope
    raise KeyError(f"unknown scope {name!r}; "
                   f"have {[s.name for s in scopes]}")


def max_schedule_length(scope: Scope) -> int:
    """Upper bound on schedule length ignoring lock retries."""
    return sum(len(script) for script in scope.scripts)


def naive_interleavings(scope: Scope) -> int:
    """Count of schedules absent any reduction (multinomial of script
    lengths; a lower bound when lock retries extend schedules)."""
    import math
    total = max_schedule_length(scope)
    count = math.factorial(total)
    for script in scope.scripts:
        count //= math.factorial(len(script))
    return count


#: Largest cycle value the explorer may pass as ``now``.  Must stay
#: below DynamoMetricPolicy.decay_period so the time-based global decay
#: can never fire mid-exploration (step counts stand in for cycles; see
#: explore.py).
MAX_EXPLORE_NOW = 50_000
