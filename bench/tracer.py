"""Host-time tracer for ``python -m bench trace``, installed from outside.

The tracer wraps names where their callers look them up (module
globals, class attributes, and the handler bindings ``engine.run``
takes from each new ``Machine``) and restores every one on
:meth:`Tracer.uninstall`.  Two kinds of boundary share one stack
discipline per thread:

* **coarse spans** (cell, build, machine init, simulate, serialize,
  store, request, parse, submit, compute) are kept in memory as
  ``(id, parent, name, start, end)``; spans of one cell or request share
  an id.  :meth:`Tracer.write_chrome` writes them as Chrome trace-event
  JSON, which Perfetto loads;
* **per-op boundaries** (generator ``send``, Machine handlers, coherence,
  policy and memory calls) only add to ``(count, inclusive ns, self
  ns)`` totals.

A layer's self time is its duration minus its children's.  The cost of
an empty wrapper is calibrated at start: the part spent outside the
measured interval is charged to no one (the parent's self time excludes
it), and the part inside is taken off the wrapped call's own times.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter_ns


class _ThreadState:
    __slots__ = ("stack", "coarse", "totals", "spans", "tid")

    def __init__(self, tid: int) -> None:
        self.stack: List[List[float]] = []      # [child ns, descendants]
        self.coarse: List[Tuple[object, str]] = []  # (id, name) of spans
        self.totals: Dict[str, List[float]] = {}  # name -> [n, incl, self]
        self.spans: List[Tuple] = []
        self.tid = tid


class _TimedGen:
    """Generator stand-in whose ``send`` is a traced wrapper."""

    __slots__ = ("send",)


def spec_id(spec) -> str:
    return f"{spec.workload}/{spec.policy}"


class Tracer:
    """Per-thread span stacks plus in-memory totals and spans."""

    def __init__(self, calibrate: bool = True) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[object, str, object, bool]] = []
        #: Trace names whose wrap target could not be resolved.
        self.missing: List[str] = []
        self.inside_ns = 0.0
        self.outside_ns = 0.0
        self.origin_ns = _clock()
        if calibrate:
            self._calibrate()

    # --- per-thread state ---------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.st = st
            return st

    def _close(self, st: _ThreadState, frame: List[float], name: str,
               measured: int) -> None:
        """Shared accounting of a finished boundary (spans only; the
        per-op wrapper inlines the same arithmetic)."""
        tot = st.totals.get(name)
        if tot is None:
            tot = st.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += measured - self.inside_ns - frame[1] * (
            self.inside_ns + self.outside_ns)
        tot[2] += measured - self.inside_ns - frame[0]
        if st.stack:
            parent = st.stack[-1]
            parent[0] += measured + self.outside_ns
            parent[1] += frame[1] + 1

    # --- wrappers -----------------------------------------------------

    def op(self, fn: Callable, name: str) -> Callable:
        """Per-op wrapper: totals only, no span record."""
        local = self._local
        new_state = self._state
        clock = _clock
        inside = self.inside_ns
        outside = self.outside_ns
        per_call = inside + outside

        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            stack = st.stack
            frame = [0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                measured = clock() - t0
                stack.pop()
                tot = st.totals.get(name)
                if tot is None:
                    tot = st.totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += measured - inside - frame[1] * per_call
                tot[2] += measured - inside - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += measured + outside
                    parent[1] += frame[1] + 1

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def span(self, fn: Callable, name: str,
             id_of: Optional[Callable[..., object]] = None) -> Callable:
        """Coarse-span wrapper; ``id_of(*args)`` names the cell or
        request (None inherits the enclosing span's id)."""

        def wrapper(*args, **kwargs):
            span_id = id_of(*args, **kwargs) if id_of is not None else None
            with self.region(name, span_id):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    @contextlib.contextmanager
    def region(self, name: str, span_id: object = None) -> Iterator[None]:
        """A coarse span around a block of the caller's own code."""
        st = self._state()
        parent_id, parent = st.coarse[-1] if st.coarse else (None, None)
        if span_id is None:
            span_id = parent_id
        st.coarse.append((span_id, name))
        frame = [0, 0]
        st.stack.append(frame)
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            st.stack.pop()
            st.coarse.pop()
            self._close(st, frame, name, t1 - t0)
            st.spans.append((span_id, parent, name, t0, t1))

    # --- calibration --------------------------------------------------

    def _calibrate(self, calls: int = 20000, rounds: int = 7) -> None:
        """Measure an empty wrapper: ``inside`` is the wrapper cost that
        lands inside its own measured interval, ``outside`` the rest."""

        def noop():
            return None

        best = None
        for _ in range(rounds):
            probe = Tracer(calibrate=False)
            wrapped = probe.op(noop, "noop")
            st = probe._state()
            st.stack.append([0, 0])  # calls below run with a parent
            loop = range(calls)
            t = _clock()
            for _ in loop:
                pass
            empty = (_clock() - t) / calls
            t = _clock()
            for _ in loop:
                noop()
            bare = (_clock() - t) / calls - empty
            t = _clock()
            for _ in loop:
                wrapped()
            total = (_clock() - t) / calls - empty
            measured = st.totals["noop"][1] / calls
            if best is None or total < best[0]:
                best = (total, bare, measured)
        total, bare, measured = best
        self.inside_ns = max(0.0, measured - bare)
        self.outside_ns = max(0.0, total - measured)

    # --- installation -------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        own = isinstance(owner, type)
        had = attr in vars(owner) if own else True
        original = vars(owner).get(attr) if own else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, had))

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        for owner, attr, original, had in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _resolve(self, module: str, path: str) -> Tuple[object, str, object]:
        owner: object = importlib.import_module(module)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])

    def install(self, targets: List[Tuple[str, str, str, str]]) -> None:
        """Wrap every ``(module, attribute path, trace name, how)``.

        A target that no longer exists is reported on stderr and listed
        in :attr:`missing`; the metrics that need it are left out.
        """
        for module, path, name, how in targets:
            try:
                owner, attr, current = self._resolve(module, path)
                self._install_one(owner, attr, current, name, how)
            except (ImportError, AttributeError) as exc:
                self.missing.append(name)
                print(f"bench trace: warning: cannot wrap {module}.{path} "
                      f"({type(exc).__name__}: {exc}); metrics from "
                      f"{name!r} are left out", file=sys.stderr)

    def _install_one(self, owner: object, attr: str, current: object,
                     name: str, how: str) -> None:
        if how == "op":
            self._patch(owner, attr, self.op(current, name))
        elif how == "span":
            self._patch(owner, attr, self.span(current, name))
        elif how == "spec-span":  # first argument is a RunSpec
            self._patch(owner, attr,
                        self.span(current, name, lambda s, *a, **k:
                                  spec_id(s)))
        elif how == "store-span":  # ResultStore method: (self, spec, ...)
            self._patch(owner, attr,
                        self.span(current, name, lambda _self, s, *a, **k:
                                  spec_id(s)))
        elif how == "hierarchy":
            self._patch_hierarchy(owner, attr, lambda fn: self.op(fn, name))
        elif how == "program":
            self._patch_hierarchy(owner, attr, self._program_run)
        elif how == "workload":
            self._patch(owner, attr, self._workload_factory(current, name))
        elif how == "machine":
            self._patch(owner, attr, self._machine_factory(current, name))
        elif how == "handler":  # do_POST; the client names the request
            self._patch(owner, attr, self.span(
                current, name,
                lambda h, *a, **k: h.headers.get("X-Bench-Request")))
        else:
            raise ValueError(f"unknown wrap kind {how!r}")

    def _patch_hierarchy(self, base: object, attr: str,
                         make: Callable[[Callable], Callable]) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass defining it."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())  # type: ignore[attr-defined]
            if attr in vars(cls):
                self._patch(cls, attr, make(vars(cls)[attr]))

    def _program_run(self, run: Callable) -> Callable:
        op = self.op

        def traced_run(program, core_id):
            gen = _TimedGen()
            gen.send = op(run(program, core_id).send, "gen")
            return gen

        return traced_run

    def _workload_factory(self, make_workload: Callable,
                          name: str) -> Callable:
        span = self.span

        def traced(*args, **kwargs):
            wl = span(make_workload, name)(*args, **kwargs)
            for method in ("programs", "initial_values"):
                setattr(wl, method, span(getattr(wl, method), name))
            return wl

        return traced

    def _machine_factory(self, machine_cls: Callable, name: str) -> Callable:
        span, op = self.span, self.op

        def traced(*args, **kwargs):
            machine = span(machine_cls, name)(*args, **kwargs)
            # engine.run binds these three when it starts: wrap the
            # instance attributes before it does.
            for attr, op_name in (("_read", "machine.read"),
                                  ("_write", "machine.write"),
                                  ("_amo", "machine.amo")):
                if op_name in self.missing:
                    continue
                try:
                    setattr(machine, attr, op(getattr(machine, attr),
                                              op_name))
                except AttributeError as exc:
                    self.missing.append(op_name)
                    print(f"bench trace: warning: cannot wrap Machine."
                          f"{attr} ({exc}); metrics from {op_name!r} are "
                          f"left out", file=sys.stderr)
            return machine

        return traced

    # --- results ------------------------------------------------------

    def totals(self) -> Dict[str, List[float]]:
        """``name -> [count, inclusive ns, self ns]`` over all threads."""
        out: Dict[str, List[float]] = {}
        for st in self._states:
            for name, (n, incl, own) in st.totals.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += n
                acc[1] += incl
                acc[2] += own
        return out

    def spans(self) -> List[Dict[str, object]]:
        out = []
        for st in self._states:
            for span_id, parent, name, t0, t1 in st.spans:
                out.append({"id": span_id, "parent": parent, "name": name,
                            "start_ns": t0 - self.origin_ns,
                            "end_ns": t1 - self.origin_ns, "tid": st.tid})
        out.sort(key=lambda s: s["start_ns"])
        return out

    def write_chrome(self, path: str) -> None:
        """Spans as Chrome trace-event JSON (complete events, in us)."""
        events = [{"name": s["name"], "ph": "X", "pid": 1,
                   "tid": s["tid"], "ts": s["start_ns"] / 1e3,
                   "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
                   "args": {"id": s["id"], "parent": s["parent"]}}
                  for s in self.spans()]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _methods(module: str, cls: str, names: str, trace: str
             ) -> List[Tuple[str, str, str, str]]:
    return [(module, f"{cls}.{m}", trace, "op") for m in names.split()]


#: What a simulated cell passes through, wrapped where it is looked up.
CELL_TARGETS: List[Tuple[str, str, str, str]] = [
    ("repro.harness.executor", "make_workload", "build", "workload"),
    ("repro.harness.executor", "Machine", "machine_init", "machine"),
    ("repro.harness.executor", "engine_run", "simulate", "span"),
    ("repro.harness.executor", "serialize_result", "serialize", "span"),
    ("repro.harness.executor", "ResultStore.load", "store_read",
     "store-span"),
    ("repro.harness.executor", "ResultStore.store", "store_write",
     "store-span"),
    ("repro.frontend.program", "Program.run", "gen", "program"),
    *_methods("repro.coherence.l1", "PrivateCacheHierarchy",
              "l1_state find touch_l1 insert_l1 promote set_state "
              "invalidate downgrade", "coherence"),
    *_methods("repro.coherence.directory", "HomeNode",
              "llc_lookup llc_fill llc_fill_if_room llc_drop", "coherence"),
    *_methods("repro.coherence.directory", "DirectoryState", "entry peek",
              "coherence"),
    *_methods("repro.coherence.directory", "AmoBuffer", "access invalidate",
              "coherence"),
    ("repro.core.policy", "AmoPolicy.decide", "policy.decide", "hierarchy"),
    ("repro.core.policy", "AmoPolicy.on_near_amo", "policy.hook",
     "hierarchy"),
    ("repro.core.policy", "AmoPolicy.on_invalidation", "policy.hook",
     "hierarchy"),
    ("repro.core.policy", "AmoPolicy.on_block_departure", "policy.hook",
     "hierarchy"),
    ("repro.mem.hbm", "HbmMemory.access", "mem", "op"),
]

#: Sim workloads: each execute_spec call is one cell span.
SIM_TARGETS = [("repro.harness.executor", "execute_spec", "cell",
                "spec-span")] + CELL_TARGETS

#: serve-zipf (in-process server): request handling on the server side;
#: the scheduler's compute function is wrapped by the caller.
SERVE_TARGETS = CELL_TARGETS + [
    ("repro.service.app", "_Handler.do_POST", "handle", "handler"),
    ("repro.service.app", "parse_batch", "parse", "span"),
    ("repro.service.scheduler", "Scheduler.submit", "submit", "span"),
    ("repro.service.scheduler", "serialize_result", "serialize", "span"),
]
