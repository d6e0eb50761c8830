"""Instrumentation bus: typed simulation events decoupled from timing.

The machine, the private caches, the home nodes and the mesh *emit*
events (AMO placements, snoops, invalidations, LLC/DRAM accesses, line
handoffs, protocol messages) to an :class:`EventBus` instead of owning
their observability.  Consumers subscribe :class:`Sink` objects:

* the energy sink (:class:`repro.energy.model.EnergySink`) derives the
  energy breakdown at ``finalize``;
* :class:`TraceSink` records an opt-in structured per-op JSONL trace
  (``python -m repro run --trace FILE``).

Fast path: pure counters *are* their own events — a counter increment
carries no information beyond "this event happened" — so the counters
are **fused** into the bus: it owns the `MachineStats` block
(``bus.stats``) and the NoC `TrafficMeter` (``bus.traffic``), emitters
increment them directly, and per-event dispatch (`Event` construction +
fan-out to ``on_event``) only happens when a sink that *wants* events is
subscribed (``bus.active``).  With no such sink attached, default-mode
simulation executes the exact instruction sequence it did before the
bus existed; each emission site costs one attribute load and one branch.
"""

from __future__ import annotations

import enum
import json
from typing import IO, Dict, List, Optional, Union

from repro.noc.message import TrafficMeter
from repro.sim.results import MachineStats


class EventKind(enum.Enum):
    """Typed simulation event classes (value = stable trace name)."""

    #: an AMO executed in the requesting core's L1D.
    AMO_NEAR = "amo-near"
    #: an AMO executed at the block's home node.
    AMO_FAR = "amo-far"
    #: the home node snooped a private cache.
    SNOOP = "snoop"
    #: a snoop removed a private copy.
    INVALIDATION = "invalidation"
    #: a snoop downgraded an exclusive copy to shared.
    DOWNGRADE = "downgrade"
    #: exclusive ownership of a line moved between agents.
    LINE_HANDOFF = "line-handoff"
    #: an LLC slice data-array lookup (hit or miss).
    LLC_ACCESS = "llc-access"
    #: a DRAM read issued by a home node.
    DRAM_READ = "dram-read"
    #: a DRAM write (LLC victim writeback).
    DRAM_WRITE = "dram-write"
    #: a protocol message crossed the mesh.
    MESSAGE = "message"
    #: a block departed an L1D (spill to L2 or out of the hierarchy).
    L1_EVICTION = "l1-eviction"
    #: a store-class op stalled on a full store buffer.
    STORE_BUFFER_STALL = "store-buffer-stall"
    #: a memory op retired with a per-category cycle breakdown
    #: (stamp-gated: only emitted when ``bus.stamps`` is True).
    OP_RETIRE = "op-retire"
    #: a sync phase marker (lock/barrier begin/acquired/release; also
    #: stamp-gated — see :data:`repro.frontend.isa.MARK_NAMES`).
    SYNC = "sync"


class Event:
    """One simulation event.

    ``core`` and ``block`` are -1 when the event has no core / block
    (e.g. a MESSAGE event); ``info`` carries kind-specific fields.
    """

    __slots__ = ("kind", "cycle", "core", "block", "info")

    def __init__(self, kind: EventKind, cycle: int, core: int = -1,
                 block: int = -1,
                 info: Optional[Dict[str, object]] = None) -> None:
        self.kind = kind
        self.cycle = cycle
        self.core = core
        self.block = block
        self.info = info

    def as_dict(self) -> Dict[str, object]:
        """Flat dict representation (the JSONL trace record)."""
        out: Dict[str, object] = {
            "kind": self.kind.value, "cycle": self.cycle,
            "core": self.core, "block": self.block,
        }
        if self.info:
            out.update(self.info)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.as_dict()!r})"


class Sink:
    """Base event consumer.

    ``wants_events`` controls the bus fast path: sinks that only
    aggregate through the fused stores or only act at ``finalize`` time
    set it False so their presence does not force per-event dispatch.
    """

    #: True when this sink must receive every Event via :meth:`on_event`.
    wants_events = True
    #: True when this sink additionally needs the *stamp* events
    #: (OP_RETIRE breakdowns, SYNC markers, per-AMO audit fields).
    #: Stamps put the machine on an instrumented execution path that is
    #: timing-identical but slower in wall-clock, so they are gated
    #: separately from ``wants_events``: a trace/digest sink can consume
    #: ordinary events without forcing stamp emission.  A sink that sets
    #: this is treated as wanting events too.
    wants_stamps = False

    def bind_machine(self, machine) -> None:
        """Run-start hook: the engine announces the machine under test.

        Sinks that sample live component state (policy tables, directory
        occupancy) grab their references here; the default is a no-op so
        sinks stay constructible without a machine (tests, offline use).
        """

    def on_event(self, event: Event) -> None:
        """Receive one event (only called when ``wants_events``)."""

    def finalize(self, result) -> None:
        """Run-end hook: annotate the finished ``SimulationResult``."""

    def close(self) -> None:
        """Release resources (files, handles)."""


class EventBus:
    """Connects emitters (machine, caches, home nodes, mesh) to sinks.

    ``active`` is True iff at least one subscribed sink wants per-event
    dispatch; emitters guard every :meth:`emit` call on it.  ``now`` is
    the machine's current cycle, maintained so component emitters (which
    have no clock of their own) can stamp their events.
    """

    __slots__ = ("stats", "traffic", "now", "active", "stamps", "_sinks",
                 "_event_sinks")

    def __init__(self) -> None:
        #: fused stores, referenced directly by the hot paths.
        self.stats = MachineStats()
        self.traffic = TrafficMeter()
        self.now = 0
        self.active = False
        #: True iff a subscribed sink wants stamp events; the machine and
        #: engine select the instrumented (timing-identical) paths on it.
        self.stamps = False
        self._sinks: List[Sink] = []
        #: prebuilt fan-out list so emit() never re-filters per event.
        self._event_sinks: List[Sink] = []

    # --- subscription -------------------------------------------------

    def subscribe(self, sink: Sink) -> Sink:
        """Attach ``sink``; returns it for chaining."""
        self._sinks.append(sink)
        self._refresh()
        return sink

    def unsubscribe(self, sink: Sink) -> None:
        self._sinks.remove(sink)
        self._refresh()

    def _refresh(self) -> None:
        self._event_sinks = [s for s in self._sinks
                             if s.wants_events or s.wants_stamps]
        self.active = bool(self._event_sinks)
        self.stamps = any(s.wants_stamps for s in self._sinks)

    @property
    def sinks(self) -> List[Sink]:
        return list(self._sinks)

    # --- emission (only called behind an ``if bus.active`` guard) -----

    def emit(self, event: Event) -> None:
        for sink in self._event_sinks:
            sink.on_event(event)

    # --- lifecycle ----------------------------------------------------

    def bind(self, machine) -> None:
        """Announce the machine to every sink (called once per run)."""
        for sink in self._sinks:
            sink.bind_machine(machine)

    def finalize(self, result) -> None:
        """Let every sink annotate the finished result."""
        for sink in self._sinks:
            sink.finalize(result)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


class TraceSink(Sink):
    """Opt-in structured trace: one JSON object per event, one per line.

    Accepts a path (opened and owned by the sink) or an open file-like
    object (borrowed; not closed).  Counts near/far AMO events so traces
    can be reconciled against ``SimulationResult`` decision counters
    without re-parsing the file.

    ``stamps=True`` additionally requests the stamp events (OP_RETIRE
    breakdowns, SYNC markers, per-AMO audit fields), putting the machine
    on its instrumented execution path; plain traces never do.
    """

    def __init__(self, destination: Union[str, IO[str]],
                 stamps: bool = False) -> None:
        if stamps:
            self.wants_stamps = True  # instance override of the class gate
        if isinstance(destination, str):
            self._fh: IO[str] = open(destination, "w")
            self._owns = True
        else:
            self._fh = destination
            self._owns = False
        self.events_written = 0
        self.near_events = 0
        self.far_events = 0

    def on_event(self, event: Event) -> None:
        if event.kind is EventKind.AMO_NEAR:
            self.near_events += 1
        elif event.kind is EventKind.AMO_FAR:
            self.far_events += 1
        self._fh.write(json.dumps(event.as_dict(), sort_keys=True))
        self._fh.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._fh.closed:
            return
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()


class CollectorSink(Sink):
    """Keeps every event in memory (tests and ad-hoc analysis)."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def by_kind(self, kind: EventKind) -> List[Event]:
        return [ev for ev in self.events if ev.kind is kind]
