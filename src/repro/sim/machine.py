"""The simulated multi-core machine: protocol + timing for every operation.

This is the transaction-level model described in DESIGN.md.  Cores hand the
machine one operation at a time (:meth:`Machine.execute`); the machine
walks the CHI flow the operation triggers (Fig. 2 of the paper), updating
coherence/directory state, per-line serialization times at the home nodes,
message traffic, and the data values atomics operate on, and returns when
the operation completes from the core's point of view.

Commit semantics (paper Section III-B1):

* ``READ`` and ``AMO_LOAD`` block the core until data returns;
  ``AMO_LOAD`` additionally pays a pipeline-refill overhead.
* ``WRITE`` and ``AMO_STORE`` retire through a finite store buffer: the
  core sees a 1-cycle issue unless the buffer is full, in which case it
  stalls until the oldest entry drains.

Hot-path style (DESIGN.md §9): the transaction handlers run millions of
times per simulation, so config scalars and the mesh's dense distance
tables are bound to instance attributes once at construction, enum
members are named through the module constants defined next to each
enum, each transaction looks a block up once and then works on the line
it holds, ``max()`` chains over two or three ints are flattened to
compares, and the directory holder sets are walked without building
union sets.  Every
transformation here is behaviour-preserving by definition of the golden
corpus (``repro golden``).

Accounting is stated once per concern.  Every protocol message goes
through :meth:`Mesh.record`, which feeds the traffic meter and emits the
MESSAGE event only when sinks are attached.  The home-node and ownership
flows are sequences of shared legs (DESIGN.md §5): the request leg
(:meth:`Machine._home_request`), the data leg (:meth:`Machine._data`),
the response leg (:meth:`Machine._respond`), the write-permission path
(:meth:`Machine._acquire`) and any other timed step
(:meth:`Machine._leg`).  Each returns its time and, in a stamped run,
adds its own blame category, so blame is recorded where the leg is
timed; :meth:`Machine._stamp` emits the op's OP_RETIRE event.
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Deque, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.coherence.cache import CacheLine
from repro.coherence.directory import DirEntry, DirectoryState, HomeNode
from repro.coherence.l1 import Departure, PrivateCacheHierarchy
from repro.coherence.states import SC, SD, UC, UD, CacheState, I
from repro.core.policy import NEAR, AmoPolicy, PolicyStats
from repro.core.registry import make_policy
from repro.frontend.isa import (ADD, AMO_LOAD, AMO_STORE, CAS, MARK,
                                MARK_NAMES, READ, THINK, WRITE, MemOp,
                                apply_amo)
from repro.mem.address import AddressMap
from repro.mem.hbm import HbmMemory
from repro.noc.mesh import Mesh
from repro.noc.message import (AMO_DATA, ATOMIC_REQ, COMP_ACK, COMP_DATA,
                               EVICT_NOTIFY, MEM_DATA, MEM_READ, MEM_WRITE,
                               READ_REQ, SNOOP, SNOOP_DATA, SNOOP_RESP,
                               WRITEBACK, MsgType)
from repro.sim.config import SystemConfig
from repro.sim.events import Event, EventBus, EventKind


class DeferredRead:
    """A read result to be resolved at the read's *completion* time.

    The machine computes a read's timing when the core issues it, but the
    architectural value belongs to the moment the data arrives.  Binding
    the value at issue would let every spinner in a spin loop observe a
    freed lock during the window its read is in flight — a thundering
    herd far beyond what real hardware produces.  The engine resolves the
    value when it wakes the core at completion time, by which point every
    operation that completed earlier has been applied.

    A core has at most one operation in flight, so the machine keeps one
    pooled instance per core and rebinds ``addr`` on every read — the
    steady-state read path allocates nothing.
    """

    __slots__ = ("addr",)

    def __init__(self, addr: int) -> None:
        self.addr = addr


class Machine:
    """A multi-core system executing memory operations under one policy.

    Args:
        config: system parameters (Table II by default).
        policy_name: AMO placement policy; one instance is created per
            core from :mod:`repro.core.registry`.
        bus: instrumentation bus; a fresh one (stock stats/traffic sinks
            only) is created when omitted.  The machine and its
            components emit typed events to it, and the hot-path
            counters (``stats``, ``traffic``) are aliases of the bus's
            fused stock-sink stores.
        shadows: other policy names to run as *shadows* beside the
            leader ``policy_name`` (policy sweeps, DESIGN.md §9).  A
            shadow decides every AMO the leader decides, on the same
            ``(block, state, now)``, and learns from the same hooks; the
            first time its answer differs it is dropped on every core.
            A shadow still in :attr:`live_shadows` after the run made
            the leader's every decision, so its own run would have been
            the leader's, bit for bit.  Needs a quiet bus: events and
            ``audit_info`` describe the leader only.
    """

    def __init__(self, config: SystemConfig, policy_name: str = "all-near",
                 bus: Optional[EventBus] = None,
                 shadows: Sequence[str] = ()) -> None:
        self.config = config
        self.policy_name = policy_name
        self.bus = bus if bus is not None else EventBus()
        self.mesh = Mesh(config.num_cores, config.llc_slices,
                         config.router_latency, config.link_latency,
                         bus=self.bus)
        self.addr_map = AddressMap(config.llc_slices, config.mem_channels)
        self.memory = HbmMemory(config.mem_channels, config.mem_latency,
                                config.mem_service_cycles)
        self.privates = [PrivateCacheHierarchy(config, core_id=c,
                                               bus=self.bus)
                         for c in range(config.num_cores)]
        self.home_nodes = [HomeNode(s, config, bus=self.bus)
                           for s in range(config.llc_slices)]
        self.directory = DirectoryState()
        if shadows and self.bus.active:
            raise ValueError("shadow policies need a quiet bus: events "
                             "and audit_info describe the leader only")
        self._shadows: Dict[str, List[AmoPolicy]] = {
            name: [make_policy(name, config)
                   for _ in range(config.num_cores)]
            for name in shadows}
        self.policies = [make_policy(policy_name, config)
                         for _ in range(config.num_cores)]
        self.policy_stats = [PolicyStats() for _ in range(config.num_cores)]
        self.values: Dict[int, int] = {}
        # Fused stock-sink stores (see repro.sim.events): mutating these
        # directly IS the stats/traffic-sink accounting.
        self.traffic = self.bus.traffic
        self.stats = self.bus.stats
        # Store buffers: per-core deque of in-flight drain times plus the
        # last drain time (drains are forced monotonic = in-order drain).
        self._sb: List[Deque[int]] = [deque() for _ in range(config.num_cores)]
        self._sb_last: List[int] = [0] * config.num_cores
        # Atomics are ordered with respect to each other on a core: the
        # next AMO cannot start until the previous one completed.  This is
        # what makes far AtomicStores cost something despite the store
        # buffer (single-thread far throughput in Fig. 1 is well below
        # near), and it is how a high far-AMO rate backs up into the core.
        self._amo_free: List[int] = [0] * config.num_cores
        # One pooled DeferredRead per core (at most one read in flight).
        self._deferred = [DeferredRead(0) for _ in range(config.num_cores)]
        # Hot-path aliases: config scalars and mesh distance tables bound
        # once so the transaction handlers never chase self.config/self.mesh.
        self._nslices = config.llc_slices
        self._l1_lat = config.l1_latency
        self._l2_lat = config.l2_latency
        self._llc_lat = config.llc_latency
        self._dir_lat = config.directory_latency
        self._hn_occ = config.hn_occupancy
        self._alu_lat = config.amo_alu_latency
        self._commit_stall = config.commit_stall_overhead
        self._direct_acks = config.direct_inval_acks
        self._sb_entries = config.store_buffer_entries
        self._amo_buf_lat = config.amo_buffer_latency
        self._c2s_lat = self.mesh.c2s_lat
        self._s2c_lat = self.mesh.s2c_lat
        self._c2c_lat = self.mesh.c2c_lat
        self._c2s_hops = self.mesh.c2s_hops
        self._s2c_hops = self.mesh.s2c_hops
        self._c2c_hops = self.mesh.c2c_hops
        # The one gateway for protocol-message accounting (traffic meter,
        # plus MESSAGE events when sinks are attached).
        self._record = self.mesh.record
        # Per-core L1/L2 set arrays (geometry is identical across cores)
        # and the directory's entry dict, aliased for the inlined lookup
        # fast paths in the handlers.
        self._l1sets = [p._l1_sets for p in self.privates]
        self._l2sets = [p._l2_sets for p in self.privates]
        self._l1n = self.privates[0]._l1_nsets if self.privates else 1
        self._l2n = self.privates[0]._l2_nsets if self.privates else 1
        self._dir_entries = self.directory._entries
        # Per-op cycle-breakdown scratch (attribution stamps).  None on
        # the default path; the :meth:`_stamp` wrapper installs a fresh
        # dict per op and each leg helper adds the cycles it times.  The
        # legs' ``if bd is not None`` guards sit off the L1-hit fast paths
        # (bar the near AMO's Unique hit), so default-mode cost is one
        # attribute test per leg.
        self._bd: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # policies: the leader, its shadows and the learning-hook lists
    # ------------------------------------------------------------------

    @property
    def policies(self) -> List[AmoPolicy]:
        """The leader's per-core policy instances."""
        return self._policies

    @policies.setter
    def policies(self, policies: Iterable[AmoPolicy]) -> None:
        self._policies = list(policies)
        self._bind_hooks()

    @property
    def live_shadows(self) -> Tuple[str, ...]:
        """Shadows that have agreed with every leader decision so far."""
        return tuple(self._shadows)

    def _bind_hooks(self) -> None:
        """Build the per-core dispatch lists of the hot path.

        Each learning hook gets a per-core list of the bound methods of
        the leader and the live shadows; ``_shadow_decide`` holds each
        core's live ``(name, decide)`` pairs.  Assigning
        :attr:`policies` rebuilds them.
        """
        shadows = list(self._shadows.values())
        per_core = [[leader] + [shadow[c] for shadow in shadows]
                    for c, leader in enumerate(self._policies)]
        self._near_hooks = [[p.on_near_amo for p in ps] for ps in per_core]
        self._inval_hooks = [[p.on_invalidation for p in ps]
                             for ps in per_core]
        self._depart_hooks = [[p.on_block_departure for p in ps]
                              for ps in per_core]
        self._shadow_decide = [
            [(name, shadow[c].decide)
             for name, shadow in self._shadows.items()]
            for c in range(len(self._policies))]

    def _drop_shadow(self, name: str) -> None:
        """Stop running shadow ``name`` on every core (it disagreed)."""
        del self._shadows[name]
        self._bind_hooks()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def execute(self, core: int, op: MemOp, now: int) -> Tuple[int, Optional[int]]:
        """Perform ``op`` for ``core`` starting at cycle ``now``.

        Returns ``(completion_time, result)``; ``result`` is the old
        value for AMO_LOAD, a :class:`DeferredRead` for READ (the engine
        resolves it at completion time), and None otherwise.
        """
        bus = self.bus
        bus.now = now
        kind = op.type
        if kind is READ:
            handler = self._read
        elif kind is AMO_LOAD or kind is AMO_STORE:
            handler = self._amo
        elif kind is WRITE:
            handler = self._write
        elif kind is THINK:
            return now + op.cycles, None
        elif kind is MARK:
            # Sync phase marker: zero cycles, zero instructions, no
            # machine state; only stamped runs see it, as a SYNC event.
            if bus.stamps:
                bus.emit(Event(EventKind.SYNC, now, core, op.addr >> 6,
                               info={"what": MARK_NAMES[op.value],
                                     "addr": op.addr}))
            return now, None
        else:
            raise ValueError(f"unknown operation type: {kind!r}")
        if bus.stamps:
            handler = self._stamp(handler)
        return handler(core, op, now)

    def _stamp(self, handler: Callable[[int, MemOp, int],
                                       Tuple[int, Optional[int]]]
               ) -> Callable[[int, MemOp, int], Tuple[int, Optional[int]]]:
        """Wrap a transaction handler for attribution.

        The wrapper runs ``handler`` unchanged (identical timing), with
        ``self._bd`` installed as the per-op breakdown the transaction
        helpers fill in, and emits one OP_RETIRE event per op.  ``bd``
        decomposes the *core-gating* latency (what the issuing core
        waited).  Store-class ops also carry the breakdown of their
        hidden drain/execution chain, so home-node and NoC work stays
        attributable even when the store buffer absorbs it.
        """
        bus = self.bus
        l1_lat = self._l1_lat

        def stamped(core: int, op: MemOp,
                    now: int) -> Tuple[int, Optional[int]]:
            bd = self._bd = {}
            done, result = handler(core, op, now)
            self._bd = None
            lat = done - now
            kind = op.type
            info: Dict[str, object] = {"op": kind.name}
            if op.is_amo:
                info["amo"] = op.amo.name
            info["lat"] = lat
            if kind is READ or kind is AMO_LOAD:
                if not bd:
                    # L1/L2 hit fast paths record nothing; classify by
                    # latency.
                    bd["l1" if lat == l1_lat else "l2"] = lat
                else:
                    resid = lat - sum(bd.values())
                    if resid:
                        bd["other"] = resid
                info["bd"] = bd
            else:
                # The core only waited for store-buffer admission; the
                # drain (WRITE) or execution (AMO_STORE) chain is hidden
                # work (paper Section III-B1).
                gate: Dict[str, int] = {"issue": 1}
                stall = bd.pop("sb_stall", 0)
                if stall:
                    gate["sb_stall"] = stall
                resid = lat - 1 - stall
                if resid:
                    gate["other"] = resid
                info["bd"] = gate
                if op.is_amo:
                    info["exec_bd"] = bd
                elif bd:
                    info["drain_bd"] = bd
            bus.emit(Event(EventKind.OP_RETIRE, now, core, op.addr >> 6,
                           info=info))
            return done, result

        return stamped

    def read_value(self, addr: int) -> int:
        """Architectural value currently stored at ``addr``."""
        return self.values.get(addr, 0)

    def poke_value(self, addr: int, value: int) -> None:
        """Initialize memory contents (workload setup)."""
        self.values[addr] = value

    # ------------------------------------------------------------------
    # snapshot/restore (model checking)
    # ------------------------------------------------------------------

    def snapshot(self):
        """Hashable snapshot of the machine's *architectural* state.

        Captures exactly what future behaviour can depend on: private
        cache contents (with replacement order and per-line predictor
        flags), live directory entries, LLC contents per slice, memory
        values, and per-core policy predictor state.  Timing state
        (busy-until fields, store buffers, the AMO buffer) and
        accounting counters are deliberately excluded: nothing in the
        machine branches on them, so two states that agree on this
        snapshot have identical architectural futures.  The model
        checker uses the snapshot both as the fork point for exploring
        interleavings and as the canonical state hash.
        """
        return (
            tuple((p.l1.snapshot(), p.l2.snapshot()) for p in self.privates),
            self.directory.snapshot(),
            tuple(hn.llc.snapshot() for hn in self.home_nodes),
            tuple(sorted((a, v) for a, v in self.values.items() if v != 0)),
            tuple(policy.snapshot_state() for policy in self.policies),
        )

    def restore(self, snap) -> None:
        """Reset architectural state to a :meth:`snapshot` value.

        Every container is mutated in place — the hot-path aliases bound
        in ``__init__`` (``_l1sets``/``_l2sets``/``_dir_entries``) point
        at the live objects and must keep doing so after a restore.
        """
        caches, dir_snap, llc_snaps, values, policy_snaps = snap
        for priv, (l1_snap, l2_snap) in zip(self.privates, caches):
            priv.l1.restore(l1_snap)
            priv.l2.restore(l2_snap)
        self.directory.restore(dir_snap)
        for hn, llc_snap in zip(self.home_nodes, llc_snaps):
            hn.llc.restore(llc_snap)
        self.values.clear()
        self.values.update(values)
        for policy, state in zip(self.policies, policy_snaps):
            policy.restore_state(state)

    # ------------------------------------------------------------------
    # store buffer
    # ------------------------------------------------------------------

    def _store_issue(self, core: int, now: int, drain_time: int) -> int:
        """Issue a store-class op; returns when the core can move on."""
        sb = self._sb[core]
        while sb and sb[0] <= now:
            sb.popleft()
        visible = now + 1
        if len(sb) >= self._sb_entries:
            oldest = sb.popleft()
            self.stats.store_buffer_stalls += 1
            if self.bus.active:
                self.bus.emit(Event(EventKind.STORE_BUFFER_STALL, now, core,
                                    info={"stalled_until": oldest}))
            visible = oldest + 1
            bd = self._bd
            if bd is not None:
                bd["sb_stall"] = bd.get("sb_stall", 0) + (oldest - now)
        # Drains are in-order: a younger store cannot drain earlier.
        drain = drain_time
        last = self._sb_last[core]
        if last > drain:
            drain = last
        self._sb_last[core] = drain
        sb.append(drain)
        return visible

    # ------------------------------------------------------------------
    # loads
    # ------------------------------------------------------------------

    def _read(self, core: int, op: MemOp, now: int) -> Tuple[int, Optional[int]]:
        stats = self.stats
        stats.reads += 1
        block = op.addr >> 6
        deferred = self._deferred[core]
        deferred.addr = op.addr
        # Inlined PrivateCacheHierarchy.touch_l1 (the single hottest
        # lookup in a simulation): LRU-promote on hit, mark AMO reuse.
        l1_set = self._l1sets[core][block % self._l1n]
        line = l1_set.get(block)
        if line is not None:
            del l1_set[block]
            l1_set[block] = line
            if line.fetched_by_amo:
                line.reused = True
            stats.l1_hits += 1
            return now + self._l1_lat, deferred
        stats.l1_misses += 1
        if block in self._l2sets[core][block % self._l2n]:
            stats.l2_hits += 1
            departures = self.privates[core].promote(block)
            if departures:
                self._handle_departures(core, departures, now)
            return now + self._l2_lat, deferred
        return self._read_shared(core, block, now), deferred

    def _read_shared(self, core: int, block: int, now: int) -> int:
        """Full ReadShared transaction; allocates into the L1D.

        Returns the core-visible completion time.
        """
        stats = self.stats
        stats.read_shared += 1
        slice_id, hn, entry, t_dir = self._home_request(
            core, block, READ_REQ, now)
        owner = entry.owner
        resp_lat = self._s2c_lat[slice_id][core]
        resp_hops = self._s2c_hops[slice_id][core]
        ack_wait = 0  # how long the line stays busy after data_ready
        if owner is None or owner == core:
            data_ready = self._data(hn, block, t_dir, fill=True)
        else:
            # Snoop the owner for data; it downgrades.
            stats.snoops += 1
            owner_line, _lvl = self.privates[owner].find(block)
            if owner_line is None:
                # Directory raced ahead of a silent state we do not model;
                # treat as LLC-sourced.
                entry.drop(owner)
                hops = self._s2c_hops[slice_id][owner]
                self._record(SNOOP, hops)
                self._record(SNOOP_RESP, hops)
                data_ready = self._leg(t_dir, self._llc_lat, "llc")
            else:
                self._record_snoop_traffic(slice_id, owner, True, block)
                dirty = owner_line.state.is_dirty
                if dirty and not hn.llc_fill_if_room(block):
                    # LLC set full: owner keeps data responsibility in SD —
                    # the (rare) source of the SharedDirty state.
                    owner_line.state = SD
                else:
                    # The HN takes the dirty copy (the common CHI choice)
                    # or a clean one from a UC owner; the owner keeps a
                    # clean shared copy.
                    owner_line.state = SC
                    entry.owner = None
                    entry.sharers.add(owner)
                    if not dirty:
                        self._llc_fill(hn, block)
                stats.downgrades += 1
                if self.bus.active:
                    self.bus.emit(Event(EventKind.DOWNGRADE, self.bus.now,
                                        owner, block))
                # Data is forwarded directly owner -> requestor (CHI
                # direct cache transfer); the HN frees the line once the
                # snoop acknowledgement returns.
                ack_wait = self._s2c_lat[slice_id][owner]
                data_ready = self._leg(t_dir, ack_wait + self._l1_lat,
                                       "snoop")
                resp_lat = self._c2c_lat[owner][core]
                resp_hops = self._c2c_hops[owner][core]
        entry.line_busy_until = data_ready + ack_wait
        done = self._respond(COMP_DATA, data_ready, resp_lat, resp_hops)

        # Grant state: Unique when nobody else holds a copy.
        owner_now = entry.owner
        sharers = entry.sharers
        if (owner_now is not None and owner_now != core) or \
                (sharers and (len(sharers) > 1 or core not in sharers)):
            grant = SC
            sharers.add(core)
        else:
            grant = UC
            self._own(hn, entry, block, owner, core)
        return self._fill_l1(core, block, grant, False, now, done)

    # ------------------------------------------------------------------
    # stores
    # ------------------------------------------------------------------

    def _write(self, core: int, op: MemOp, now: int) -> Tuple[int, Optional[int]]:
        stats = self.stats
        stats.writes += 1
        block = op.addr >> 6
        # Inlined touch_l1, as in _read.
        l1_set = self._l1sets[core][block % self._l1n]
        line = l1_set.get(block)
        if line is not None:
            del l1_set[block]
            l1_set[block] = line
            if line.fetched_by_amo:
                line.reused = True
            stats.l1_hits += 1
            if line.state.is_unique:
                drain = now + self._l1_lat
            else:
                drain = self._upgrade(core, block, now)
            line.state = UD
        else:
            drain = self._acquire(core, block, now, False)
        self.values[op.addr] = op.value
        return self._store_issue(core, now, drain), None

    def _acquire(self, core: int, block: int, now: int,
                 by_amo: bool) -> int:
        """Write permission on an L1D miss, for stores and near AMOs:
        promote an L2 copy (upgrading it unless unique), else ReadUnique.

        Returns when the block is usable UniqueDirty in the L1D.  Only a
        near AMO (``by_amo``) blames its L2 hit: write drains carry no
        L1/L2 entries.
        """
        stats = self.stats
        stats.l1_misses += 1
        l2_line = self._l2sets[core][block % self._l2n].get(block)
        if l2_line is None:
            return self._read_unique(core, block, now, by_amo)
        stats.l2_hits += 1
        departures = self.privates[core].promote(block, by_amo)
        if departures:
            self._handle_departures(core, departures, now)
        now = (self._leg(now, self._l2_lat, "l2") if by_amo
               else now + self._l2_lat)
        ready = (now if l2_line.state.is_unique
                 else self._upgrade(core, block, now))
        self._l1sets[core][block % self._l1n][block].state = UD
        return ready

    def _upgrade(self, core: int, block: int, now: int) -> int:
        """CleanUnique: gain write permission for a block already held
        shared; invalidates all other copies, transfers no data."""
        self.stats.upgrades += 1
        slice_id, hn, entry, t_dir = self._home_request(
            core, block, READ_REQ, now)
        # CHI-faithful flow: snoop responses return to the HN, which then
        # sends Comp.  With ``direct_inval_acks`` the acks instead travel
        # straight to the requestor and Comp is sent at ordering time.
        prev_owner = entry.owner
        acks_done = self._invalidate_holders(slice_id, block, entry, core,
                                             now, t_dir, core)
        self._own(hn, entry, block, prev_owner, core)
        entry.line_busy_until = acks_done
        comp_lat = self._s2c_lat[slice_id][core]
        comp_hops = self._s2c_hops[slice_id][core]
        if self._direct_acks and t_dir + comp_lat >= acks_done:
            return self._respond(COMP_ACK, t_dir, comp_lat, comp_hops)
        acked = self._leg(t_dir, acks_done - t_dir, "inval")
        if self._direct_acks:  # the last ack lands after Comp
            self._record(COMP_ACK, comp_hops)
            return acked
        return self._respond(COMP_ACK, acked, comp_lat, comp_hops)

    def _read_unique(self, core: int, block: int, now: int,
                     fetched_by_amo: bool) -> int:
        """ReadUnique: fetch the block with write permission (Fig. 2 left).

        Returns the time the block (and permission) is usable at the L1D.
        Both callers write the block at once, so it is installed
        UniqueDirty.
        """
        self.stats.read_unique += 1
        slice_id, hn, entry, t_dir = self._home_request(
            core, block, READ_REQ, now)
        owner = entry.owner
        # The owner's data is always forwarded directly to the requestor
        # (direct cache transfer); pure invalidation acks follow the
        # ``direct_inval_acks`` routing.
        acks_done = self._invalidate_holders(slice_id, block, entry, core,
                                             now, t_dir, core)
        if not self._direct_acks:
            acks_done += self._s2c_lat[slice_id][core]
        if owner is not None and owner != core:
            forwarded = self._leg(t_dir, self._s2c_lat[slice_id][owner]
                                  + self._l1_lat, "snoop")
            data_at_core = self._leg(forwarded, self._c2c_lat[owner][core],
                                     "noc_resp")
        else:
            data_at_core = self._respond(
                COMP_DATA, self._data(hn, block, t_dir),
                self._s2c_lat[slice_id][core], self._s2c_hops[slice_id][core])
        self._own(hn, entry, block, owner, core)
        busy = data_at_core
        if acks_done > busy:
            busy = self._leg(busy, acks_done - busy, "inval")
        entry.line_busy_until = busy
        return self._fill_l1(core, block, UD, fetched_by_amo, now, busy)

    # ------------------------------------------------------------------
    # atomics
    # ------------------------------------------------------------------

    def _amo(self, core: int, op: MemOp, now: int) -> Tuple[int, Optional[int]]:
        stats = self.stats
        is_load = op.type is AMO_LOAD
        if is_load:
            stats.amo_loads += 1
        else:
            stats.amo_stores += 1
        block = op.addr >> 6
        # Inlined PrivateCacheHierarchy.l1_state (placement is keyed on
        # the L1D state, Table I).
        l1_line = self._l1sets[core][block % self._l1n].get(block)
        state = l1_line.state if l1_line is not None else I
        audit = None
        if state.is_unique:
            placement = NEAR
            decided = False
            stats.near_amo_unique_hits += 1
        else:
            policy = self._policies[core]
            if self.bus.stamps:
                # Side-effect-free pre-decide snapshot (decide allocates
                # AMT entries on miss, so peek must come first).
                audit = policy.audit_info(block)
            placement = policy.decide(block, state, now)
            decided = True
            # Inlined PolicyStats.record.
            if placement is NEAR:
                self.policy_stats[core].near_decisions += 1
            else:
                self.policy_stats[core].far_decisions += 1
            for name, decide in self._shadow_decide[core]:
                if decide(block, state, now) is not placement:
                    self._drop_shadow(name)
        # Per-core atomic ordering: wait for the previous AMO to complete.
        free = self._amo_free[core]
        start = now if now >= free else free
        if placement is NEAR:
            done, value = self._amo_near(core, op, block, l1_line, start)
        else:
            done, value = self._amo_far(core, op, block, start)
        if is_load:
            # The returned value refills the core's pipeline.
            done += self._commit_stall
        bd = self._bd
        if bd is not None:
            if start > now:
                bd["amo_order"] = start - now
            # Either placement runs the ALU op once (timed in the flow).
            bd["alu"] = self._alu_lat
            if is_load:
                bd["commit"] = self._commit_stall
        if done > self._amo_free[core]:
            self._amo_free[core] = done
        bus = self.bus
        if bus.active:
            info = {"op": op.type.name, "amo": op.amo.name,
                    "decided": decided, "latency": done - start}
            if bus.stamps and decided:
                # Attribution audit: the policy's pre-decide view.  None
                # for policies without an AMT (static policies).
                info["amt"] = audit
            if op.amo is CAS:
                # Lock-acquire observability: a CAS succeeded iff the old
                # value it returned equals the comparand.
                info["cas_ok"] = value == op.expected
            bus.emit(Event(
                EventKind.AMO_NEAR if placement is NEAR
                else EventKind.AMO_FAR,
                start, core, block, info=info))
        if not is_load:
            # The core itself only waits for store-buffer admission (plus
            # any backlog from the atomic-ordering chain).
            return self._store_issue(core, now, done), None
        return done, value

    def _apply_amo_value(self, op: MemOp) -> int:
        """Apply the AMO to architectural state; returns the old value."""
        values = self.values
        addr = op.addr
        old = values.get(addr, 0)
        # ADD dominates every Table III workload (counters, histograms,
        # reductions); skipping the dispatch table for it is measurable.
        if op.amo is ADD:
            values[addr] = old + op.value
        else:
            values[addr] = apply_amo(op.amo, old, op.value, op.expected)
        return old

    def _amo_near(self, core: int, op: MemOp, block: int,
                  line: Optional[CacheLine],
                  now: int) -> Tuple[int, Optional[int]]:
        """Execute the AMO in this core's L1D, acquiring the block first.

        ``line`` is the block's L1D line, or None when the L1D misses.
        :meth:`_amo` adds a load's commit stall.
        """
        stats = self.stats
        if line is not None:  # resident in L1: inlined touch_l1 (LRU +
            # reuse marking), then upgrade in place unless already unique.
            stats.l1_hits += 1
            l1_set = self._l1sets[core][block % self._l1n]
            del l1_set[block]
            l1_set[block] = line
            if line.fetched_by_amo:
                line.reused = True
            if line.state.is_unique:
                ready = now + self._l1_lat
                bd = self._bd
                if bd is not None:
                    bd["l1"] = self._l1_lat
            else:  # SC or SD in L1
                ready = self._upgrade(core, block, now)
            line.state = UD
        else:
            ready = self._acquire(core, block, now, True)
        exec_done = ready + self._alu_lat
        old = self._apply_amo_value(op)
        stats.near_amos += 1
        stats.amo_latency_sum += exec_done - now
        for hook in self._near_hooks[core]:
            hook(block, now)
        return exec_done, (old if op.type is AMO_LOAD else None)

    def _amo_far(self, core: int, op: MemOp, block: int,
                 now: int) -> Tuple[int, Optional[int]]:
        """Execute the AMO at the home node (Fig. 2 right).

        :meth:`_amo` adds a load's commit stall.
        """
        stats = self.stats
        slice_id, hn, entry, t_dir = self._home_request(
            core, block, ATOMIC_REQ, now)
        # Dirty-holder scan without materializing the holder union set.
        owner = entry.owner
        dirty_holder = (owner is not None
                        and self._holder_is_dirty(owner, block))
        if not dirty_holder:
            for holder in entry.sharers:
                if holder != owner and self._holder_is_dirty(holder, block):
                    dirty_holder = True
                    break
        snoop_done = self._invalidate_holders(slice_id, block, entry, None,
                                              now, t_dir)
        if self.bus.active:
            # Ownership centralizes at the home node (agent -1).
            self._emit_handoff(block, owner, None)
        buffer_hit = hn.amo_buffer.access(block)
        # A dirty holder's data comes back with its snoop response; clean
        # data still waits for the last invalidation ack.
        data_ready = (t_dir if dirty_holder
                      else self._data(hn, block, t_dir, buffer_hit))
        if snoop_done > data_ready:
            data_ready = self._leg(data_ready, snoop_done - data_ready,
                                   "snoop")
        exec_done = data_ready + self._alu_lat
        entry.line_busy_until = exec_done
        hn.far_amos_executed += 1
        # After a far AMO no private cache holds the block; the HN does.
        self._llc_fill(hn, block)

        old = self._apply_amo_value(op)
        stats.far_amos += 1
        resp_lat = self._s2c_lat[slice_id][core]
        resp_hops = self._s2c_hops[slice_id][core]
        if op.type is AMO_LOAD:
            stats.far_amo_loads += 1
            done = self._respond(AMO_DATA, exec_done, resp_lat, resp_hops)
        else:
            # A store is acknowledged once the snoops are done.
            stats.far_amo_stores += 1
            done = self._respond(COMP_ACK, snoop_done, resp_lat, resp_hops)
            old = None
        stats.amo_latency_sum += done - now
        return done, old

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _home_request(self, core: int, block: int, msg: MsgType,
                      now: int) -> Tuple[int, HomeNode, DirEntry, int]:
        """The request leg every home-node transaction opens with.

        Sends ``msg`` from ``core`` to the block's home node, orders it
        behind the line's previous transaction and the HN's structural
        occupancy, and charges the HN for it.  Returns ``(slice_id, hn,
        entry, t_dir)``: ``t_dir`` is when the directory lookup is done.
        Stamped runs blame the wait on the NoC traversal, then per-line
        serialization (the paper's central quantity), then structural
        home-node occupancy, then the directory.
        """
        slice_id = block % self._nslices
        hn = self.home_nodes[slice_id]
        entry = self._dir_entries.get(block)
        if entry is None:
            entry = self.directory.entry(block)
        arrive = now + self._c2s_lat[core][slice_id]
        line_busy = entry.line_busy_until
        ordered = line_busy if line_busy > arrive else arrive
        if hn.busy_until > ordered:
            ordered = hn.busy_until
        self._record(msg, self._c2s_hops[core][slice_id], arrive, ordered)
        bd = self._bd
        if bd is not None:
            bd["noc_req"] = bd.get("noc_req", 0) + (arrive - now)
            wait = ordered - arrive
            lw = line_busy - arrive
            if lw < 0:
                lw = 0
            elif lw > wait:
                lw = wait
            if lw:
                bd["hn_line"] = bd.get("hn_line", 0) + lw
            if wait > lw:
                bd["hn_busy"] = bd.get("hn_busy", 0) + (wait - lw)
            bd["dir"] = bd.get("dir", 0) + self._dir_lat
        hn.busy_until = ordered + self._hn_occ
        return slice_id, hn, entry, ordered + self._dir_lat

    def _leg(self, t: int, cycles: int, cat: str) -> int:
        """A timed leg: ends ``cycles`` after ``t``, blamed on ``cat``."""
        bd = self._bd
        if bd is not None:
            bd[cat] = bd.get(cat, 0) + cycles
        return t + cycles

    def _data(self, hn: HomeNode, block: int, t_dir: int,
              buffer_hit: bool = False, fill: bool = False) -> int:
        """Data leg at the home node: the AMO buffer (a far AMO's
        ``buffer_hit``), the LLC, or DRAM (into the LLC if ``fill``)."""
        if buffer_hit:
            self.stats.amo_buffer_hits += 1
            cat, ready = "amo_buf", t_dir + self._amo_buf_lat
        elif hn.llc_lookup(block):
            cat, ready = "llc", t_dir + self._llc_lat
        else:
            cat, ready = "dram", self._dram_read(block, t_dir)
            if fill:
                self._llc_fill(hn, block)
        bd = self._bd
        if bd is not None:
            bd[cat] = bd.get(cat, 0) + (ready - t_dir)
        return ready

    def _respond(self, msg: MsgType, t: int, lat: int, hops: int) -> int:
        """Response leg: ``msg`` leaves at ``t`` and arrives ``lat`` later."""
        self._record(msg, hops)
        bd = self._bd
        if bd is not None:
            bd["noc_resp"] = bd.get("noc_resp", 0) + lat
        return t + lat

    def _own(self, hn: HomeNode, entry: DirEntry, block: int,
             prev_owner: Optional[int], core: int) -> None:
        """Make ``core`` the block's only holder; the HN drops its copies."""
        if self.bus.active:
            self._emit_handoff(block, prev_owner, core)
        entry.owner = core
        entry.sharers.clear()
        hn.llc_drop(block)
        hn.amo_buffer.invalidate(block)

    def _fill_l1(self, core: int, block: int, state: CacheState,
                 fetched_by_amo: bool, now: int, t: int) -> int:
        """Allocate the granted block; usable one L1 access after ``t``."""
        departures = self.privates[core].insert_l1(block, state,
                                                   fetched_by_amo)
        if departures:
            self._handle_departures(core, departures, now)
        return self._leg(t, self._l1_lat, "l1")

    def _record_snoop_traffic(self, slice_id: int, target: int,
                              with_data: bool, block: int = -1) -> None:
        hops = self._s2c_hops[slice_id][target]
        record = self._record
        record(SNOOP, hops)
        record(SNOOP_DATA if with_data else SNOOP_RESP, hops)
        bus = self.bus
        if bus.active:
            bus.emit(Event(EventKind.SNOOP, bus.now, target, block,
                           info={"slice": slice_id, "with_data": with_data}))

    def _holder_is_dirty(self, core: int, block: int) -> bool:
        # Inlined PrivateCacheHierarchy.find (L1 then L2) — called in a
        # loop over holders on the far-AMO path.
        line = self._l1sets[core][block % self._l1n].get(block)
        if line is None:
            line = self._l2sets[core][block % self._l2n].get(block)
        return line is not None and line.state.is_dirty

    def _invalidate_holders(self, slice_id: int, block: int, entry,
                            exclude: Optional[int], now: int,
                            t_dir: int, ack_to: Optional[int] = None) -> int:
        """Snoop-invalidate every private copy of ``block``.

        Snoops go out in parallel.  With ``ack_to=None`` the responses
        return to the home node (the far-AMO case: the HN must know all
        copies are gone before it executes) and the returned time is when
        the last response reaches the HN.  With ``ack_to=<core>`` the
        invalidation acks travel directly to that requestor (the
        CleanUnique/ReadUnique case), saving a NoC leg — the structural
        reason acquiring a block for a near AMO is cheaper than
        centralizing the same invalidations at the HN.  Either way the
        returned time is ``t_dir`` when there was nothing to snoop.
        """
        owner = entry.owner
        sharers = entry.sharers
        # Same iteration order as sorted(entry.holders()) without the
        # set-union/copy on the no-holder and owner-only fast paths.
        if not sharers:
            if owner is None:
                return t_dir
            holders = (owner,)
        elif owner is None:
            holders = sorted(sharers)
        else:
            holders = sorted(sharers | {owner})
        snoop_done = t_dir
        s2c = self._s2c_lat[slice_id]
        l1_lat = self._l1_lat
        direct = self._direct_acks
        l1_index = block % self._l1n
        l2_index = block % self._l2n
        for holder in holders:
            if holder == exclude:
                continue
            # Inlined PrivateCacheHierarchy.invalidate: drop the copy
            # from both levels.
            l2_set = self._l2sets[holder][l2_index]
            line = self._l1sets[holder][l1_index].pop(block, None)
            was_in_l1 = line is not None
            if was_in_l1:
                l2_set.pop(block, None)
            else:
                line = l2_set.pop(block, None)
            entry.drop(holder)
            if line is None:
                continue
            self.stats.snoops += 1
            self.stats.invalidations += 1
            # Dirty holders must forward data; a UniqueClean holder also
            # forwards since the exclusive LLC has no copy.
            forwards_data = line.state.is_dirty or line.state is UC
            self._record_snoop_traffic(slice_id, holder, forwards_data,
                                       block)
            if self.bus.active:
                self.bus.emit(Event(
                    EventKind.INVALIDATION, self.bus.now, holder, block,
                    info={"state": line.state.name, "requestor": ack_to,
                          "was_in_l1": was_in_l1}))
            to_holder = s2c[holder]
            if ack_to is None or not direct:
                back = to_holder
            else:
                back = self._c2c_lat[holder][ack_to]
            rtt = t_dir + to_holder + l1_lat + back
            if rtt > snoop_done:
                snoop_done = rtt
            for hook in self._inval_hooks[holder]:
                hook(block, now)
            if was_in_l1:
                for hook in self._depart_hooks[holder]:
                    hook(block, line.fetched_by_amo, line.reused, now)
        return snoop_done

    def _handle_departures(self, core: int,
                           departures: Tuple[Departure, ...],
                           now: int) -> None:
        """Process eviction fallout from an L1 allocation."""
        for dep in departures:
            line = dep.line
            if not dep.left_hierarchy:
                # L1 -> L2 spill: ends the L1D residency the reuse
                # predictor tracks.
                self.stats.l1_evictions += 1
                for hook in self._depart_hooks[core]:
                    hook(line.block, line.fetched_by_amo, line.reused, now)
                line.fetched_by_amo = False
                line.reused = False
                continue
            self.stats.l2_evictions += 1
            self._hierarchy_departure(core, line, now)

    def _hierarchy_departure(self, core: int, line, now: int) -> None:
        """A block left the private hierarchy: update HN + traffic."""
        block = line.block
        entry = self._dir_entries.get(block)
        if entry is None:
            entry = self.directory.entry(block)
        entry.drop(core)
        slice_id = block % self._nslices
        hn = self.home_nodes[slice_id]
        hops = self._c2s_hops[core][slice_id]
        if line.state is SC:
            # LLC already has a copy from the shared grant; just tell the
            # directory.
            self._record(EVICT_NOTIFY, hops)
            return
        # UC/UD/SD carry data back; the exclusive LLC allocates it.
        self._record(WRITEBACK, hops)
        self._llc_fill(hn, block)

    def _llc_fill(self, hn: HomeNode, block: int) -> None:
        victim = hn.llc_fill(block)
        if victim is not None:
            self.stats.llc_evictions += 1
            chan = self.addr_map.channel_of_block(victim.block)
            self.memory.access(chan, 0)
            self.stats.dram_writes += 1
            self._record(MEM_WRITE, 1)
            bus = self.bus
            if bus.active:
                bus.emit(Event(EventKind.DRAM_WRITE, bus.now,
                               block=victim.block, info={"channel": chan}))

    def _dram_read(self, block: int, issue_time: int) -> int:
        chan = self.addr_map.channel_of_block(block)
        done = self.memory.access(chan, issue_time)
        self.stats.dram_reads += 1
        self._record(MEM_READ, 1)
        self._record(MEM_DATA, 1)
        if self.bus.active:
            self.bus.emit(Event(EventKind.DRAM_READ, issue_time,
                                block=block, info={"channel": chan}))
        return done

    # --- event emission helpers (only called when the bus is active) --

    def _emit_handoff(self, block: int, prev_owner: Optional[int],
                      new_owner: Optional[int]) -> None:
        """Record an exclusive-ownership transfer; -1 denotes the HN."""
        if prev_owner == new_owner:
            return
        bus = self.bus
        bus.emit(Event(
            EventKind.LINE_HANDOFF, bus.now,
            new_owner if new_owner is not None else -1, block,
            info={"from": prev_owner if prev_owner is not None else -1,
                  "to": new_owner if new_owner is not None else -1}))
