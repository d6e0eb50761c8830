"""2D-mesh network-on-chip with XY routing (latency + traffic model).

The simulated system (Table II) uses an 8x8 mesh whose 64 tiles host the 32
cores (request nodes, RNs) and the 32 LLC slices / directory banks (home
nodes, HNs).  We place RNs on even tiles and HNs on odd tiles of a
row-major enumeration, which interleaves them across the die the way CMN
mesh products do.

The model is analytical: a message from tile A to tile B costs
``hops(A, B) * (router_latency + link_latency) + router_latency`` cycles
(every hop traverses one router and one link; the final router injects into
the destination node).  Queueing inside the fabric is not modelled — the
serialization that matters for AMO placement happens at the home node and
is modelled there (:mod:`repro.coherence.directory`).

All pairwise distances are fixed at construction, so the mesh builds dense
core<->slice / core<->core latency and hop tables up front; the per-message
cost of every routing query is two list indexes.  :class:`Machine` aliases
these tables directly in its transaction handlers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.noc.message import MsgType

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.events import EventBus


def mesh_dims(num_tiles: int) -> Tuple[int, int]:
    """Pick near-square mesh dimensions for ``num_tiles`` tiles.

    Returns ``(cols, rows)`` with ``cols * rows >= num_tiles`` and the
    aspect ratio as square as possible (e.g. 64 -> 8x8, 32 -> 6x6).
    """
    if num_tiles <= 0:
        raise ValueError("mesh needs at least one tile")
    cols = int(math.ceil(math.sqrt(num_tiles)))
    rows = int(math.ceil(num_tiles / cols))
    return cols, rows


class Mesh:
    """XY-routed 2D mesh connecting cores (RNs) and home nodes (HNs).

    Args:
        num_cores: request nodes.
        num_slices: home nodes (LLC slices).
        router_latency: cycles per router traversal.
        link_latency: cycles per link traversal.
    """

    def __init__(self, num_cores: int, num_slices: int,
                 router_latency: int = 1, link_latency: int = 1,
                 bus: Optional["EventBus"] = None) -> None:
        if num_cores <= 0 or num_slices <= 0:
            raise ValueError("mesh needs at least one core and one slice")
        self.num_cores = num_cores
        self.num_slices = num_slices
        self.router_latency = router_latency
        self.link_latency = link_latency
        self.bus = bus
        #: fused traffic meter, aliased so :meth:`record` skips the bus hop.
        self._traffic = bus.traffic if bus is not None else None
        self.cols, self.rows = mesh_dims(num_cores + num_slices)
        # Interleave RN/HN tiles: cores on even tile ids, slices on odd.
        self._core_tile = [self._tile_for(2 * i) for i in range(num_cores)]
        self._slice_tile = [self._tile_for(2 * i + 1) for i in range(num_slices)]
        # Dense distance tables: [src][dst] hop counts and latencies.
        per_hop = router_latency + link_latency
        self.c2s_hops: List[List[int]] = [
            [self.hops(ct, st) for st in self._slice_tile]
            for ct in self._core_tile]
        self.s2c_hops: List[List[int]] = [
            [self.hops(st, ct) for ct in self._core_tile]
            for st in self._slice_tile]
        self.c2c_hops: List[List[int]] = [
            [self.hops(a, b) for b in self._core_tile]
            for a in self._core_tile]
        self.c2s_lat: List[List[int]] = [
            [h * per_hop + router_latency for h in row]
            for row in self.c2s_hops]
        self.s2c_lat: List[List[int]] = [
            [h * per_hop + router_latency for h in row]
            for row in self.s2c_hops]
        self.c2c_lat: List[List[int]] = [
            [h * per_hop + router_latency for h in row]
            for row in self.c2c_hops]

    def record(self, msg: MsgType, hops: int,
               enqueue: Optional[int] = None,
               dequeue: Optional[int] = None) -> None:
        """Account one message of class ``msg`` travelling ``hops``.

        The mesh is the single gateway for protocol-message accounting:
        every message :class:`~repro.sim.machine.Machine` sends comes
        through here.  It feeds the fused traffic meter and, only when
        event sinks are attached, emits a MESSAGE event.  Request
        messages that serialize at a home node pass ``enqueue`` (arrival
        cycle at the ordering point) and ``dequeue`` (the cycle the HN
        started servicing them); the difference is the message's
        queueing delay, which observability sinks histogram.
        """
        meter = self._traffic
        if meter is None:
            return
        # Inlined TrafficMeter.record: this is the most frequent
        # accounting call in a simulation.
        meter.messages[msg] += 1
        flits = msg.flits
        meter.flits += flits
        meter.flit_hops += flits * hops
        bus = self.bus
        if bus.active:
            # Imported here, not at module level: repro.sim.events pulls
            # in repro.noc.message, so a top-level import would be
            # circular for any entry through the noc package.
            from repro.sim.events import Event, EventKind
            info: dict = {"msg": msg.name, "hops": hops, "count": 1}
            if enqueue is not None and dequeue is not None:
                info["enqueue"] = enqueue
                info["dequeue"] = dequeue
            bus.emit(Event(EventKind.MESSAGE, bus.now, info=info))

    def _tile_for(self, tile_id: int) -> Tuple[int, int]:
        total = self.cols * self.rows
        tile_id %= total
        return tile_id % self.cols, tile_id // self.cols

    def core_tile(self, core: int) -> Tuple[int, int]:
        """(x, y) tile coordinates of core ``core``."""
        return self._core_tile[core]

    def slice_tile(self, slice_id: int) -> Tuple[int, int]:
        """(x, y) tile coordinates of LLC slice ``slice_id``."""
        return self._slice_tile[slice_id]

    @staticmethod
    def hops(a: Tuple[int, int], b: Tuple[int, int]) -> int:
        """Manhattan hop count between two tiles under XY routing."""
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def latency(self, a: Tuple[int, int], b: Tuple[int, int]) -> int:
        """One-way message latency between tiles ``a`` and ``b``."""
        hops = self.hops(a, b)
        return hops * (self.router_latency + self.link_latency) + self.router_latency

    def core_to_slice(self, core: int, slice_id: int) -> int:
        """Latency of a core -> home-node message."""
        return self.c2s_lat[core][slice_id]

    def slice_to_core(self, slice_id: int, core: int) -> int:
        """Latency of a home-node -> core message."""
        return self.s2c_lat[slice_id][core]

    def core_to_core(self, a: int, b: int) -> int:
        """Latency of a direct core -> core message (forwarded data)."""
        return self.c2c_lat[a][b]

    def average_core_slice_latency(self) -> float:
        """Mean one-way RN->HN latency over all (core, slice) pairs."""
        total = sum(sum(row) for row in self.c2s_lat)
        return total / (self.num_cores * self.num_slices)
