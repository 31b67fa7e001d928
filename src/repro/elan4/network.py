"""The QsNetII fabric: packets, injection links, routing latency.

The fabric moves :class:`Packet` objects between NICs.  Costs:

* **injection serialisation** — each NIC has one transmit link; packets
  from the same NIC serialise at ``link_us_per_byte`` (~1.3 GB/s), which is
  what pipelined transfers contend for;
* **routing** — ``hops × (switch_hop_us + wire_prop_us)`` from the fat-tree
  topology;
* **in-order delivery** — QsNet guarantees point-to-point ordering; the
  single tx link plus deterministic routing preserves it here, and a strict
  per-(src,dst) sequence check enforces it at delivery time (the PTL's
  FIN-after-data correctness depends on this, §4.2).

Reception-side costs (DMA into host queues) are charged by the receiving
NIC's engines, not here.

Only NIC engines put packets on the wire, and they have no thread to
suspend: :meth:`Fabric.inject` (or :meth:`Fabric.transmit_from_nic`, which
starts it one kernel hop later) and :meth:`Fabric.broadcast` queue on the
source's injection link in one FIFO and call the caller's continuation back
once the packet is on the wire (DESIGN.md §6, "Callback-form engines").

Routing takes one of two wall-clock paths with identical modelled time: the
**coalesced** path (healthy fabric, default) charges all hop transits at
injection and moves the packet with a single analytically-summed delivery
event, while the **detailed** path (faulty topology or
``REPRO_SIM_SLOWPATH=1``) additionally schedules one observation event per
Elite-4 hop at its traversal time.  The delivery event itself is scheduled
the same way in both modes, so arrival times and event ordering never
depend on which path ran.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, TYPE_CHECKING

import numpy as np

from repro.sim.core import slowpath_enabled
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import MachineConfig
    from repro.elan4.fattree import Topology
    from repro.obs.tracer import Tracer
    from repro.sim.core import Simulator

__all__ = ["Packet", "Fabric", "FabricError"]


class FabricError(Exception):
    """Misrouted packet, unattached NIC, partition, or ordering violation."""


@dataclass
class Packet:
    """One network transaction between NICs.

    ``nbytes`` is the wire footprint (headers included); ``data`` optionally
    carries real payload bytes so receivers can verify integrity; ``kind``
    selects the receive handler on the destination NIC; ``meta`` is the
    handler's arguments.
    """

    src_node: int
    dst_node: int
    nbytes: int
    kind: str
    meta: Dict[str, Any] = field(default_factory=dict)
    data: Optional[np.ndarray] = None
    seq: int = -1  # stamped by the fabric

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet {self.kind} n{self.src_node}->n{self.dst_node} "
            f"{self.nbytes}B seq={self.seq}>"
        )


class Fabric:
    """The interconnect: attach NICs, transmit packets."""

    #: per-packet wire framing overhead (route/CRC flits)
    FRAME_BYTES = 8

    #: packet kinds with a recovery path above the link layer even without
    #: the queue reliability protocol (rendezvous read watchdog re-issues)
    RECOVERABLE_KINDS = frozenset({"rdma_read_req", "rdma_read_data"})

    def __init__(self, sim: "Simulator", config: "MachineConfig",
                 topology: "Topology", tracer: "Tracer"):
        self.sim = sim
        self.config = config
        self.topology = topology
        self._nics: Dict[int, Any] = {}
        self._tx_links: Dict[int, Resource] = {}
        self._tx_seq = itertools.count()
        self._last_delivered: Dict[tuple, int] = {}
        self.packets_delivered = 0
        self.bytes_delivered = 0
        self._loss_rate = 0.0
        self._loss_rng = None
        self.packets_lost = 0
        self._corrupt_rate = 0.0
        self._corrupt_rng = None
        self.packets_corrupted = 0
        self.packets_unroutable = 0
        #: per-(src,dst) latest scheduled arrival; reroutes may only shorten a
        #: path, so delivery times are clamped monotonic to keep in-order
        self._arrival_horizon: Dict[tuple, float] = {}
        #: a dead rail swallows everything after injection (power loss)
        self.down = False
        self.tracer = tracer
        self.obs = None  # observability hook, wired by the Cluster
        # -- fast paths (wall-clock only; modelled time and event ordering
        # are identical on every path, see DESIGN.md §"Performance model of
        # the model"); REPRO_SIM_SLOWPATH=1 turns both off ----------------
        fast = not slowpath_enabled()
        #: healthy packets take one summed delivery event; when off (or
        #: while the topology is faulty) each Elite-4 hop gets an
        #: observation event at its traversal time
        self.hop_coalescing = fast
        self._route_cache = fast
        self._link_us = config.link_us_per_byte
        self._hop_us = config.switch_hop_us + config.wire_prop_us
        self.hop_transits = 0  # per-hop events taken (detailed mode only)

    # -- attachment ------------------------------------------------------
    def attach(self, nic) -> None:
        node_id = nic.node_id
        if node_id in self._nics:
            raise FabricError(f"node {node_id} already has an attached NIC")
        if node_id >= self.topology.n_leaves:
            raise FabricError(
                f"node {node_id} outside topology of {self.topology.n_leaves} leaves"
            )
        self._nics[node_id] = nic
        self._tx_links[node_id] = Resource(self.sim, 1, name=f"txlink{node_id}")

    def nic(self, node_id: int):
        nic = self._nics.get(node_id)
        if nic is None:
            raise FabricError(f"no NIC attached at node {node_id}")
        return nic

    # -- transmission ------------------------------------------------------
    def inject(self, packet: Packet, then=None, *args) -> None:
        """Serialise ``packet`` on its source's injection link, put it on
        the wire, then call ``then(ok, *args)``.  Delivery to the remote NIC
        happens after the routing latency; point-to-point order is preserved
        because each source drains through one link and one path.  ``ok``
        is False when the wire refused the packet (:class:`FabricError`:
        partitioned fabric, no recovery story); ``then`` runs first — it is
        the caller's ``finally`` — and the error then propagates out of
        ``sim.run()``."""
        if packet.dst_node not in self._nics:
            raise FabricError(f"transmit to unattached node {packet.dst_node}")
        link = self._tx_links.get(packet.src_node)
        if link is None:
            raise FabricError(f"transmit from unattached node {packet.src_node}")
        if self.obs is not None and packet.meta.get("obs_tid") is not None:
            # injection timestamp rides the packet so _deliver can record
            # the wire span (link contention + serialisation + hops)
            packet.meta["obs_tx"] = self.sim.now
        link.hold(
            (packet.nbytes + self.FRAME_BYTES) * self._link_us,
            self._on_wire, packet, then, args,
        )

    def transmit_from_nic(self, packet: Packet, then=None, *args) -> None:
        """Fire-and-forget :meth:`inject` from a NIC engine that goes on
        with other work in the same instant (the next chunk's PCI fetch):
        the injection starts one kernel hop later, behind whatever that
        instant already queued on the link."""
        self.sim.schedule_pooled(0.0, self.inject, (packet, then, *args))

    def _on_wire(self, packet: Packet, then, args: tuple) -> None:
        try:
            self._launch(packet)
        except BaseException:
            if then is not None:
                then(False, *args)
            raise
        if then is not None:
            then(True, *args)

    def _launch(self, packet: Packet) -> None:
        """The serialised packet leaves the injection link: stamp its wire
        sequence number, drop it if the rail is dead or the destination
        unroutable, otherwise account its hops and schedule the delivery."""
        # seq is assigned at *wire* time, not when the transmission was
        # requested: broadcast replication stamps its copies after
        # serialising, so a p2p packet that grabbed a seq early but then
        # queued behind the broadcast on the injection link would otherwise
        # carry an inverted seq
        packet.seq = next(self._tx_seq)
        if self.down:
            self.packets_lost += 1
            self.tracer.count("fabric.rail_down_drop")
            if self.obs is not None:
                self.obs.flight_instant(
                    packet.meta.get("obs_tid"),
                    "switch",
                    "rail_down_drop",
                    node=packet.src_node,
                )
            if self.sim.trace is not None:
                self.sim.trace.append((self.sim.now, "rail_down_drop", packet.kind,
                                       packet.src_node, packet.dst_node, packet.seq))
            return
        info = self._route_info(packet.src_node, packet.dst_node)
        if info is None:
            # truly partitioned: recoverable traffic (reliability-tracked or
            # watchdog-covered RDMA reads) is dropped and accounted; anything
            # else has no recovery story, so fail loudly
            if packet.meta.get("droppable") or packet.kind in self.RECOVERABLE_KINDS:
                self.packets_unroutable += 1
                self.tracer.count("fabric.unroutable")
                if self.obs is not None:
                    self.obs.flight_instant(
                        packet.meta.get("obs_tid"),
                        "switch",
                        "unroutable",
                        node=packet.src_node,
                    )
                if self.sim.trace is not None:
                    self.sim.trace.append((self.sim.now, "unroutable", packet.kind,
                                           packet.src_node, packet.dst_node, packet.seq))
                return
            raise FabricError(
                f"node {packet.dst_node} unreachable from node "
                f"{packet.src_node}: fabric partitioned"
            )
        hops, switches = info
        if self.hop_coalescing and not self.topology.faulty:
            # Coalesced: charge every transit at injection; one summed
            # delivery event carries the packet end to end.
            for sw in switches:
                sw.packets_routed += 1
        else:
            # Detailed: one observation event per Elite-4 hop at its
            # traversal time.  These are bookkeeping-only (counters, trace);
            # the delivery event below is scheduled identically in both
            # modes, so modelled arrival time and event ordering never
            # depend on the mode.
            self._schedule_hop_transits(switches)
        deliver_at = self.sim.now + hops * self._hop_us
        key = (packet.src_node, packet.dst_node)
        horizon = self._arrival_horizon.get(key, 0.0)
        if deliver_at < horizon:
            deliver_at = horizon
        self._arrival_horizon[key] = deliver_at
        self.sim.schedule(deliver_at - self.sim.now, self._deliver, packet)

    def _route_info(self, src: int, dst: int) -> Optional[tuple]:
        """``(hops, switch objects)`` for the healthy route, or None."""
        if self._route_cache:
            return self.topology.route_fast(src, dst)
        interior = self.topology.route(src, dst)
        if interior is None:
            return None
        return (len(interior), tuple(self.topology.switches[n] for n in interior))

    def _schedule_hop_transits(self, switches: tuple) -> None:
        offset = 0.0
        for sw in switches:
            offset += self._hop_us
            self.sim.schedule_pooled(offset, self._hop_transit, (sw,))

    def _hop_transit(self, sw) -> None:
        sw.packets_routed += 1
        self.hop_transits += 1

    def broadcast(self, packet: Packet, dst_nodes, then=None, *args) -> None:
        """Hardware broadcast: serialise once at the source injection link,
        then the switches replicate to every node in ``dst_nodes``
        (including the source's own NIC if listed) and ``then(*args)`` runs.
        This is the single-injection property that makes Elan hardware
        collectives fast; contrast with a software tree's ⌈log n⌉ serial
        sends."""
        link = self._tx_links.get(packet.src_node)
        if link is None:
            raise FabricError(f"broadcast from unattached node {packet.src_node}")
        link.hold(
            (packet.nbytes + self.FRAME_BYTES) * self._link_us,
            self._replicate, packet, dst_nodes, then, args,
        )

    def _replicate(self, packet: Packet, dst_nodes, then, args: tuple) -> None:
        for dst in dst_nodes:
            if dst not in self._nics:
                raise FabricError(f"broadcast to unattached node {dst}")
            copy = Packet(
                src_node=packet.src_node,
                dst_node=dst,
                nbytes=packet.nbytes,
                kind=packet.kind,
                meta=dict(packet.meta),
                data=packet.data,
            )
            copy.seq = next(self._tx_seq)
            hops = self.topology.hops(packet.src_node, dst)
            # replicated copies honour the same per-pair arrival horizon as
            # point-to-point traffic: a reroute (switch death/restore) can
            # shorten the path mid-window, and an unclamped copy would
            # overtake earlier packets still in flight on the longer route
            deliver_at = self.sim.now + hops * self._hop_us
            key = (packet.src_node, dst)
            horizon = self._arrival_horizon.get(key, 0.0)
            if deliver_at < horizon:
                deliver_at = horizon
            self._arrival_horizon[key] = deliver_at
            self.sim.schedule(deliver_at - self.sim.now, self._deliver, copy)
        if then is not None:
            then(*args)

    def set_loss(self, rate: float, seed: int = 0) -> None:
        """Fault injection: drop each ``droppable``-marked packet with
        probability ``rate`` (deterministic, seeded).  Only traffic under
        the end-to-end reliability protocol marks itself droppable — the
        base QsNet link layer is lossless (CRC + link-level retry)."""
        if not 0.0 <= rate < 1.0:
            raise FabricError(f"loss rate {rate} outside [0, 1)")
        self._loss_rate = rate
        self._loss_rng = np.random.default_rng(seed)

    def set_corruption(self, rate: float, seed: int = 0) -> None:
        """Fault injection: corrupt packets in flight with probability
        ``rate``.  A corrupted packet fails its CRC and is discarded by the
        receiving switch, so this behaves like loss — but it also applies to
        the RDMA read request/data path, whose recovery is the rendezvous
        completion watchdog rather than the queue reliability protocol."""
        if not 0.0 <= rate < 1.0:
            raise FabricError(f"corruption rate {rate} outside [0, 1)")
        self._corrupt_rate = rate
        self._corrupt_rng = np.random.default_rng(seed)

    def _deliver(self, packet: Packet) -> None:
        trace = self.sim.trace
        if self.down:
            self.packets_lost += 1
            if trace is not None:
                trace.append((self.sim.now, "rail_down_drop", packet.kind,
                              packet.src_node, packet.dst_node, packet.seq))
            return
        if (
            self._loss_rate > 0.0
            and packet.meta.get("droppable")
            and self._loss_rng.random() < self._loss_rate
        ):
            self.packets_lost += 1
            if trace is not None:
                trace.append((self.sim.now, "loss", packet.kind,
                              packet.src_node, packet.dst_node, packet.seq))
            if self.obs is not None:
                self.obs.count("fabric", "packet_loss")
                self.obs.flight_instant(
                    packet.meta.get("obs_tid"),
                    "switch",
                    "packet_loss",
                    node=packet.dst_node,
                )
            return
        if (
            self._corrupt_rate > 0.0
            and (packet.meta.get("droppable") or packet.kind in self.RECOVERABLE_KINDS)
            and self._corrupt_rng.random() < self._corrupt_rate
        ):
            self.packets_corrupted += 1
            self.tracer.count("fabric.corrupted")
            if self.obs is not None:
                self.obs.flight_instant(
                    packet.meta.get("obs_tid"),
                    "switch",
                    "packet_corrupt",
                    node=packet.dst_node,
                )
            if trace is not None:
                trace.append((self.sim.now, "corrupt", packet.kind,
                              packet.src_node, packet.dst_node, packet.seq))
            return
        key = (packet.src_node, packet.dst_node)
        last = self._last_delivered.get(key, -1)
        if packet.seq <= last:
            raise FabricError(f"ordering violation on {key}: {packet}")
        self._last_delivered[key] = packet.seq
        self.packets_delivered += 1
        self.bytes_delivered += packet.nbytes
        if self.obs is not None:
            t_inject = packet.meta.pop("obs_tx", None)
            if t_inject is not None:
                # the fabric leg of the flight: injection-link contention,
                # serialisation, and every switch hop to the remote NIC
                self.obs.flight_span(
                    packet.meta.get("obs_tid"),
                    "switch",
                    "wire",
                    t_inject,
                    node=packet.dst_node,
                    nbytes=packet.nbytes,
                )
        if trace is not None:
            trace.append((self.sim.now, "deliver", packet.kind, packet.src_node,
                          packet.dst_node, packet.nbytes, packet.seq))
        self._nics[packet.dst_node].receive(packet)
