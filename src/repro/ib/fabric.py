"""The IB/RoCE fabric: links with egress queues, PFC, ECN, drops.

Geometry: every host HCA hangs off a leaf switch (one switch up to
``ib_switch_radix`` hosts; beyond that, leaves connect through a single
spine — 1 hop same-leaf, 3 hops cross-leaf).  Every *directed* link is an
:class:`IbLink` owned by its transmitter: a control queue (priority 7 —
ACK/NAK/CNP/PAUSE class, never dropped, never marked, never paused) above a
data queue (priority 0 — MPI traffic), drained by one callback serialiser
(no process: a frame is one pooled call at its wire-end).

Congestion semantics by mode (see :class:`repro.ib.options.IbOptions`):

* **ib** — queues are unbounded; link-level credits are abstracted as
  "never drop".  Incast still queues (and is visible in the depth metrics),
  it just cannot lose.
* **roce** — the data queue has finite depth.  On enqueue above the ECN
  threshold the packet is CE-marked (receiver answers with a CNP).  With
  PFC on, a queue crossing XOFF makes the owning switch send PAUSE frames
  for that priority to **every upstream feeder** — host tx links and
  neighbouring switch egress ports — which stop dequeuing priority-0
  traffic until the RESUME at XON; a paused feeder's own queues then back
  up and re-assert pause one hop further: the hop-by-hop cascade.  With
  PFC off, enqueue at a full queue drops the packet and go-back-N pays.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.ib.options import IbOptions
from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import MachineConfig
    from repro.ib.nic import IbNic, IbPacket
    from repro.sim.core import Simulator

__all__ = ["IbFabric", "IbSwitch", "IbLink", "IbFabricError", "PRIO_DATA", "PRIO_CTL"]

PRIO_DATA = 0  #: the MPI traffic class, subject to PFC/ECN/drops
PRIO_CTL = 7  #: ACK/NAK/CNP class: strict priority, exempt from all three

#: per-packet Ethernet/IB framing beyond the transport header
FRAME_BYTES = 12


class IbFabricError(Exception):
    """Misrouted packet, unattached HCA, or wiring mistake."""


class IbLink:
    """One directed link: the transmitter-side egress queues + serialiser."""

    def __init__(
        self,
        sim: "Simulator",
        config: "MachineConfig",
        options: IbOptions,
        name: str,
        deliver: Callable[["IbPacket"], None],
        owner: Optional["IbSwitch"] = None,
    ):
        self.sim = sim
        self.config = config
        self.options = options
        self.name = name
        self.deliver = deliver
        #: the switch whose egress this is (None for a host tx link):
        #: finite-depth / ECN / XOFF accounting applies only on switches
        self.owner = owner
        self._data: deque = deque()
        self._ctl: deque = deque()
        self.paused_prios: set = set()
        self.down = False
        #: parked with nothing sendable: the next ``_stir`` schedules ``_next``
        self._idle = False
        self._us_per_byte = config.ib_link_us_per_byte
        self._prop_us = config.ib_wire_prop_us + (
            config.ib_switch_hop_us if owner is not None else 0.0
        )
        self.xoff = False  # this queue is above XOFF (owner switch state)
        self.bytes_tx = 0
        self.packets_tx = 0
        self.drops = 0
        self.ecn_marks = 0
        self.pause_us = 0.0
        self._paused_since: Optional[float] = None
        self.max_depth = 0
        # the start hop: like every zero-delay hop below, it orders same-instant work
        sim.schedule_pooled(0.0, self._next)

    # -- enqueue -----------------------------------------------------------
    def depth(self) -> int:
        return len(self._data)

    def enqueue(self, pkt: "IbPacket") -> None:
        """Queue ``pkt`` for transmission; RoCE drop/mark policy applies
        here, on the switch egress queues only."""
        if self.down:
            self.drops += 1
            return
        if pkt.prio == PRIO_CTL:
            self._ctl.append(pkt)
            self._stir()
            return
        sw = self.owner
        if sw is not None and self.options.mode == "roce":
            d = len(self._data)
            if not self.options.pfc and d >= self.options.queue_depth_pkts:
                self.drops += 1
                sw.drops += 1
                if sw.obs is not None:
                    sw.obs.count("ib", f"switch.{sw.name}.drops")
                return
            if self.options.ecn and d >= self.options.ecn_threshold_pkts:
                pkt.ecn = True
                self.ecn_marks += 1
                sw.ecn_marks += 1
                if sw.obs is not None:
                    sw.obs.count("ib", f"switch.{sw.name}.ecn_marks")
        self._data.append(pkt)
        if len(self._data) > self.max_depth:
            self.max_depth = len(self._data)
        if (
            sw is not None
            and self.options.mode == "roce"
            and self.options.pfc
            and not self.xoff
            and len(self._data) >= self.options.pfc_xoff_pkts
        ):
            self.xoff = True
            sw.port_congested(self)
        self._stir()

    # -- PFC control (applied by the downstream switch) --------------------
    def pause(self, prio: int) -> None:
        if prio not in self.paused_prios:
            self.paused_prios.add(prio)
            if self._paused_since is None:
                self._paused_since = self.sim.now

    def resume(self, prio: int) -> None:
        self.paused_prios.discard(prio)
        if not self.paused_prios and self._paused_since is not None:
            self.pause_us += self.sim.now - self._paused_since
            self._paused_since = None
        self._stir()

    # -- drain -------------------------------------------------------------
    # A callback serialiser whose hops order same-instant work (DESIGN.md §6,
    # "Callback-form engines"): a wake-up is one zero-delay hop, a frame one
    # pooled call at its wire-end, which picks the next frame inline.
    def _stir(self) -> None:
        if self._idle:
            self._idle = False
            self.sim.schedule_pooled(0.0, self._next)

    def _pick(self) -> Optional["IbPacket"]:
        if self._ctl:
            return self._ctl.popleft()
        if self._data and PRIO_DATA not in self.paused_prios:
            pkt = self._data.popleft()
            sw = self.owner
            if (
                sw is not None
                and self.xoff
                and len(self._data) <= self.options.pfc_xon_pkts
            ):
                self.xoff = False
                sw.port_drained(self)
            return pkt
        return None

    def _next(self) -> None:
        pkt = self._pick()
        if pkt is None:
            self._idle = True
            return
        self.sim.schedule_pooled(
            (pkt.nbytes + FRAME_BYTES) * self._us_per_byte, self._sent, (pkt,)
        )

    def _sent(self, pkt: "IbPacket") -> None:
        if self.down:
            self.drops += 1
        else:
            self.bytes_tx += pkt.nbytes
            self.packets_tx += 1
            self.sim.schedule_pooled(self._prop_us, self.deliver, (pkt,))
        self._next()


class IbSwitch:
    """One output-queued switch: egress ports + the PFC pause machinery."""

    def __init__(self, sim: "Simulator", config: "MachineConfig", options: IbOptions, name: str):
        self.sim = sim
        self.config = config
        self.options = options
        self.name = name
        #: neighbour key ("h<node>" or switch name) -> egress IbLink
        self.ports: Dict[str, IbLink] = {}
        #: links that transmit INTO this switch (pause targets)
        self.feeders: List[IbLink] = []
        #: node_id -> local egress port key, else route via self.uplink
        self.host_ports: Dict[int, str] = {}
        self.uplink: Optional[str] = None
        self.routes: Dict[int, str] = {}  # spine: dst node -> leaf port key
        self._congested = 0
        self._storm_until = 0.0
        self.drops = 0
        self.ecn_marks = 0
        self.pauses_sent = 0
        self.packets_routed = 0
        self.obs = None  # wired by the fabric

    # -- wiring ------------------------------------------------------------
    def add_port(self, key: str, deliver: Callable[["IbPacket"], None]) -> IbLink:
        link = IbLink(
            self.sim, self.config, self.options, f"{self.name}->{key}", deliver, owner=self
        )
        self.ports[key] = link
        return link

    # -- forwarding --------------------------------------------------------
    def ingress(self, pkt: "IbPacket") -> None:
        self.packets_routed += 1
        key = self.host_ports.get(pkt.dst_node)
        if key is None:
            key = self.routes.get(pkt.dst_node, self.uplink)
        if key is None:
            raise IbFabricError(f"{self.name}: no route to node {pkt.dst_node}")
        self.ports[key].enqueue(pkt)

    # -- PFC ---------------------------------------------------------------
    def port_congested(self, link: IbLink) -> None:
        """An egress queue crossed XOFF: first congested port pauses all
        upstream feeders of this switch for the data priority."""
        self._congested += 1
        if self._congested == 1:
            self._send_pause(pause=True)

    def port_drained(self, link: IbLink) -> None:
        self._congested -= 1
        if self._congested == 0 and self.sim.now >= self._storm_until:
            self._send_pause(pause=False)

    def force_pause(self, duration_us: float) -> None:
        """Fault injection (PFC storm): assert pause on every feeder for
        ``duration_us`` regardless of queue state."""
        self._storm_until = max(self._storm_until, self.sim.now + duration_us)
        self._send_pause(pause=True)
        self.sim.schedule(duration_us, self._storm_over)

    def _storm_over(self) -> None:
        if self.sim.now >= self._storm_until and self._congested == 0:
            self._send_pause(pause=False)

    def _send_pause(self, pause: bool) -> None:
        delay = self.config.ib_wire_prop_us  # PAUSE frame flight time
        for feeder in self.feeders:
            if pause:
                self.pauses_sent += 1
                self.sim.schedule(delay, feeder.pause, PRIO_DATA)
            else:
                self.sim.schedule(delay, feeder.resume, PRIO_DATA)
        if self.obs is not None and pause:
            self.obs.count("ib", f"switch.{self.name}.pauses", len(self.feeders))

    # -- metrics -----------------------------------------------------------
    def queue_depths(self) -> Dict[str, int]:
        return {key: link.depth() for key, link in self.ports.items()}


class IbFabric:
    """The rail: HCAs, switches, and the connection directory."""

    def __init__(self, sim: "Simulator", config: "MachineConfig", options: IbOptions, n_nodes: int):
        options.validate()
        self.sim = sim
        self.config = config
        self.options = options
        self.n_nodes = n_nodes
        self.nics: Dict[int, "IbNic"] = {}
        self.switches: List[IbSwitch] = []
        self._leaf_of: Dict[int, IbSwitch] = {}
        self.down = False  # rail-level kill switch (faults)
        self.obs = None  # wired by the Cluster
        #: QP connection handshake mailbox: key -> payload (+ waiters)
        self._directory: Dict[Any, Any] = {}
        self._dir_waiters: Dict[Any, List[SimEvent]] = {}
        self._build(n_nodes)

    # -- topology ----------------------------------------------------------
    def _build(self, n: int) -> None:
        radix = self.config.ib_switch_radix
        n_leaves = 1 if n <= radix else -(-n // radix)
        leaves = [
            IbSwitch(self.sim, self.config, self.options, f"ibsw{i}")
            for i in range(n_leaves)
        ]
        self.switches.extend(leaves)
        for node in range(n):
            leaf = leaves[node // radix]
            self._leaf_of[node] = leaf
            leaf.host_ports[node] = f"h{node}"
            leaf.add_port(f"h{node}", self._make_host_deliver(node))
        if n_leaves > 1:
            spine = IbSwitch(self.sim, self.config, self.options, "ibspine")
            self.switches.append(spine)
            for leaf in leaves:
                up = leaf.add_port(spine.name, spine.ingress)
                leaf.uplink = spine.name
                spine.feeders.append(up)
                down = spine.add_port(leaf.name, leaf.ingress)
                leaf.feeders.append(down)
                for node, _ in leaf.host_ports.items():
                    spine.routes[node] = leaf.name

    def _make_host_deliver(self, node: int) -> Callable[["IbPacket"], None]:
        def deliver(pkt: "IbPacket") -> None:
            nic = self.nics.get(node)
            if nic is not None:
                nic.receive(pkt)

        return deliver

    def attach(self, nic: "IbNic") -> IbLink:
        """Register ``nic`` and return its tx link (NIC -> leaf switch)."""
        if nic.node_id in self.nics:
            raise IbFabricError(f"node {nic.node_id} already has an attached HCA")
        if nic.node_id not in self._leaf_of:
            raise IbFabricError(
                f"node {nic.node_id} outside fabric of {self.n_nodes} hosts"
            )
        self.nics[nic.node_id] = nic
        leaf = self._leaf_of[nic.node_id]
        tx = IbLink(
            self.sim,
            self.config,
            self.options,
            f"hca{nic.node_id}->{leaf.name}",
            leaf.ingress,
        )
        leaf.feeders.append(tx)
        return tx

    def wire_obs(self, observer) -> None:
        self.obs = observer
        for sw in self.switches:
            sw.obs = observer

    # -- transmission ------------------------------------------------------
    def inject(self, pkt: "IbPacket") -> None:
        """Fire-and-forget entry used by HCAs (after their own pacing)."""
        if self.down:
            nic = self.nics.get(pkt.src_node)
            if nic is not None:
                nic.rail_down_drops += 1
            return
        if pkt.dst_node not in self._leaf_of:
            raise IbFabricError(f"inject to unknown node {pkt.dst_node}")
        nic = self.nics.get(pkt.src_node)
        if nic is None:
            raise IbFabricError(f"inject from unattached node {pkt.src_node}")
        nic.tx_link.enqueue(pkt)

    def hops(self, src: int, dst: int) -> int:
        return 1 if self._leaf_of[src] is self._leaf_of[dst] else 3

    # -- connection directory ---------------------------------------------
    def publish(self, key: Any, value: Any) -> None:
        self._directory[key] = value
        for ev in self._dir_waiters.pop(key, []):
            if not ev.triggered:
                ev.succeed(value)

    def lookup(self, thread, key: Any):
        """Coroutine: block until a peer publishes ``key`` (QP handshake)."""
        while key not in self._directory:
            ev = SimEvent(self.sim, name="ibdir")
            self._dir_waiters.setdefault(key, []).append(ev)
            yield from thread.wait_sim_event(ev)
        return self._directory[key]

    # -- fleet metrics -----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "bytes_tx": 0,
            "packets_tx": 0,
            "drops": 0,
            "ecn_marks": 0,
            "pauses_sent": 0,
            "pause_us": 0.0,
            "max_queue_depth": 0,
        }
        for nic in self.nics.values():
            out["bytes_tx"] += nic.tx_link.bytes_tx
            out["packets_tx"] += nic.tx_link.packets_tx
            out["pause_us"] += nic.tx_link.pause_us
        for sw in self.switches:
            out["drops"] += sw.drops
            out["ecn_marks"] += sw.ecn_marks
            out["pauses_sent"] += sw.pauses_sent
            for link in sw.ports.values():
                out["max_queue_depth"] = max(out["max_queue_depth"], link.max_depth)
                out["pause_us"] += link.pause_us
        return out
