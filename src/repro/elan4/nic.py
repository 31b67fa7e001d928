"""The Elan4 NIC: command processing, engines, events, contexts.

One :class:`Elan4Nic` sits on each node's PCI-X bus and owns:

* the **MMU** translating E4 addresses (:mod:`repro.elan4.addr`);
* the **QDMA engine** (:mod:`repro.elan4.qdma`);
* the **RDMA engine** with ``nic_dma_engines`` concurrent descriptors
  (:mod:`repro.elan4.rdma`);
* the **Tport engine** (:mod:`repro.elan4.tport`);
* the **event engine** executing chained operations
  (:meth:`Elan4Nic.run_chain`);
* per-context **pending-operation tracking**, which is what makes the safe
  connection-finalization of §4.1 possible: "An existing connection can go
  through its finalization stage only when the involving processes have
  completed all the pending messages synchronously ... a leftover DMA
  descriptor might regenerate its traffic indefinitely."

Processes interact with the NIC through an :class:`Elan4Context` — the
handle obtained by claiming a context in the system-wide capability (§5).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Set, TYPE_CHECKING

from repro.annotations import acquires, releases
from repro.elan4.addr import E4Addr, Elan4Mmu
from repro.elan4.capability import ElanCapability, VpidEntry
from repro.elan4.event import ChainOp, ElanEvent
from repro.elan4.network import Fabric, Packet
from repro.elan4.qdma import QdmaEngine, QdmaQueue
from repro.elan4.rdma import RdmaDescriptor, RdmaEngine
from repro.elan4.tport import TportEndpoint, TportEngine
from repro.sim.core import slowpath_enabled
from repro.sim.events import SimEvent
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import MachineConfig
    from repro.elan4.hwbarrier import HwBarrierGroup
    from repro.hw.memory import AddressSpace, Buffer
    from repro.hw.node import Node
    from repro.sim.core import Simulator

__all__ = ["Elan4Nic", "Elan4Context", "NicError"]


class NicError(Exception):
    """Protocol misuse detected by the NIC model."""


def _streamed() -> None:
    """Completion of a cut-through tail: nothing to do."""


class Elan4Nic:
    """One Elan4 QM-500 card."""

    def __init__(
        self,
        sim: "Simulator",
        config: "MachineConfig",
        node: "Node",
        fabric: Fabric,
        capability: ElanCapability,
    ):
        self.sim = sim
        self.config = config
        self.node = node
        self.node_id = node.node_id
        self.fabric = fabric
        self.capability = capability
        self.mmu = Elan4Mmu(tlb=not slowpath_enabled())
        #: each card sits behind its own PCI-X bridge segment, so multirail
        #: nodes do not serialise both NICs on one bus (the topology real
        #: multirail servers used — and the reason multirail pays at all)
        from repro.hw.pci import PciBus

        self.pci = PciBus(sim, config, name=f"pci{self.node_id}.elan4")
        self.dma_engines = Resource(sim, config.nic_dma_engines, name=f"dma{self.node_id}")
        self.qdma = QdmaEngine(self)
        self.rdma = RdmaEngine(self)
        self.tport = TportEngine(self)
        self._pending: Dict[int, int] = {}
        self._drain_waiters: Dict[int, List[SimEvent]] = {}
        #: contexts torn down *uncooperatively* (owner died; no drain) —
        #: their leftover pending ops are accounted-for, not leaked
        self.reclaimed_ctxs: Set[int] = set()
        #: hardware collective groups with members on this card, by group
        #: id: broadcast -> member contexts, barrier -> the group
        self.hwbcast_groups: Dict[int, List["Elan4Context"]] = {}
        self.hwbarrier_groups: Dict[int, "HwBarrierGroup"] = {}
        self.dropped: List[tuple] = []
        self.chains_run = 0
        self.stalled = False
        #: observability hook, wired by the Cluster (None → no tracing)
        self.obs = None
        self._stalled_work: List[tuple] = []  # ("pkt"|"chain", item) in order
        fabric.attach(self)
        node.devices.setdefault("elan4", self)
        if sim.sanitizer is not None:
            sim.sanitizer.on_nic(self)

        self._dispatch: Dict[str, Callable[[Packet], None]] = {
            "qdma": self.qdma.handle_packet,
            "rdma_write": self.rdma.handle_write_chunk,
            "rdma_read_req": self.rdma.handle_read_request,
            "rdma_read_data": self.rdma.handle_read_data,
            "tport_eager": self.tport.handle_packet,
            "tport_rts": self.tport.handle_packet,
            "tport_fin": self.tport.handle_fin,
        }

    # -- fault injection: freeze / thaw the card's engines -------------------
    def stall(self) -> None:
        """Freeze the receive path and event engine.  Arriving packets and
        chained operations are parked (the card's input FIFO backs up) and
        replayed in arrival order on :meth:`resume` — a hung firmware /
        PCI-bridge stall, not a crash: no state is lost."""
        self.stalled = True

    def resume(self) -> None:
        if not self.stalled:
            return
        self.stalled = False
        work, self._stalled_work = self._stalled_work, []
        for kind, item in work:
            if kind == "pkt":
                self.receive(item)
            else:
                self._start_chain(item)

    # -- fabric interface ---------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        if self.stalled:
            self._stalled_work.append(("pkt", pkt))
            return
        handler = self._dispatch.get(pkt.kind)
        if handler is None:
            self.drop_packet(pkt, reason=f"unknown kind {pkt.kind!r}")
            return
        handler(pkt)

    def drop_packet(self, pkt: Packet, reason: str) -> None:
        """Record a dropped packet.  Healthy runs never drop; tests assert
        emptiness, and fault-injection tests assert specific reasons."""
        self.dropped.append((self.sim.now, reason, pkt))

    # -- payload DMA (optionally cut-through) --------------------------------
    def stream_dma(self, nbytes: int, fn: Callable[..., Any], *args: Any) -> None:
        """Move a QDMA/Tport/broadcast payload across the PCI bus, then
        ``fn(*args)`` once the part that gates the pipeline has crossed.

        With ``config.nic_cutthrough_flit == 0`` (the default, matching the
        paper's testbed: its QDMA and MPICH latency slopes are the *sum* of
        PCI+wire+PCI per-byte costs) the whole payload is on the critical
        path.  A nonzero flit enables cut-through: only the first flit
        gates the pipeline and the rest streams concurrently with the wire
        stage (still consuming bus time for contention accounting) — the
        ablation for "what if the NIC path were fully pipelined".
        """
        flit = self.config.nic_cutthrough_flit
        if flit <= 0 or nbytes <= flit:
            self.pci.dma(nbytes, fn, *args)
        else:
            self.pci.dma(flit, self._stream_rest, nbytes - flit, fn, args)

    def _stream_rest(self, rest: int, fn: Callable[..., Any], args: tuple) -> None:
        # the tail streams behind the pipeline: bus time, nobody waits on it
        self.sim.schedule_pooled(0.0, self.pci.dma, (rest, _streamed))
        fn(*args)

    # -- event engine ------------------------------------------------------
    def run_chain(self, op: ChainOp) -> None:
        """Execute a chained operation after the event-engine latency.
        An owned operation is its context's pending work from here on,
        including while it waits out a stall."""
        if op.ctx is not None:
            self.track_pending(op.ctx)
        if self.stalled:
            self._stalled_work.append(("chain", op))
            return
        self._start_chain(op)

    def _start_chain(self, op: ChainOp) -> None:
        self.chains_run += 1
        self.sim.schedule(self.config.nic_chain_us, self._chain_fired, op)

    def _chain_fired(self, op: ChainOp) -> None:
        op.run()
        if op.ctx is not None:
            self.untrack_pending(op.ctx)

    # -- addressing ----------------------------------------------------------
    def resolve_vpid(self, vpid: int) -> VpidEntry:
        return self.capability.resolve(vpid)

    def ctx_of_vpid(self, vpid: int) -> int:
        return self.capability.resolve(vpid).ctx

    # -- pending-operation tracking (drain support, §4.1) ---------------------
    @acquires("pending-op")
    def track_pending(self, ctx: int) -> None:
        self._pending[ctx] = self._pending.get(ctx, 0) + 1

    @releases("pending-op")
    def untrack_pending(self, ctx: int) -> None:
        count = self._pending.get(ctx, 0) - 1
        if count < 0:
            raise NicError(f"pending underflow for ctx {ctx:#x}")
        self._pending[ctx] = count
        if count == 0:
            for ev in self._drain_waiters.pop(ctx, []):
                ev.succeed(None)

    def send_on_wire(self, ok: bool, ctx: int, done: Optional[ElanEvent]) -> None:
        """``Fabric.inject`` continuation of a QDMA or Tport send: the packet
        is on the wire (or was refused), so the send buffer is reusable —
        ``done`` fires unless refused — and the pending slot returns."""
        try:
            if ok and done is not None:
                done.fire()
        finally:
            self.untrack_pending(ctx)

    def pending_ops(self, ctx: int) -> int:
        return self._pending.get(ctx, 0)

    def drain_event(self, ctx: int) -> SimEvent:
        """Event completing when the context has no in-flight NIC work."""
        ev = SimEvent(self.sim, name=f"drain:{ctx:#x}")
        if self.pending_ops(ctx) == 0:
            ev.succeed(None)
        else:
            self._drain_waiters.setdefault(ctx, []).append(ev)
        return ev


class Elan4Context:
    """A process's handle on its claimed hardware context (libelan4-like)."""

    def __init__(self, nic: Elan4Nic, entry: VpidEntry, space: "AddressSpace"):
        if entry.node_id != nic.node_id:
            raise NicError(
                f"context claimed on node {entry.node_id} cannot attach to "
                f"NIC of node {nic.node_id}"
            )
        self.nic = nic
        self.sim = nic.sim
        self.config = nic.config
        self.entry = entry
        self.space = space
        self.finalized = False
        self._queues: List[QdmaQueue] = []

    @property
    def ctx(self) -> int:
        return self.entry.ctx

    @property
    def vpid(self) -> int:
        return self.entry.vpid

    # -- memory ------------------------------------------------------------
    @acquires("mmu-registration")
    def map_buffer(self, buf: "Buffer") -> E4Addr:
        """Expose host memory to the NIC; returns its E4 address (the
        "expanded memory descriptor" ingredient of §4.2)."""
        self._check_live()
        return self.nic.mmu.map(self.ctx, buf.space, buf.addr, buf.nbytes)

    @releases("mmu-registration")
    def unmap(self, e4: E4Addr) -> None:
        """Drop one registration made by :meth:`map_buffer`.  Per-transfer
        mappings (rendezvous gets, tport RTS sources) must come back here
        at the transfer's terminal point or the MMU table grows without
        bound until ``unmap_context`` at finalize."""
        self.nic.mmu.unmap(self.ctx, e4)

    # -- queues ----------------------------------------------------------------
    def create_queue(self, queue_id: int, nslots: Optional[int] = None) -> QdmaQueue:
        self._check_live()
        n = self.config.qslots_per_queue if nslots is None else nslots
        q = self.nic.qdma.create_queue(self.ctx, queue_id, n, self.space)
        self._queues.append(q)
        return q

    # -- QDMA ----------------------------------------------------------------
    def qdma_send(
        self,
        thread,
        dst_vpid: int,
        queue_id: int,
        payload,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Generator:
        """Coroutine: post a ≤2 KB message to a remote queue.  Returns the
        source-completion :class:`ElanEvent`."""
        self._check_live()
        return (
            yield from self.nic.qdma.host_send(
                thread, self.vpid, dst_vpid, queue_id, payload, meta
            )
        )

    def chained_qdma(
        self,
        dst_vpid: int,
        queue_id: int,
        payload,
        meta: Optional[Dict[str, Any]] = None,
    ) -> ChainOp:
        """A chained-QDMA operation to attach to any :class:`ElanEvent`."""
        self._check_live()
        return self.nic.qdma.chained_command(self.vpid, dst_vpid, queue_id, payload, meta)

    # -- RDMA ----------------------------------------------------------------
    def rdma_issue(self, thread, desc: RdmaDescriptor) -> Generator:
        """Coroutine: issue an RDMA descriptor; returns its done event."""
        self._check_live()
        return (yield from self.nic.rdma.host_issue(thread, desc))

    def make_event(self, count: int = 1, name: str = "event") -> ElanEvent:
        self._check_live()
        return ElanEvent(self.nic, count=count, name=f"{name}@{self.vpid}")

    # -- Tport ----------------------------------------------------------------
    def tport_endpoint(self) -> TportEndpoint:
        self._check_live()
        return TportEndpoint(self)

    # -- lifecycle ----------------------------------------------------------
    def pending_ops(self) -> int:
        return self.nic.pending_ops(self.ctx)

    def drain(self, thread) -> Generator:
        """Block until every in-flight NIC operation of this context is
        complete — the mandatory step before finalization (§4.1)."""
        yield from thread.wait_sim_event(self.nic.drain_event(self.ctx))

    def finalize(self, thread) -> Generator:
        """Drain, destroy queues, tear down translations, release the VPID.

        After this, any packet addressed to the old VPID resolves to a dead
        VPID (a :class:`~repro.elan4.capability.CapabilityError` at the
        sender) — never to a silent write into recycled memory.
        """
        self._check_live()
        yield from self.drain(thread)
        self.nic.qdma.destroy_context_queues(self.ctx)
        self.nic.mmu.unmap_context(self.ctx)
        self.nic.capability.release(self.vpid)
        self.finalized = True

    def reclaim(self) -> None:
        """Uncooperative teardown for a dead owner (repro.ft): same
        resource release as :meth:`finalize` but with **no drain** — the
        process is gone, nobody can wait.  The VPID retires forever
        (§4.1: stale use raises ``CapabilityError``), and the context is
        recorded so leak probes treat its orphaned pending ops as
        accounted-for rather than leaked."""
        if self.finalized:
            return
        self.nic.qdma.destroy_context_queues(self.ctx)
        self.nic.mmu.unmap_context(self.ctx)
        self.nic.capability.release(self.vpid)
        self.nic.reclaimed_ctxs.add(self.ctx)
        self.finalized = True

    def _check_live(self) -> None:
        if self.finalized:
            raise NicError(f"use of finalized context {self.ctx:#x}")
