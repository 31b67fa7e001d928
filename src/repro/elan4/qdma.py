"""Queue-based DMA (QDMA).

"QDMA allows processes to post messages (up to 2KB) to a remote queue of
other processes" (§3.1).  A :class:`QdmaQueue` is a ring of host-memory
QSLOTS owned by a receiving process; remote (or local) processes post
messages into it; arrivals set the queue's host event, which the owner polls
or blocks on — "QDMA allows a process to check incoming QDMA messages posted
by any process into its receive queue" (§4.3).

Two producers exist:

* **host-issued sends** (:meth:`QdmaEngine.host_send`) — the normal path:
  PIO command, NIC fetches the payload from host memory over PCI-X, packet
  crosses the fabric, receiving NIC DMAs it into a free QSLOT;
* **NIC-issued chained sends** (:meth:`QdmaEngine.chained_command`) — a
  small message sent *by the event engine* when an RDMA completes, with no
  host involvement and no source-side PCI crossing (the payload lives in
  Elan memory).  This is the mechanism behind both the fast FIN/FIN_ACK and
  the shared completion queue (§4.2–4.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Generator, List, Optional, TYPE_CHECKING

import numpy as np

from repro.elan4.capability import CapabilityError
from repro.elan4.event import ChainOp, ElanEvent
from repro.elan4.network import Packet
from repro.hw.cpu import HostWordEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.elan4.nic import Elan4Nic
    from repro.hw.memory import Buffer

__all__ = ["QdmaQueue", "QdmaMessage", "QdmaEngine", "QdmaError"]


class QdmaError(Exception):
    """Oversized message, unknown queue, or use of a destroyed queue."""


def _as_u8(payload) -> np.ndarray:
    """Coerce bytes/bytearray/ndarray payloads to a flat uint8 array."""
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return np.frombuffer(payload, dtype=np.uint8)
    return np.asarray(payload, dtype=np.uint8).ravel()


@dataclass
class QdmaMessage:
    """One received QDMA message, as the host dequeues it."""

    src_vpid: int
    nbytes: int
    data: np.ndarray
    meta: Dict[str, Any] = field(default_factory=dict)
    arrived_at: float = 0.0


class QdmaQueue:
    """A receive queue of QSLOTS in one process's host memory.

    The slots are one slab of ``nslots * qslot_bytes`` mapped when the
    queue is created and owned by the queue until its process exits;
    ``slot(i)`` is a bounds-checked sub-buffer of it, so an oversized
    delivery traps instead of spilling into the next slot.  A slot's
    sub-buffer is built on its first delivery: most queues never fill.
    """

    def __init__(
        self,
        nic: "Elan4Nic",
        ctx: int,
        queue_id: int,
        nslots: int,
        ring: "Buffer",
    ):
        self.nic = nic
        self.ctx = ctx
        self.queue_id = queue_id
        self.nslots = nslots
        self.ring = ring
        self.slot_bytes = nic.config.qslot_bytes
        self._slots: Dict[int, "Buffer"] = {}
        self.free_slots = nslots
        #: deliveries that have taken a slot but not yet enqueued their
        #: message (payload DMA in progress) — the leak sanitizer's slot
        #: invariant is ``nslots - free_slots == len(_ready) + inflight``
        self.inflight_deliveries = 0
        self._ready: Deque[QdmaMessage] = deque()
        self._overflow: Deque[Packet] = deque()
        #: set on every arrival; polled or blocked on by the owner
        self.host_event = HostWordEvent(nic.sim, name=f"q{ctx:#x}.{queue_id}")
        self.interrupt_armed = False
        self.destroyed = False
        self.arrivals = 0

    def slot(self, i: int) -> "Buffer":
        """QSLOT ``i``'s sub-buffer of the ring."""
        buf = self._slots.get(i)
        if buf is None:
            buf = self._slots[i] = self.ring.sub(i * self.slot_bytes, self.slot_bytes)
        return buf

    @property
    def slot_buffers(self) -> List["Buffer"]:
        return [self.slot(i) for i in range(self.nslots)]

    # -- host side ---------------------------------------------------------
    def poll(self) -> Optional[QdmaMessage]:
        """Dequeue the next message, or None.  Frees its QSLOT (admitting a
        buffered overflow packet, if any)."""
        if not self._ready:
            if not self._overflow:
                self.host_event.clear()
            return None
        msg = self._ready.popleft()
        self._free_slot()
        if not self._ready:
            self.host_event.clear()
        return msg

    def arm_interrupt(self, armed: bool = True) -> None:
        """Deliver arrivals via interrupt (blocking progress modes)."""
        self.interrupt_armed = armed

    def pending(self) -> int:
        return len(self._ready)

    def destroy(self) -> None:
        """Tear the queue down: undelivered messages are discarded and
        every QSLOT returns to the pool (messages in ``_ready`` each held
        one; deliveries still in flight see ``destroyed`` and abandon
        theirs without re-touching the accounting)."""
        self.destroyed = True
        self._ready.clear()
        self._overflow.clear()
        self.free_slots = self.nslots
        self.inflight_deliveries = 0

    # -- NIC side ------------------------------------------------------------
    def _free_slot(self) -> None:
        self.free_slots += 1
        if self._overflow:
            pkt = self._overflow.popleft()
            self.nic.qdma._start_delivery(self, pkt)

    def _enqueue(self, msg: QdmaMessage) -> None:
        self._ready.append(msg)
        self.arrivals += 1
        if self.interrupt_armed:
            self.nic.node.raise_interrupt(self.host_event, None)
        else:
            self.host_event.set()


class QdmaEngine:
    """The QDMA machinery of one NIC."""

    def __init__(self, nic: "Elan4Nic"):
        self.nic = nic
        self.sim = nic.sim
        self.config = nic.config
        #: (ctx, queue_id) -> QdmaQueue
        self.queues: Dict[tuple, QdmaQueue] = {}
        self.sends = 0
        self.chained_sends = 0

    # -- queue management ------------------------------------------------
    def create_queue(self, ctx: int, queue_id: int, nslots: int, space) -> QdmaQueue:
        key = (ctx, queue_id)
        if key in self.queues:
            raise QdmaError(f"queue {queue_id} already exists in ctx {ctx:#x}")
        ring = space.alloc(nslots * self.config.qslot_bytes, label=f"qslots{queue_id}")
        q = QdmaQueue(self.nic, ctx, queue_id, nslots, ring)
        self.queues[key] = q
        return q

    def destroy_queue(self, ctx: int, queue_id: int) -> None:
        q = self.queues.pop((ctx, queue_id), None)
        if q is None:
            raise QdmaError(f"destroy of unknown queue ({ctx:#x}, {queue_id})")
        q.destroy()

    def destroy_context_queues(self, ctx: int) -> int:
        keys = [k for k in self.queues if k[0] == ctx]
        for k in keys:
            self.queues.pop(k).destroy()
        return len(keys)

    # -- host-issued send ----------------------------------------------------
    def host_send(
        self,
        thread,
        src_vpid: int,
        dst_vpid: int,
        queue_id: int,
        payload: np.ndarray,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Generator:
        """Coroutine (host thread context): post ``payload`` to the remote
        queue.  Returns an :class:`ElanEvent` that fires when the source NIC
        has finished fetching the payload — i.e. when the host send buffer
        is reusable."""
        payload = _as_u8(payload)
        nbytes = payload.nbytes
        if nbytes > self.config.qslot_bytes:
            raise QdmaError(
                f"QDMA message of {nbytes} B exceeds the {self.config.qslot_bytes} B "
                "QSLOT limit; use RDMA for longer transfers (paper §3.1)"
            )
        done = ElanEvent(self.nic, count=1, name=f"qdma-send@{src_vpid}")
        # building the command resolves the destination VPID: a released
        # (restarted) peer raises here, at the sender, never silently
        self.nic.resolve_vpid(dst_vpid)
        # host: write the command descriptor (doorbell) across PCI-X
        yield from self.nic.pci.pio_write()
        src_ctx = self.nic.ctx_of_vpid(src_vpid)
        self.nic.track_pending(src_ctx)
        self.sim.schedule(
            self.config.nic_cmd_process_us,
            self._nic_send,
            src_ctx,
            src_vpid,
            dst_vpid,
            queue_id,
            payload,
            dict(meta or {}),
            done,
            True,
        )
        return done

    def chained_command(
        self,
        src_vpid: int,
        dst_vpid: int,
        queue_id: int,
        payload: np.ndarray,
        meta: Optional[Dict[str, Any]] = None,
    ) -> ChainOp:
        """Build a chained-QDMA :class:`ChainOp`: when the event it is
        chained to triggers, the NIC posts ``payload`` (held in Elan memory,
        no host fetch) to the destination queue."""
        payload = _as_u8(payload)
        if payload.nbytes > self.config.qslot_bytes:
            raise QdmaError("chained QDMA payload exceeds QSLOT size")
        frozen_meta = dict(meta or {})
        src_ctx = self.nic.ctx_of_vpid(src_vpid)

        def run() -> None:
            # the send's own pending slot: reliability retransmits call
            # ``run`` directly, outside any chain
            self.chained_sends += 1
            self.nic.track_pending(src_ctx)
            self.sim.schedule(
                self.config.nic_cmd_process_us,
                self._nic_send,
                src_ctx,
                src_vpid,
                dst_vpid,
                queue_id,
                payload,
                frozen_meta,
                None,
                False,
            )

        return ChainOp(
            description=f"chained-qdma->{dst_vpid}/q{queue_id}", run=run, ctx=src_ctx
        )

    # -- NIC internals ---------------------------------------------------------
    # Plain callbacks (DESIGN.md §6 "Callback-form engines"); the pending
    # slot taken at command issue comes back on *every* exit — including
    # fault-injection aborts (rail down mid-transmit, partitioned fabric),
    # where a stranded slot would wedge the §4.1 finalization drain forever.
    def _nic_send(self, *command) -> None:
        """Command processing done: the send starts one kernel hop later."""
        self.sim.schedule_pooled(0.0, self._send_begin, command)

    def _send_begin(
        self,
        src_ctx: int,
        src_vpid: int,
        dst_vpid: int,
        queue_id: int,
        payload: np.ndarray,
        meta: Dict[str, Any],
        done: Optional[ElanEvent],
        fetch_host: bool,
    ) -> None:
        self.sends += 1
        obs_t0 = self.sim.now if self.nic.obs is not None else 0.0
        if fetch_host and payload.nbytes > 0:
            # cut-through fetch of the payload from host memory
            self.nic.stream_dma(
                payload.nbytes, self._send_packet,
                src_ctx, src_vpid, dst_vpid, queue_id, payload, meta, done, obs_t0,
            )
        else:
            self._send_packet(
                src_ctx, src_vpid, dst_vpid, queue_id, payload, meta, done, obs_t0
            )

    def _send_packet(
        self,
        src_ctx: int,
        src_vpid: int,
        dst_vpid: int,
        queue_id: int,
        payload: np.ndarray,
        meta: Dict[str, Any],
        done: Optional[ElanEvent],
        obs_t0: float,
    ) -> None:
        try:
            dst_ctx = self.nic.resolve_vpid(dst_vpid)
        except CapabilityError:
            # the destination vanished between command issue and NIC
            # processing: the route no longer exists, so the packet is
            # discarded here (the host-side API validates loudly; the
            # end-to-end reliability layer recovers when it matters)
            self.nic.drop_packet(
                Packet(self.nic.node_id, -1, payload.nbytes, "qdma", meta=dict(meta)),
                reason=f"destination vpid {dst_vpid} released",
            )
            self.nic.send_on_wire(True, src_ctx, done)
            return
        try:
            pkt = Packet(
                src_node=self.nic.node_id,
                dst_node=dst_ctx.node_id,
                nbytes=payload.nbytes,
                kind="qdma",
                meta={
                    "src_vpid": src_vpid,
                    "dst_ctx": dst_ctx.ctx,
                    "queue_id": queue_id,
                    **meta,
                },
                data=payload.copy(),
            )
            obs = self.nic.obs
            if obs is not None and meta.get("obs_tid") is not None:
                # source-NIC work: command processing + host payload
                # fetch over PCI, up to fabric injection
                obs.flight_span(
                    meta["obs_tid"],
                    "nic",
                    "tx",
                    obs_t0,
                    node=self.nic.node_id,
                    nbytes=payload.nbytes,
                )
            self.nic.fabric.inject(pkt, self.nic.send_on_wire, src_ctx, done)
        except BaseException:
            self.nic.untrack_pending(src_ctx)
            raise

    # -- NIC receive path ----------------------------------------------------
    def handle_packet(self, pkt: Packet) -> None:
        key = (pkt.meta["dst_ctx"], pkt.meta["queue_id"])
        q = self.queues.get(key)
        if q is None or q.destroyed:
            self.nic.drop_packet(pkt, reason=f"no queue {key}")
            return
        if q.free_slots == 0:
            q._overflow.append(pkt)
            return
        self._start_delivery(q, pkt)

    def _start_delivery(self, q: QdmaQueue, pkt: Packet) -> None:
        q.free_slots -= 1
        q.inflight_deliveries += 1
        t_rx0 = self.sim.now if self.nic.obs is not None else 0.0
        # cut-through DMA of the payload into the QSLOT host memory
        self.sim.schedule_pooled(
            0.0, self.nic.stream_dma,
            (pkt.nbytes, self._deliver_landed, q, pkt, t_rx0),
        )

    def _deliver_landed(self, q: QdmaQueue, pkt: Packet, t_rx0: float) -> None:
        if q.destroyed:
            # destroyed mid-delivery (context finalize / fault abort):
            # destroy() already reset the slot accounting, so just drop
            self.nic.drop_packet(pkt, reason="queue destroyed mid-delivery")
            return
        slot = q.slot((q.arrivals + len(q._ready)) % q.nslots)
        if pkt.data is not None and pkt.data.nbytes:
            slot.write(pkt.data[: slot.nbytes])
        self.sim.schedule_pooled(
            self.config.nic_deliver_us, self._deliver_done, (q, pkt, t_rx0)
        )

    def _deliver_done(self, q: QdmaQueue, pkt: Packet, t_rx0: float) -> None:
        if q.destroyed:
            self.nic.drop_packet(pkt, reason="queue destroyed mid-delivery")
            return
        q.inflight_deliveries -= 1
        obs = self.nic.obs
        if obs is not None and pkt.meta.get("obs_tid") is not None:
            # destination-NIC work: QSLOT DMA + delivery to the queue
            obs.flight_span(
                pkt.meta["obs_tid"],
                "nic",
                "rx",
                t_rx0,
                node=self.nic.node_id,
                nbytes=pkt.nbytes,
            )
        msg = QdmaMessage(
            src_vpid=pkt.meta["src_vpid"],
            nbytes=pkt.nbytes,
            data=pkt.data if pkt.data is not None else np.empty(0, np.uint8),
            meta={
                k: v
                for k, v in pkt.meta.items()
                if k not in ("src_vpid", "dst_ctx", "queue_id")
            },
            arrived_at=self.sim.now,
        )
        q._enqueue(msg)
