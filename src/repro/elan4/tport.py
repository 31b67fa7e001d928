"""Tport: NIC-based tag matching (the substrate of MPICH-QsNetII).

The paper's comparator, MPICH-QsNetII, "is built on top of Quadrics T-port
interface, which does tag matching in the NIC" (§6.5).  The PTL design
deliberately does *not* use Tport — Open MPI needs shared host-side request
queues so multiple networks can crosstalk — and pays for that with slightly
higher small-message latency and weaker mid-range pipelining, which is
exactly the Fig. 10 story.  To reproduce that comparison we implement Tport
itself:

* posted-receive and unexpected tables live **in the NIC**; matching costs
  ``nic_match_us`` with zero host involvement;
* eager messages (≤ :data:`TPORT_EAGER_BYTES`) are deposited directly into
  the matched user buffer — no bounce through a host queue slot;
* longer messages use a NIC-side rendezvous: an RTS carrying the source's
  E4 address; the matching NIC pulls the data with pipelined gets and fires
  both completion events, with per-fragment costs paid only on the NIC.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING
from collections import deque

import numpy as np

from repro.elan4.addr import E4Addr
from repro.elan4.event import ChainOp, ElanEvent
from repro.elan4.network import Packet
from repro.elan4.rdma import RdmaDescriptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.elan4.nic import Elan4Context, Elan4Nic
    from repro.hw.memory import Buffer

__all__ = ["TportEngine", "TportEndpoint", "TportMessage", "ANY_TAG", "ANY_SOURCE"]

ANY_TAG = -1
ANY_SOURCE = -1

#: eager/rendezvous switch of the Tport transport
TPORT_EAGER_BYTES = 4096


@dataclass
class TportMessage:
    """Completion record handed to the receiver."""

    src_vpid: int
    tag: int
    nbytes: int


@dataclass
class _PostedRecv:
    src_vpid: int
    tag: int
    buffer: "Buffer"
    done: ElanEvent

    def matches(self, src_vpid: int, tag: int) -> bool:
        return (self.src_vpid in (ANY_SOURCE, src_vpid)) and (
            self.tag in (ANY_TAG, tag)
        )


@dataclass
class _Unexpected:
    src_vpid: int
    tag: int
    nbytes: int
    data: Optional[np.ndarray]  # eager payload held in NIC memory
    rts_meta: Optional[Dict[str, Any]]  # rendezvous source descriptor


class TportEndpoint:
    """Per-process Tport handle (host-side API)."""

    def __init__(self, context: "Elan4Context"):
        self.context = context
        self.nic = context.nic
        self.engine: TportEngine = self.nic.tport
        self.engine.register(context.ctx)

    @property
    def vpid(self) -> int:
        return self.context.vpid

    def send(self, thread, dst_vpid: int, tag: int, buf: "Buffer", nbytes: int) -> Generator:
        """Coroutine: issue a tagged send.  Returns an event firing when the
        source buffer is reusable (eager: payload fetched; rendezvous: data
        pulled and FIN received)."""
        return (yield from self.engine.host_send(
            thread, self.context, dst_vpid, tag, buf, nbytes
        ))

    def post_recv(self, thread, src_vpid: int, tag: int, buf: "Buffer") -> Generator:
        """Coroutine: post a tagged receive into NIC matching.  Returns an
        event whose value is a :class:`TportMessage` when data has landed."""
        return (yield from self.engine.host_post_recv(
            thread, self.context, src_vpid, tag, buf
        ))


class TportEngine:
    """The NIC-resident matching machinery."""

    def __init__(self, nic: "Elan4Nic"):
        self.nic = nic
        self.sim = nic.sim
        self.config = nic.config
        self._posted: Dict[int, List[_PostedRecv]] = {}
        self._unexpected: Dict[int, Deque[_Unexpected]] = {}
        #: send_id -> (completion event, owning context, RTS source
        #: mapping); the mapping is dropped when the FIN retires the send
        self._send_done: Dict[int, Tuple[ElanEvent, "Elan4Context", E4Addr]] = {}
        self._send_ids = itertools.count()
        self.matches = 0
        self.unexpected_hits = 0

    def register(self, ctx: int) -> None:
        self._posted.setdefault(ctx, [])
        self._unexpected.setdefault(ctx, deque())

    # -- host-side operations --------------------------------------------
    def host_send(
        self, thread, context, dst_vpid: int, tag: int, buf: "Buffer", nbytes: int
    ) -> Generator:
        done = ElanEvent(self.nic, count=1, name=f"tport-send@{context.vpid}")
        yield from self.nic.pci.pio_write()
        if nbytes <= TPORT_EAGER_BYTES:
            command = (context, dst_vpid, tag, nbytes, buf, None, done)
        else:
            send_id = next(self._send_ids)
            src_e4 = context.map_buffer(buf.sub(0, nbytes))
            # the pending-send table owns the mapping from here: it is
            # unmapped when the receiver's FIN retires the send_id
            self._send_done[send_id] = (done, context, src_e4)
            rts = {"src_e4": src_e4, "send_id": send_id}
            command = (context, dst_vpid, tag, nbytes, None, rts, None)
        self.sim.schedule(self.config.nic_cmd_process_us, self._nic_send, *command)
        return done

    def host_post_recv(
        self, thread, context, src_vpid: int, tag: int, buf: "Buffer"
    ) -> Generator:
        done = ElanEvent(self.nic, count=1, name=f"tport-recv@{context.vpid}")
        done.attach_host_word()
        yield from self.nic.pci.pio_write()
        entry = _PostedRecv(src_vpid=src_vpid, tag=tag, buffer=buf, done=done)
        self.sim.schedule(
            self.config.nic_cmd_process_us, self._nic_post_recv, context, entry
        )
        return done

    # -- NIC send side ---------------------------------------------------
    # Plain callbacks (DESIGN.md §6 "Callback-form engines").  An eager send
    # carries its payload (``buf``); a rendezvous RTS carries the source
    # descriptor (``rts``) and completes on the receiver's FIN instead.
    def _nic_send(self, *command) -> None:
        """Command processing done: the send starts one kernel hop later."""
        self.sim.schedule_pooled(0.0, self._send_begin, command)

    def _send_begin(self, context, dst_vpid: int, tag: int, nbytes: int, buf,
                    rts: Optional[Dict[str, Any]], done: Optional[ElanEvent]) -> None:
        self.nic.track_pending(context.ctx)
        if buf is not None and nbytes > 0:
            self.nic.stream_dma(nbytes, self._send_packet,
                                context, dst_vpid, tag, nbytes, buf, rts, done)
        else:
            self._send_packet(context, dst_vpid, tag, nbytes, buf, rts, done)

    def _send_packet(self, context, dst_vpid: int, tag: int, nbytes: int, buf,
                     rts: Optional[Dict[str, Any]], done: Optional[ElanEvent]) -> None:
        try:
            dst = self.nic.resolve_vpid(dst_vpid)
            meta = {"src_vpid": context.vpid, "dst_ctx": dst.ctx, "tag": tag,
                    "payload": nbytes}
            header = self.config.mpich_header_bytes
            if rts is None:
                data = buf.read(0, nbytes) if nbytes > 0 else np.empty(0, np.uint8)
                pkt = Packet(self.nic.node_id, dst.node_id, nbytes + header,
                             "tport_eager", meta, data)
            else:
                pkt = Packet(self.nic.node_id, dst.node_id, header, "tport_rts",
                             {**meta, **rts})
            self.nic.fabric.inject(pkt, self.nic.send_on_wire, context.ctx, done)
        except BaseException:
            self.nic.untrack_pending(context.ctx)
            raise

    # -- NIC receive side --------------------------------------------------
    def handle_packet(self, pkt: Packet) -> None:
        ctx = pkt.meta["dst_ctx"]
        if ctx not in self._posted:
            self.nic.drop_packet(pkt, reason=f"tport: unregistered ctx {ctx:#x}")
            return
        # NIC tag matching takes nic_match_us before any action
        self.sim.schedule(self.config.nic_match_us, self._match_incoming, ctx, pkt)

    def _match_incoming(self, ctx: int, pkt: Packet) -> None:
        src_vpid = pkt.meta["src_vpid"]
        tag = pkt.meta["tag"]
        posted = self._posted[ctx]
        entry = None
        for i, cand in enumerate(posted):
            if cand.matches(src_vpid, tag):
                entry = posted.pop(i)
                break
        msg = TportMessage(src_vpid=src_vpid, tag=tag, nbytes=pkt.meta["payload"])
        if pkt.kind == "tport_eager":
            if entry is None:
                self._unexpected[ctx].append(
                    _Unexpected(src_vpid, tag, msg.nbytes, pkt.data, None)
                )
                return
            self.matches += 1
            self._land_eager(entry, pkt.data, msg)
        else:  # tport_rts
            if entry is None:
                self._unexpected[ctx].append(
                    _Unexpected(src_vpid, tag, msg.nbytes, None, dict(pkt.meta))
                )
                return
            self.matches += 1
            self._start_get(ctx, entry, dict(pkt.meta), msg)

    def _nic_post_recv(self, context, entry: _PostedRecv) -> None:
        # first scan the unexpected queue (NIC match cost)
        def scan() -> None:
            unexpected = self._unexpected[context.ctx]
            for i, u in enumerate(unexpected):
                if entry.matches(u.src_vpid, u.tag):
                    del unexpected[i]
                    self.unexpected_hits += 1
                    msg = TportMessage(u.src_vpid, u.tag, u.nbytes)
                    if u.data is not None:
                        self._land_eager(entry, u.data, msg)
                    else:
                        self._start_get(context.ctx, entry, u.rts_meta, msg)
                    return
            self._posted[context.ctx].append(entry)

        self.sim.schedule(self.config.nic_match_us, scan)

    def _land_eager(self, entry: _PostedRecv, data, msg: TportMessage) -> None:
        self.sim.schedule_pooled(0.0, self._land_begin, (entry, data, msg))

    def _land_begin(self, entry: _PostedRecv, data, msg: TportMessage) -> None:
        if msg.nbytes > 0:
            self.nic.stream_dma(msg.nbytes, self._landed, entry, data, msg)
        else:
            self._landed(entry, data, msg)

    def _landed(self, entry: _PostedRecv, data, msg: TportMessage) -> None:
        n = msg.nbytes
        if n > 0:
            entry.buffer.write(np.asarray(data, np.uint8)[:n])
        self.sim.schedule_pooled(self.config.nic_deliver_us, entry.done.fire, (msg,))

    def _start_get(self, ctx: int, entry: _PostedRecv, rts_meta: Dict[str, Any], msg: TportMessage) -> None:
        """Rendezvous: pull the data from the sender with a pipelined get."""
        local_e4 = self.nic.mmu.map(ctx, entry.buffer.space, entry.buffer.addr, msg.nbytes)
        desc = RdmaDescriptor(
            op="read",
            local=local_e4,
            remote=rts_meta["src_e4"],
            nbytes=msg.nbytes,
            remote_vpid=msg.src_vpid,
            done=ElanEvent(self.nic, count=1, name="tport-get"),
        )

        def on_done() -> None:
            # the get has landed: this per-transfer registration is dead
            self.nic.mmu.unmap(ctx, local_e4)
            entry.done.fire(msg)
            # notify the sender its buffer is free (fires its done event)
            dst = self.nic.resolve_vpid(msg.src_vpid)
            fin = Packet(
                src_node=self.nic.node_id,
                dst_node=dst.node_id,
                nbytes=16,
                kind="tport_fin",
                meta={"send_id": rts_meta["send_id"], "dst_ctx": dst.ctx},
            )
            self.nic.fabric.transmit_from_nic(fin)

        desc.done.chain(ChainOp("tport-get-done", on_done))
        self.nic.rdma.nic_issue(desc)

    def handle_fin(self, pkt: Packet) -> None:
        pending = self._send_done.pop(pkt.meta["send_id"], None)
        if pending is None:
            self.nic.drop_packet(pkt, reason="tport FIN for unknown send")
            return
        done, context, src_e4 = pending
        # the receiver has pulled the data: the RTS source registration is
        # dead, drop it before completing the send
        context.unmap(src_e4)
        done.fire()
