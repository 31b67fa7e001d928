"""The PTL/Elan4 component and module (§5).

Resources per module (one per Elan4 NIC):

* a claimed hardware context / fresh VPID from the system-wide capability
  (dynamic join, §5);
* a host-side receive queue of 2 KB QSLOTS for incoming fragments, mapped
  as one slab that the queue owns;
* ``ptl_send_buffers`` preallocated 2 KB send buffers ("To speed up fast
  transmission of small packets, send buffers (each of 2KB) are
  preallocated", §5), carved from one slab that the module owns —
  exhaustion back-pressures senders;
* optionally a second queue when the shared completion queue runs in
  two-queue mode.

None of these is ever freed while the module lives; message buffers are
the MPI layer's (DESIGN.md, "Buffer ownership").

The module's option set is exactly the paper's ablation space — see
:class:`Elan4PtlOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, TYPE_CHECKING

import numpy as np

from repro.core.header import (
    FLAG_INLINE,
    FragmentHeader,
    HDR_ACK,
    HDR_FIN,
    HDR_FIN_ACK,
    HDR_MATCH,
    HDR_RNDV,
    HEADER_BYTES,
)
from repro.core.pml.matching import IncomingFragment
from repro.core.ptl.base import PtlComponent, PtlError, PtlModule
from repro.core.ptl.elan4 import rdma_sched
from repro.core.ptl.elan4.completion import CompletionWatcher
from repro.elan4.event import ChainOp
from repro.sim.events import AnyOf
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.request import RecvRequest, SendRequest
    from repro.elan4.qdma import QdmaMessage

__all__ = ["Elan4PtlComponent", "Elan4PtlModule", "Elan4PtlOptions",
           "PTL_RECV_QID", "PTL_COMPL_QID"]

PTL_RECV_QID = 0
PTL_COMPL_QID = 1


@dataclass
class Elan4PtlOptions:
    """The design choices the paper evaluates.

    * ``rdma_scheme`` — ``"read"`` (Fig. 4) or ``"write"`` (Fig. 3);
    * ``inline_rndv_data`` — carry first-fragment data inside the RNDV
      packet (the paper's optimisation is to turn this *off*: "the
      performance is improved for all message sizes", §6.1);
    * ``chained_fin`` — chain FIN/FIN_ACK to the last RDMA (§4.2) instead
      of issuing it from the host (Read-NoChain, Fig. 8);
    * ``completion_queue`` — ``"none"`` | ``"one-queue"`` | ``"two-queue"``
      (§4.3, Fig. 6, Fig. 8);
    * ``reliability`` — LA-MPI-style end-to-end tracked delivery of every
      queue-borne fragment (§3); requires ``chained_fin=False`` because a
      NIC-fired FIN cannot be host-tracked or retransmitted.
    """

    rdma_scheme: str = "read"
    inline_rndv_data: bool = False
    chained_fin: bool = True
    completion_queue: str = "none"
    reliability: bool = False

    def validate(self) -> None:
        if self.rdma_scheme not in ("read", "write"):
            raise ValueError(f"rdma_scheme must be read|write, got {self.rdma_scheme!r}")
        if self.completion_queue not in ("none", "one-queue", "two-queue"):
            raise ValueError(f"bad completion_queue {self.completion_queue!r}")
        if self.reliability and self.chained_fin:
            raise ValueError(
                "end-to-end reliability requires chained_fin=False: the "
                "host cannot track or retransmit a FIN fired by the NIC "
                "event engine (the §4.2 optimisation is surrendered for "
                "recoverability)"
            )


class Elan4PtlComponent(PtlComponent):
    """The dynamically loadable Elan4 transport.

    ``rail`` selects which QsNetII rail this component drives (multirail
    clusters carry one component instance per rail — "a PTL module
    represents an instance of a communication endpoint, typically one per
    network interface card", §2.2).
    """

    name = "elan4"

    def __init__(
        self,
        process,
        config,
        options: Optional[Elan4PtlOptions] = None,
        rail: int = 0,
    ):
        super().__init__(process, config)
        self.options = options or Elan4PtlOptions()
        self.options.validate()
        self.rail = rail
        if rail:
            self.name = f"elan4:{rail}"

    def _open_impl(self, thread) -> Generator:
        # dependency/sanity check: is there an Elan4 NIC on this rail?
        key = f"elan4:{self.rail}" if self.rail else "elan4"
        if key not in self.process.node.devices:
            raise PtlError(
                f"node {self.process.node.node_id} has no Elan4 NIC on rail {self.rail}"
            )
        yield self.sim.timeout(0)

    def _init_impl(self, thread) -> Generator:
        cluster = self.process.job.cluster
        ctx = cluster.claim_context(
            self.process.node.node_id, self.process.space, rail=self.rail
        )
        yield self.sim.timeout(0)
        return [Elan4PtlModule(self, ctx)]

    def _close_impl(self, thread) -> Generator:
        yield self.sim.timeout(0)


class Elan4PtlModule(PtlModule):
    """One endpoint on one Elan4 NIC."""

    name = "elan4"
    peers: Dict[int, int]  # rank -> vpid

    def __init__(self, component: Elan4PtlComponent, ctx):
        super().__init__(component)
        self.options = component.options
        self.ctx = ctx
        self.nic = ctx.nic
        self.rail = component.rail
        if self.rail:
            self.name = f"elan4:{self.rail}"
        self._info_key = f"elan4_vpid_r{self.rail}" if self.rail else "elan4_vpid"
        self.first_frag_capacity = self.config.rndv_threshold
        self.schedule_priority = 0
        self.bandwidth_weight = 10.0
        self.recv_queue = ctx.create_queue(PTL_RECV_QID)
        self.compl_queue = (
            ctx.create_queue(PTL_COMPL_QID)
            if self.options.completion_queue == "two-queue"
            else None
        )
        self.completions = CompletionWatcher(self)
        from repro.core.ptl.elan4.reliability import ReliableChannel

        self.reliable = ReliableChannel(self) if self.options.reliability else None
        # preallocated 2 KB send buffers: one slab, handed out as slot-sized
        # sub-buffers through a free list with back-pressure
        slot = self.config.qslot_bytes
        nbufs = self.config.ptl_send_buffers
        pool = self.process.space.alloc(nbufs * slot, label="sendbufs")
        self._send_bufs = Store(self.sim, name="sendbufs")
        for i in range(nbufs):
            self._send_bufs.put_nowait(pool.sub(i * slot, slot))
        #: vpids of peers marked dead — the rank->vpid mapping survives
        #: removal so the failover takeover can still harvest their state
        self._dead_vpids: Dict[int, int] = {}
        self.peer_recv_qid = PTL_RECV_QID
        self.eager_sends = 0
        self.rndv_sends = 0
        self.control_sends = 0
        self.stale_controls = 0  # duplicate/late ACK-FIN-FIN_ACK arrivals
        self.rdma_retries = 0  # watchdog re-issues of rendezvous reads
        # §6.3 layer-cost instrumentation: time from handing a first
        # fragment up to the PML until the next send enters this PTL —
        # "the communication time above the PTL layer".  Data-copy time
        # inside that window is subtracted (it belongs to the transport).
        self.pml_cost_samples: List[float] = []
        self._delivered_at: Optional[float] = None
        self._copy_in_window: float = 0.0
        # cluster-wide observer (None unless REPRO_OBS/capture is active)
        self.obs = component.process.job.cluster.observer
        self._obs_node = component.process.node.node_id

    # -- identity / wiring ---------------------------------------------------
    @property
    def completion_qid(self) -> int:
        return PTL_COMPL_QID if self.options.completion_queue == "two-queue" else PTL_RECV_QID

    def local_info(self) -> Dict[str, int]:
        return {self._info_key: self.ctx.vpid}

    def add_peer(self, thread, rank: int, info: Dict) -> Generator:
        if self._info_key not in info:
            raise PtlError(f"peer {rank} exposes no elan4 endpoint (rail {self.rail})")
        self.peers[rank] = info[self._info_key]
        # a re-added peer is a fresh incarnation: forget the dead VPID
        self._dead_vpids.pop(rank, None)
        # recording a VPID costs no kernel hop; a generator by the PtlModule
        # contract, since other transports dial their peers here
        yield from ()

    def vpid_of(self, rank: int) -> int:
        vpid = self.peers.get(rank)
        if vpid is None:
            raise PtlError(f"elan4: no connection to rank {rank}")
        return vpid

    # -- send path -----------------------------------------------------------
    def note_copy_time(self, dt: float) -> None:
        """PML reports an unpack copy inside the current §6.3 window."""
        self._copy_in_window += dt

    def send_first(self, thread, req: "SendRequest") -> Generator:
        if self._delivered_at is not None:
            pml_cost = self.sim.now - self._delivered_at - self._copy_in_window
            self.pml_cost_samples.append(pml_cost)
            self._delivered_at = None
            self._copy_in_window = 0.0
            if self.obs is not None:
                # the §6.3 "communication time above the PTL" sample — the
                # same value the Fig. 9 bench reads from pml_cost_samples
                self.obs.sample("pml", "layer_cost_us", pml_cost)
        obs_t0 = self.sim.now if self.obs is not None else 0.0
        if req.nbytes <= self.first_frag_capacity and not req.sync:
            if self.obs is not None:
                self.obs.flight_kind(req.obs_tid, "eager")
                self.obs.count("ptl", "eager_sends")
            yield from self._send_eager(thread, req)
        else:
            # long message — or a synchronous-mode send, whose completion
            # must prove the match happened (the rendezvous ack does)
            if self.obs is not None:
                self.obs.flight_kind(req.obs_tid, "rndv")
                self.obs.count("ptl", "rndv_sends")
            yield from self._send_rndv(thread, req)
        if self.obs is not None:
            # first-fragment injection: pack + queue DMA post, until the
            # send buffer is handed to the NIC
            self.obs.flight_span(
                req.obs_tid, "ptl", "inject", obs_t0, node=self._obs_node
            )

    def _send_eager(self, thread, req: "SendRequest") -> Generator:
        """MATCH fragment: the whole message rides one QDMA."""
        self.eager_sends += 1
        vpid = self.vpid_of(req.dst_rank)
        buf = yield self._send_bufs.get()
        try:
            hdr = FragmentHeader(
                type=HDR_MATCH,
                src_rank=self.process.rank,
                ctx_id=req.ctx_id,
                tag=req.tag,
                seq=req.seq,
                msg_len=req.nbytes,
                frag_len=req.nbytes,
                frag_offset=0,
                src_req=req.req_id,
                dst_req=0,
                flags=FLAG_INLINE if req.nbytes else 0,
            )
            buf.write(np.frombuffer(hdr.encode(), dtype=np.uint8))
            if req.nbytes:
                yield from self.pml.datatype.pack(
                    thread, buf, req.buffer, req.nbytes, dst_off=HEADER_BYTES
                )
        except BaseException:
            # aborted before the buffer was handed on (bad datatype, peer
            # released mid-pack): the preallocated buffer must recycle, or
            # the fixed pool drains one slot per failed send
            self._send_bufs.put_nowait(buf)
            raise
        yield from self._send_fragment(
            thread, vpid, buf, HEADER_BYTES + req.nbytes, obs_tid=req.obs_tid
        )
        # the user buffer was packed into PTL memory: buffered-send complete
        self.pml.send_progress(req, req.nbytes)

    def _send_rndv(self, thread, req: "SendRequest") -> Generator:
        """RNDV fragment for a long message (§6.1: with or without inline
        data); exposes the source buffer for the read scheme."""
        self.rndv_sends += 1
        vpid = self.vpid_of(req.dst_rank)
        src_e4 = None
        if req.nbytes > 0:
            req.transfer = rdma_sched._Transfer(self, req.buffer.sub(0, req.nbytes))
            src_e4 = req.transfer.e4
        inline = self.first_frag_capacity if self.options.inline_rndv_data else 0
        inline = min(inline, req.nbytes)
        hdr = FragmentHeader(
            type=HDR_RNDV,
            src_rank=self.process.rank,
            ctx_id=req.ctx_id,
            tag=req.tag,
            seq=req.seq,
            msg_len=req.nbytes,
            frag_len=inline,
            frag_offset=0,
            src_req=req.req_id,
            dst_req=0,
            flags=FLAG_INLINE if inline else 0,
            e4=src_e4,
        )
        buf = yield self._send_bufs.get()
        try:
            buf.write(np.frombuffer(hdr.encode(), dtype=np.uint8))
            if inline:
                yield from self.pml.datatype.pack(
                    thread, buf, req.buffer, inline, dst_off=HEADER_BYTES
                )
        except BaseException:
            self._send_bufs.put_nowait(buf)
            raise
        yield from self._send_fragment(
            thread, vpid, buf, HEADER_BYTES + inline, obs_tid=req.obs_tid
        )
        # inline bytes are credited on ACK (write) or FIN_ACK (read);
        # nothing completes yet.

    def _send_fragment(
        self, thread, vpid: int, buf, nbytes: int, obs_tid: Optional[int] = None
    ) -> Generator:
        """Post one queue fragment from a preallocated send buffer, via the
        reliability channel when enabled (which keeps its own copy for
        retransmission, so the buffer recycles immediately).

        ``obs_tid`` rides the message's metadata side-channel (never wire
        bytes) so the receive side lands on the same flight record."""
        try:
            payload = buf.read(0, nbytes)
        except BaseException:
            self._send_bufs.put_nowait(buf)
            raise
        meta = None if obs_tid is None else {"obs_tid": obs_tid}
        if self.reliable is not None:
            self._send_bufs.put_nowait(buf)
            yield from self.reliable.send(thread, vpid, payload, meta=meta)
            return
        try:
            done = yield from self.ctx.qdma_send(
                thread, vpid, PTL_RECV_QID, payload, meta=meta
            )
        except BaseException:
            # the command was refused at issue (e.g. the destination VPID
            # was released between match and post): no NIC fetch will ever
            # fire the release chain, so recycle the buffer here
            self._send_bufs.put_nowait(buf)
            raise
        done.chain(ChainOp("release-sendbuf", lambda b=buf: self._send_bufs.put_nowait(b)))
        self.completions.watch_silent(done)

    def send_control(
        self, thread, peer_vpid: int, hdr: FragmentHeader, obs_tid: Optional[int] = None
    ) -> Generator:
        """Host-issued control fragment (ACK / host-mode FIN / FIN_ACK)."""
        self.control_sends += 1
        if self.obs is not None:
            self.obs.count("ptl", "control_sends")
        payload = np.frombuffer(hdr.encode(), dtype=np.uint8)
        meta = None if obs_tid is None else {"obs_tid": obs_tid}
        if self.reliable is not None:
            yield from self.reliable.send(thread, peer_vpid, payload, meta=meta)
            return
        yield from self.ctx.qdma_send(
            thread, peer_vpid, PTL_RECV_QID, payload, meta=meta
        )

    # -- PML downcall for matched rendezvous ------------------------------------
    def matched(self, thread, recv_req: "RecvRequest", frag: IncomingFragment) -> Generator:
        yield from rdma_sched.receiver_matched(self, thread, recv_req, frag)

    def matched_duplicate(self, thread, frag: IncomingFragment, req) -> Generator:
        """A replayed first fragment whose original was already matched.

        Eager (MATCH) duplicates carry nothing the receiver still needs —
        the original copy delivered the data and the sender completed at
        injection time.  A duplicate RNDV is live protocol state: either
        the rendezvous is still open (re-run it — the replay's header
        carries fresh, survivor-rail source addresses) or the receive
        finished and only the sender's completion proof was lost with the
        dead rail, in which case we answer the FIN_ACK again.
        """
        hdr = frag.header
        if hdr.type != HDR_RNDV:
            yield self.sim.timeout(0)
            return
        if req is not None and not req.completed:
            yield from self.matched(thread, req, frag)
            return
        self.stale_controls += 1
        fin_ack = FragmentHeader(
            type=HDR_FIN_ACK,
            src_rank=self.process.rank,
            ctx_id=hdr.ctx_id,
            tag=hdr.tag,
            seq=0,
            msg_len=hdr.msg_len,
            frag_len=0,
            frag_offset=0,
            src_req=hdr.src_req,
            dst_req=hdr.src_req,
            e4=None,
        )
        yield from self.send_control(thread, self.vpid_of(hdr.src_rank), fin_ack)

    # -- fault handling ---------------------------------------------------------
    def report_peer_failure(self, dst_vpid: int, error: BaseException) -> None:
        """The reliability channel exhausted its retransmission budget
        against ``dst_vpid``: tell the PML so it can fail over or declare
        the peer dead."""
        for rank, vpid in list(self.peers.items()):
            if vpid == dst_vpid:
                self.pml.peer_failed(self, rank, error)
                return

    def mark_peer_dead(self, rank: int) -> None:
        vpid = self.peers.get(rank)
        if vpid is not None:
            self._dead_vpids[rank] = vpid
        self.remove_peer(rank)

    def takeover_payloads(self, rank: int):
        """Harvest this module's unacknowledged fragments toward ``rank``
        for replay on a survivor PTL.  Returns ``(payloads, skipped)``."""
        if self.reliable is None:
            return [], 0
        vpid = self.peers.get(rank)
        if vpid is None:
            vpid = self._dead_vpids.get(rank)
        if vpid is None:
            return [], 0
        return self.reliable.takeover(vpid)

    def reclaim(self) -> None:
        """Close the reliability channel and reclaim the hardware context
        without a drain (the owner was killed)."""
        if self.reliable is not None:
            self.reliable.close()
        self.ctx.reclaim()

    def recovery_stats(self) -> Dict[str, int]:
        stats = {"rdma_retries": self.rdma_retries,
                 "stale_controls": self.stale_controls}
        ch = self.reliable
        if ch is not None:
            stats.update(
                retransmissions=ch.retransmissions,
                duplicates_dropped=ch.duplicates_dropped,
                window_drops=ch.window_drops,
                abandoned_fragments=ch.abandoned_fragments,
            )
        return stats

    def resend_payload(self, thread, rank: int, payload: np.ndarray) -> Generator:
        """Replay a fragment harvested from a failed module.  Only frames
        without rail-local E4 state are replayable (the PML filters)."""
        vpid = self.vpid_of(rank)
        if self.reliable is not None:
            yield from self.reliable.send(thread, vpid, payload)
            return
        yield from self.ctx.qdma_send(thread, vpid, PTL_RECV_QID, payload)

    # -- receive path ----------------------------------------------------------
    def _handle_message(self, thread, msg: "QdmaMessage") -> Generator:
        if self.reliable is not None and (
            "rel_seq" in msg.meta or "rel_ack" in msg.meta
        ):
            deliverable = yield from self.reliable.on_receive(thread, msg)
            for m in deliverable:
                yield from self._handle_payload(thread, m)
            return
        yield from self._handle_payload(thread, msg)

    def _handle_payload(self, thread, msg: "QdmaMessage") -> Generator:
        token = msg.meta.get("compl")
        if token is not None:
            yield from self.completions.handle_token(thread, token)
            return
        hdr = FragmentHeader.decode(msg.data[:HEADER_BYTES].tobytes())
        payload = msg.data[HEADER_BYTES : HEADER_BYTES + hdr.frag_len]
        obs_tid = msg.meta.get("obs_tid")
        if self.obs is not None and obs_tid is not None:
            # time the fragment sat in the host receive queue before the
            # progress engine drained it
            self.obs.flight_span(
                obs_tid, "ptl", "queue_wait", msg.arrived_at, node=self._obs_node
            )
        if hdr.type in (HDR_MATCH, HDR_RNDV):
            self._delivered_at = self.sim.now  # §6.3: entering the PML
            frag = IncomingFragment(
                header=hdr,
                data=payload,
                ptl=self,
                arrived_at=msg.arrived_at,
                obs_tid=obs_tid,
            )
            yield from self.pml.incoming_fragment(thread, frag)
        elif hdr.type == HDR_ACK:
            yield from rdma_sched.sender_handle_ack(self, thread, hdr)
        elif hdr.type == HDR_FIN:
            yield from rdma_sched.receiver_handle_fin(self, thread, hdr)
        elif hdr.type == HDR_FIN_ACK:
            yield from rdma_sched.sender_handle_fin_ack(self, thread, hdr)
        else:
            raise PtlError(f"elan4: unexpected fragment {hdr!r}")

    def _drain_queue(self, thread, queue) -> Generator:
        handled = 0
        while True:
            msg = queue.poll()
            if msg is None:
                return handled
            handled += 1
            yield from self._handle_message(thread, msg)

    # -- progress ---------------------------------------------------------------
    def progress(self, thread) -> Generator:
        """Poll the queue event word(s) and local completions once.

        "using [a] polling-based approach, the cost of checking two
        eight-byte host-events is about the same as that of checking one"
        (§6.2) — one ``poll_check_us`` covers the words.
        """
        yield from thread.compute(self.config.poll_check_us)
        handled = yield from self._drain_queue(thread, self.recv_queue)
        if self.compl_queue is not None:
            handled += yield from self._drain_queue(thread, self.compl_queue)
        handled += yield from self.completions.poll(thread)
        return handled

    def progress_from(self, thread, word) -> Generator:
        """Threaded driver entry: drain whichever queue ``word`` belongs to."""
        if self.compl_queue is not None and word is self.compl_queue.host_event:
            return (yield from self._drain_queue(thread, self.compl_queue))
        return (yield from self._drain_queue(thread, self.recv_queue))

    def wait_signal(self):
        """An event completing when new work *may* be available."""
        signals = [self.recv_queue.host_event.wait_event()]
        if self.compl_queue is not None:
            signals.append(self.compl_queue.host_event.wait_event())
        signals.extend(w.wait_event() for w in self.completions.watched_words())
        return AnyOf(self.sim, signals)

    # -- blocking modes -----------------------------------------------------------
    def blocking_sources(self) -> List:
        if self.options.completion_queue == "none":
            # Fig. 5's argument made executable: per-descriptor completion
            # words cannot be blocked on collectively, so a progress thread
            # parked on the receive queue would never see local RDMA
            # completions (the rendezvous pull would stall until the
            # watchdog re-issues it against an unmapped source buffer).
            raise PtlError(
                "elan4: completion_queue='none' polls per-descriptor host "
                "words and cannot support thread-blocking progress — use "
                "'one-queue' (one-thread) or 'two-queue' (two-thread)"
            )
        sources = [self.recv_queue.host_event]
        if self.compl_queue is not None:
            sources.append(self.compl_queue.host_event)
        return sources

    def arm_blocking(self, word, armed: bool = True) -> None:
        """Switch the queue owning ``word`` to interrupt delivery (or back
        to fast host-word writes while a progress thread is spinning)."""
        if self.compl_queue is not None and word is self.compl_queue.host_event:
            self.compl_queue.arm_interrupt(armed)
        elif word is self.recv_queue.host_event:
            self.recv_queue.arm_interrupt(armed)

    def block_wait(self, thread, req) -> Generator:
        """Interrupt-mode wait (§6.4): block once — interrupt-armed — until
        the first relevant event, then poll the rest of the way.

        Arming only while actually blocked keeps events that land during
        the awake phase on the fast (polled) path; each ``wait`` call thus
        pays roughly one interrupt, which is the cost the paper's
        "Interrupt" column isolates.
        """
        # Phase 1: block until something arrives for us
        while not req.completed:
            handled = yield from self.progress(thread)
            if req.completed or handled:
                break
            self.recv_queue.arm_interrupt(True)
            signal = self.wait_signal()
            if not signal.triggered:
                yield from thread.wait_sim_event(signal)
            self.recv_queue.arm_interrupt(False)
        # Phase 2: awake now — poll to completion
        while not req.completed:
            handled = yield from self.progress(thread)
            if not handled and not req.completed:
                yield self.wait_signal()  # spin, CPU held
                yield from thread.compute(self.config.poll_check_us)

    # -- drain / finalize ------------------------------------------------------------
    def pending(self) -> int:
        count = self.completions.pending() + self.ctx.pending_ops()
        if self.reliable is not None:
            count += self.reliable.unacked_count()
        return count

    def finalize(self, thread) -> Generator:
        """Complete pending local work, then tear down the context — the
        §4.1 drain: no descriptor may outlive the connection."""
        while self.pending():
            handled = yield from self.progress(thread)
            if not handled and self.pending():
                # wake on queue/completion activity, the NIC going idle, or
                # a periodic tick (reliability timers resolve state without
                # emitting any host-visible signal)
                from repro.sim.events import Timeout

                yield AnyOf(
                    self.sim,
                    [
                        self.wait_signal(),
                        self.ctx.nic.drain_event(self.ctx.ctx),
                        Timeout(self.sim, 200.0),
                    ],
                )
        if self.reliable is not None:
            self.reliable.close()
        yield from self.ctx.drain(thread)
        yield from self.ctx.finalize(thread)
