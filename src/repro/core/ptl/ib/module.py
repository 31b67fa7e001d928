"""PTL/IB: the Open MPI transport over the :mod:`repro.ib` rail.

The design follows MPICH2-over-InfiniBand's RDMA channel (PAPERS.md):

* **small messages** take the RDMA-write fast path — each peer pair keeps a
  ring of persistent, pre-registered receive slots; the sender RDMA-writes
  header+payload into the next slot (immediate data carries the slot
  index), so no receive-side matching work happens until the CQE.  Slot
  reuse is credit-controlled: the receiver returns batched credits once it
  has consumed half the ring;
* **credit exhaustion** falls back to the send/recv channel (a ``send``
  WQE; the pre-posted SRQ buffer pool is abstracted into the CQE);
* **large messages** use rendezvous with the *write* scheme: RNDV header →
  the receiver registers an MR over the posted buffer and answers with its
  rkey → the sender RDMA-writes the payload (the HCA segments at MTU) with
  immediate data on the last packet → both sides complete off their CQEs —
  sender when the write is fully acked, receiver on the immediate.

One CQ serves every QP, so thread-blocking progress has exactly one source
(the one-thread driver works; two-thread has no separate completion queue
to block on, by construction of the verbs model).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

import numpy as np

from repro.core.header import (
    FragmentHeader,
    HDR_MATCH,
    HDR_RNDV,
    HEADER_BYTES,
)
from repro.core.pml.matching import IncomingFragment
from repro.core.ptl.base import PtlComponent, PtlError, PtlModule
from repro.ib.verbs import Cqe, WorkRequest
from repro.sim.events import AnyOf

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.request import RecvRequest, SendRequest
    from repro.ib.nic import IbNic
    from repro.ib.verbs import MemoryRegion, QueuePair

__all__ = ["IbPtlComponent", "IbPtlModule"]


class IbPtlComponent(PtlComponent):
    """The InfiniBand transport component."""

    name = "ib"

    def __init__(self, process, config, rail: int = 0):
        super().__init__(process, config)
        self.rail = rail
        self.device = f"ib:{rail}" if rail else "ib"
        if self.device not in process.node.devices:
            raise PtlError("ib PTL needs an ib rail on this node (Cluster.add_ib_rail)")

    def _init_impl(self, thread) -> Generator:
        yield self.sim.timeout(0)
        return [IbPtlModule(self)]


class _IbPeer:
    """Per-peer state: the QP plus both directions of the fast-path ring."""

    def __init__(self, qp: "QueuePair", rx_ring, rx_mr: "MemoryRegion", slots: int):
        self.qp = qp
        self.rx_ring = rx_ring
        self.rx_mr = rx_mr
        self.slots = slots
        self.rx_consumed = 0  # slots eaten since the last credit return
        # sender side, filled once the peer publishes its ring
        self.tx_rkey = 0
        self.tx_cursor = 0
        self.tx_credits = 0


class IbPtlModule(PtlModule):
    """One PTL/IB endpoint (one HCA port)."""

    name = "ib"
    peers: Dict[int, _IbPeer]

    def __init__(self, component: IbPtlComponent):
        super().__init__(component)
        self.nic: "IbNic" = self.process.node.devices[component.device]
        self.fabric = self.nic.fabric
        self.slot_bytes = self.config.ib_fastpath_bytes
        self.first_frag_capacity = self.slot_bytes - HEADER_BYTES
        #: same priority as elan4: the PML stripes one job across both rails
        self.schedule_priority = 0
        self.bandwidth_weight = (
            self.config.link_us_per_byte / self.config.ib_link_us_per_byte
        )
        self.cq = self.nic.create_cq(name=f"ibcq-r{self.process.rank}")
        self._qp_peer: Dict[int, int] = {}  # my qpn -> peer rank
        #: wr_id -> ("eager"|"rndv"|"ctl", req_or_None, peer_rank)
        self._send_ops: Dict[int, tuple] = {}
        self._next_wr = 1
        #: dst_req -> (recv_req, mr or None, peer_rank): rendezvous writes in flight
        self._rndv_recv: Dict[int, tuple] = {}
        self._pending_sends: Dict[int, "SendRequest"] = {}  # src_req -> req
        self.eager_sends = 0
        self.rndv_sends = 0
        self.fastpath_sends = 0
        self.channel_sends = 0
        self.obs = component.process.job.cluster.observer
        self.nic.obs = self.obs
        self._obs_node = self.process.node.node_id

    # -- identity ------------------------------------------------------------
    def local_info(self) -> Dict[str, Any]:
        return {"ib_node": self.process.node.node_id, "ib_rank": self.process.rank}

    def add_peer(self, thread, rank: int, info: Dict) -> Generator:
        if "ib_node" not in info:
            raise PtlError(f"peer {rank} exposes no ib endpoint")
        if rank == self.process.rank or rank in self.peers:
            return
        qp = self.nic.create_qp(self.cq)
        qp.on_error = self._qp_error
        slots = self.config.ib_fastpath_slots
        ring = self.process.space.alloc(slots * self.slot_bytes, label=f"ibring-{rank}")
        # registration of the persistent ring is part of connection setup
        yield from thread.compute(self.nic.reg_mr_cost_us(len(ring)))
        mr = self.nic.reg_mr(ring)
        peer = _IbPeer(qp, ring, mr, slots)
        self.peers[rank] = peer
        self._qp_peer[qp.qpn] = rank
        me = self.process.rank
        self.fabric.publish(
            ("ptl", me, rank), {"qpn": qp.qpn, "rkey": mr.rkey, "slots": slots}
        )
        remote = yield from self.fabric.lookup(thread, ("ptl", rank, me))
        yield from thread.compute(self.config.ib_qp_connect_us)
        qp.connect(info["ib_node"], remote["qpn"])
        peer.tx_rkey = remote["rkey"]
        peer.tx_credits = remote["slots"]

    def remove_peer(self, rank: int) -> None:
        peer = self.peers.pop(rank, None)
        if peer is not None:
            self._qp_peer.pop(peer.qp.qpn, None)
            peer.qp.on_error = None  # orderly teardown is not a failure
            peer.qp.fail("peer removed")
            self.nic.dereg_mr(peer.rx_mr)

    def _peer(self, rank: int) -> _IbPeer:
        peer = self.peers.get(rank)
        if peer is None:
            raise PtlError(f"ib: no QP to rank {rank}")
        return peer

    def _qp_error(self, qp, reason: str) -> None:
        rank = self._qp_peer.get(qp.qpn)
        if rank is None:
            return
        # a dead QP completes nothing it carried: purge its in-flight
        # bookkeeping so finalize's drain loop does not wait forever on
        # completions that cannot come (the PML re-runs the protocol for
        # open requests on a surviving module)
        self._send_ops = {
            wr: entry for wr, entry in self._send_ops.items() if entry[2] != rank
        }
        for dst_req in [d for d, e in self._rndv_recv.items() if e[2] == rank]:
            _, mr, _ = self._rndv_recv.pop(dst_req)
            if mr is not None:
                self.nic.dereg_mr(mr)
        if self.pml is not None:
            self.pml.peer_failed(self, rank, PtlError(f"ib: {reason}"))

    # -- send path ----------------------------------------------------------
    def _post(self, kind: str, req, peer: _IbPeer, wqe_args: Dict[str, Any]) -> int:
        wr = self._next_wr
        self._next_wr += 1
        self._send_ops[wr] = (kind, req, self._qp_peer.get(peer.qp.qpn, -1))
        self.nic.post_send(peer.qp, WorkRequest(wr_id=wr, **wqe_args))
        return wr

    def send_first(self, thread, req: "SendRequest") -> Generator:
        peer = self._peer(req.dst_rank)
        eager = req.nbytes <= self.first_frag_capacity and not req.sync
        obs_t0 = self.sim.now if self.obs is not None else 0.0
        hdr = FragmentHeader(
            type=HDR_MATCH if eager else HDR_RNDV,
            src_rank=self.process.rank,
            ctx_id=req.ctx_id,
            tag=req.tag,
            seq=req.seq,
            msg_len=req.nbytes,
            frag_len=req.nbytes if eager else 0,
            frag_offset=0,
            src_req=req.req_id,
            dst_req=0,
        )
        if eager:
            self.eager_sends += 1
            if self.obs is not None:
                self.obs.flight_kind(req.obs_tid, "eager")
                self.obs.count("ptl", "eager_sends")
        else:
            self.rndv_sends += 1
            self._pending_sends[req.req_id] = req
            if self.obs is not None:
                self.obs.flight_kind(req.obs_tid, "rndv")
                self.obs.count("ptl", "rndv_sends")
        frame = np.frombuffer(hdr.encode(), dtype=np.uint8)
        if eager and req.nbytes:
            data = yield from self.pml.datatype.pack_bytes(thread, req.buffer, req.nbytes)
            frame = np.concatenate([frame, data])
        # doorbell: one PIO write to ring the HCA
        yield from self.nic.pci.pio_write()
        kind = "eager" if eager else "ctl"
        if peer.tx_credits > 0:
            # fast path: RDMA-write into the peer's next persistent slot
            slot = peer.tx_cursor % peer.slots
            peer.tx_cursor += 1
            peer.tx_credits -= 1
            self.fastpath_sends += 1
            self._post(
                kind,
                req,
                peer,
                dict(
                    opcode="write",
                    nbytes=len(frame),
                    data=frame,
                    rkey=peer.tx_rkey,
                    remote_offset=slot * self.slot_bytes,
                    imm=("fp", slot),
                    meta={"obs_tid": req.obs_tid},
                ),
            )
        else:
            # out of ring credits: the send/recv channel carries it
            self.channel_sends += 1
            if self.obs is not None:
                self.obs.count("ptl", "ib_channel_fallback")
            self._post(
                kind,
                req,
                peer,
                dict(opcode="send", nbytes=len(frame), data=frame,
                     meta={"obs_tid": req.obs_tid}),
            )
        if self.obs is not None:
            self.obs.flight_span(
                req.obs_tid, "ptl", "inject", obs_t0, node=self._obs_node
            )

    # -- matched rendezvous (receiver side) -----------------------------------
    def matched(self, thread, recv_req: "RecvRequest", frag: IncomingFragment) -> Generator:
        hdr = frag.header
        peer = self._peer(hdr.src_rank)
        total = min(recv_req.nbytes, hdr.msg_len)
        mr = None
        if total > 0:
            # register the posted buffer so the sender can RDMA-write it
            yield from thread.compute(self.nic.reg_mr_cost_us(total))
            mr = self.nic.reg_mr(recv_req.buffer, total)
            self._rndv_recv[recv_req.req_id] = (recv_req, mr, hdr.src_rank)
        yield from self.nic.pci.pio_write()
        self._post(
            "ctl",
            None,
            peer,
            dict(
                opcode="send",
                nbytes=HEADER_BYTES,
                meta={
                    "ctl": "rndv_ack",
                    "rkey": mr.rkey if mr is not None else 0,
                    "src_req": hdr.src_req,
                    "dst_req": recv_req.req_id,
                    "nbytes": total,
                    "obs_tid": frag.obs_tid,
                },
            ),
        )
        if total <= 0 and not recv_req.completed:
            # 0-byte synchronous rendezvous: the sender's fin completes us
            self._rndv_recv[recv_req.req_id] = (recv_req, None, hdr.src_rank)

    def _rndv_go(self, thread, meta: Dict[str, Any]) -> Generator:
        """Sender side: the receiver granted its rkey — write the payload."""
        req: "SendRequest" = self._pending_sends.get(meta["src_req"])
        if req is None or req.completed:
            return
        req.acked = True
        peer = self._peer(req.dst_rank)
        total = meta["nbytes"]
        if total <= 0:
            self._post(
                "ctl", None, peer,
                dict(opcode="send", nbytes=HEADER_BYTES,
                     meta={"ctl": "rndv_fin", "dst_req": meta["dst_req"]}),
            )
            self._pending_sends.pop(req.req_id, None)
            self.pml.send_progress(req, req.nbytes - req.bytes_progressed)
            return
        data = yield from self.pml.datatype.pack_bytes(thread, req.buffer, total)
        yield from self.nic.pci.pio_write()
        self._post(
            "rndv",
            req,
            peer,
            dict(
                opcode="write",
                nbytes=total,
                data=data,
                rkey=meta["rkey"],
                remote_offset=0,
                imm=("rv", meta["dst_req"]),
                meta={"obs_tid": req.obs_tid},
            ),
        )

    # -- receive path ---------------------------------------------------------
    def _handle_cqe(self, thread, cqe: Cqe) -> Generator:
        if cqe.kind in ("send", "write"):
            # local completion: the WQE's last packet is acked end-to-end
            kind, req, _ = self._send_ops.pop(cqe.wr_id, (None, None, -1))
            if kind == "eager" and req is not None and not req.completed:
                self.pml.send_progress(req, req.nbytes)
            elif kind == "rndv" and req is not None and not req.completed:
                self._pending_sends.pop(req.req_id, None)
                self.pml.send_progress(req, req.nbytes - req.bytes_progressed)
            return
        if cqe.kind == "imm":
            imm = cqe.imm
            if imm[0] == "fp":
                yield from self._consume_slot(thread, cqe, imm[1])
            elif imm[0] == "rv":
                self._rndv_done(imm[1], cqe.nbytes)
            return
        if cqe.kind == "recv":
            ctl = cqe.meta.get("ctl")
            if ctl == "rndv_ack":
                yield from self._rndv_go(thread, cqe.meta)
            elif ctl == "rndv_fin":
                self._rndv_done(cqe.meta["dst_req"], 0)
            elif ctl == "credit":
                rank = self._qp_peer.get(cqe.qpn)
                if rank in self.peers:
                    self.peers[rank].tx_credits += cqe.meta["n"]
            elif cqe.data is not None:
                yield from self._dispatch_frame(thread, cqe, np.asarray(cqe.data))
            return
        raise PtlError(f"ib: unexpected CQE {cqe.kind!r}")

    def _consume_slot(self, thread, cqe: Cqe, slot: int) -> Generator:
        rank = self._qp_peer.get(cqe.qpn)
        if rank is None:
            return
        peer = self.peers[rank]
        frame = peer.rx_ring.read(slot * self.slot_bytes, cqe.nbytes)
        yield from self._dispatch_frame(thread, cqe, frame)
        # batched credit return: half the ring at a time
        peer.rx_consumed += 1
        if peer.rx_consumed * 2 >= peer.slots:
            n, peer.rx_consumed = peer.rx_consumed, 0
            self._post(
                "ctl", None, peer,
                dict(opcode="send", nbytes=self.config.ib_ack_bytes,
                     meta={"ctl": "credit", "n": n}),
            )

    def _dispatch_frame(self, thread, cqe: Cqe, frame: np.ndarray) -> Generator:
        hdr = FragmentHeader.decode(frame[:HEADER_BYTES].tobytes())
        payload = frame[HEADER_BYTES : HEADER_BYTES + hdr.frag_len]
        obs_tid = cqe.meta.get("obs_tid")
        if hdr.type in (HDR_MATCH, HDR_RNDV):
            frag = IncomingFragment(
                header=hdr,
                data=payload,
                ptl=self,
                arrived_at=self.sim.now,
                obs_tid=obs_tid,
            )
            yield from self.pml.incoming_fragment(thread, frag)
        else:
            raise PtlError(f"ib: unexpected fragment {hdr!r}")

    def _rndv_done(self, dst_req: int, nbytes: int) -> None:
        entry = self._rndv_recv.pop(dst_req, None)
        if entry is None:
            return
        recv_req, mr, _ = entry
        if mr is not None:
            self.nic.dereg_mr(mr)
        if not recv_req.completed:
            self.pml.recv_progress(
                recv_req, recv_req.nbytes - recv_req.bytes_progressed
            )

    # -- progress -------------------------------------------------------------
    def progress(self, thread) -> Generator:
        yield from thread.compute(self.config.poll_check_us)
        return (yield from self.progress_from(thread, self.cq.host_event))

    def progress_from(self, thread, word) -> Generator:
        handled = 0
        while True:
            cqe = self.cq.poll()
            if cqe is None:
                return handled
            handled += 1
            yield from self._handle_cqe(thread, cqe)

    def wait_signal(self):
        return AnyOf(self.sim, [self.cq.host_event.wait_event()])

    def blocking_sources(self) -> List:
        return [self.cq.host_event]

    def arm_blocking(self, word, armed: bool = True) -> None:
        if word is self.cq.host_event:
            self.cq.armed = armed

    # -- drain / finalize -------------------------------------------------------
    def pending(self) -> int:
        return (
            len(self._send_ops)
            + len(self._rndv_recv)
            + len(self.cq)
            + sum(p.qp.pending for p in self.peers.values() if p.qp.state == "rts")
        )

    def finalize(self, thread) -> Generator:
        while self.pending():
            yield from self.progress(thread)
            if self.pending():
                yield from thread.sleep(1.0)
        for rank in list(self.peers):
            self.remove_peer(rank)
        yield self.sim.timeout(0)
