"""The two rendezvous schemes: RDMA write (Fig. 3) and RDMA read (Fig. 4).

**Write scheme** — after the match, the receiver returns an ACK carrying the
E4 address of its (now exposed) receive buffer; the sender RDMA-writes the
remainder there and notifies completion with a FIN control fragment.  The
ACK also lets the sender credit the inlined first-fragment data
("the initiating PTL updates the PML layer about the data transmitted
inside the first packet", §2.2).

**Read scheme** — the RNDV fragment already carries the *source* buffer's E4
address, so the receiver needs no ACK: it RDMA-reads the remainder directly
and sends a single FIN_ACK that both acknowledges the rendezvous and
reports full-message completion.  "RDMA read is able to deliver better
performance compared to RDMA write ... the RDMA read-based scheme
essentially saves a control packet" (§6.1).

In both schemes the trailing control fragment can be **chained** to the last
RDMA operation — "automatically triggered when the last RDMA operation is
done" (§4.2) — or issued by the host once it observes the local completion
(the Read-NoChain ablation of Fig. 8).

**One owner per transfer.**  What a rendezvous holds on the NIC — its
buffer's E4 mapping and, for a read, its one descriptor, completion watch
and watchdog — is a :class:`_Transfer` stored as the request's
``transfer``.  It records the module that created it, and
:meth:`_Transfer.release` tears it down once, in that module's context.  A
control message landing on another module (a late FIN or FIN_ACK on a
dying rail) still completes the request but never releases the survivor's
record.  A re-matched RNDV releases the transfer it supersedes; the PML's
failover only detaches the sender's, since a read already queued at the
dead rail's NIC may still be served from it.

**The read retry rule.**  A watchdog retry re-issues the transfer's one
descriptor under its one watch — the same ``done`` event and host word, so
a waiter parked on the module's wait set (a snapshot: Fig. 5's words cannot
be blocked on as a set) sees it fire.  A descriptor whose ``done`` already
fired is not re-issued: its completion is waiting for the host.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, TYPE_CHECKING

from repro.core.header import (
    FragmentHeader,
    HDR_ACK,
    HDR_FIN,
    HDR_FIN_ACK,
)
from repro.core.ptl.base import PtlError
from repro.elan4.rdma import RdmaDescriptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pml.matching import IncomingFragment
    from repro.core.ptl.elan4.module import Elan4PtlModule
    from repro.core.request import RecvRequest, SendRequest
    from repro.elan4.addr import E4Addr
    from repro.hw.memory import Buffer

__all__ = ["receiver_matched", "sender_handle_ack", "receiver_handle_fin",
           "sender_handle_fin_ack"]


class _Transfer:
    """The NIC-side state of one rendezvous transfer, owned by ``module``:
    the E4 mapping ``e4`` of ``buf`` and, for a read, the outstanding
    descriptor, its completion-watch cancel, its watchdog and retry count."""

    __slots__ = ("module", "e4", "desc", "cancel_watch", "watchdog", "retries")

    def __init__(self, module: "Elan4PtlModule", buf: "Buffer"):
        self.module = module
        self.e4: Optional["E4Addr"] = module.ctx.map_buffer(buf)
        self.desc: Optional[RdmaDescriptor] = None
        self.cancel_watch: Optional[Callable[[], None]] = None
        self.watchdog = None
        self.retries = 0

    def release(self) -> None:
        """Stop the watchdog, drop a descriptor the host has not consumed
        (its watch and its NIC read), and unmap — once; the unmap is
        skipped if ft already reclaimed the context wholesale."""
        if self.watchdog is not None:
            self.watchdog.cancel()
            self.watchdog = None
        if self.desc is not None:
            self.cancel_watch()
            self.module.ctx.nic.rdma.cancel(self.desc)
            self.desc = None
        e4, self.e4 = self.e4, None
        if e4 is not None and not self.module.ctx.finalized:
            self.module.ctx.unmap(e4)


def _release_own(module: "Elan4PtlModule", req) -> None:
    """Release ``req``'s transfer if ``module`` created it."""
    record = req.transfer
    if record is not None and record.module is module:
        record.release()


# ----------------------------------------------------------------- receiver
def receiver_matched(
    module: "Elan4PtlModule", thread, recv_req: "RecvRequest", frag: "IncomingFragment"
) -> Generator:
    """PML matched a RNDV fragment to ``recv_req``: run the configured
    scheme's receive side."""
    hdr = frag.header
    inline = min(hdr.frag_len, recv_req.nbytes)
    remainder = recv_req.nbytes - inline
    peer_vpid = module.vpid_of(hdr.src_rank)

    if recv_req.transfer is not None:
        # failover re-match: this (re-sent) fragment carries fresh source
        # state, so the transfer it supersedes dies, on whichever rail
        recv_req.transfer.release()

    if module.options.rdma_scheme == "write":
        # Fig. 3: expose the receive buffer and ACK back to the sender.
        dst_e4 = None
        if recv_req.nbytes > 0:
            # the transfer owns the exposure until the FIN lands
            exposed = recv_req.buffer.sub(0, recv_req.nbytes)
            recv_req.transfer = _Transfer(module, exposed)
            dst_e4 = recv_req.transfer.e4
        ack = FragmentHeader(
            type=HDR_ACK,
            src_rank=module.process.rank,
            ctx_id=hdr.ctx_id,
            tag=hdr.tag,
            seq=0,
            msg_len=recv_req.nbytes,
            frag_len=inline,  # credits the inlined bytes at the sender
            frag_offset=inline,
            src_req=hdr.src_req,
            dst_req=recv_req.req_id,
            e4=dst_e4,
        )
        yield from module.send_control(
            thread, peer_vpid, ack, obs_tid=recv_req.obs_tid
        )
        if recv_req.nbytes == 0:
            # a 0-byte synchronous rendezvous: the ACK is everything
            module.pml.recv_progress(recv_req, 0)
        return

    # Fig. 4: read scheme — pull the remainder straight from the source.
    fin_ack = FragmentHeader(
        type=HDR_FIN_ACK,
        src_rank=module.process.rank,
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
    if remainder <= 0:  # everything arrived inline; just complete the sender
        yield from module.send_control(
            thread, peer_vpid, fin_ack, obs_tid=recv_req.obs_tid
        )
        if not recv_req.completed:  # 0-byte synchronous rendezvous
            module.pml.recv_progress(recv_req, 0)
        return

    cfg = module.config
    window = recv_req.buffer.sub(inline, remainder)
    record = recv_req.transfer = _Transfer(module, window)
    t_issue = module.sim.now if module.obs is not None else 0.0
    desc = record.desc = RdmaDescriptor(
        op="read",
        local=record.e4,
        remote=hdr.e4 + inline,
        nbytes=remainder,
        remote_vpid=peer_vpid,
        done=module.ctx.make_event(name=f"rd-get#{recv_req.req_id}"),
    )
    if module.options.chained_fin:
        # the event engine fires the FIN_ACK the instant the get
        # completes — no I/O-bus crossing on the critical path (§4.2)
        desc.done.chain(
            module.ctx.chained_qdma(peer_vpid, module.peer_recv_qid, fin_ack.encode())
        )

    def on_complete(t2) -> Generator:
        record.desc = None  # consumed: nothing left on the NIC to cancel
        record.release()
        if recv_req.completed:
            # terminal elsewhere (a request failed by ft keeps nothing)
            yield t2.sim.timeout(0)
            return
        if module.obs is not None:
            # the rendezvous pull: issue to completion on the NIC DMA
            module.obs.flight_span(
                recv_req.obs_tid,
                "nic",
                "rdma_read",
                t_issue,
                node=module._obs_node,
                nbytes=remainder,
            )
        module.pml.recv_progress(recv_req, remainder)
        if not module.options.chained_fin:
            # host-issued FIN_ACK: observe completion, then send (NoChain)
            yield from module.send_control(
                t2, peer_vpid, fin_ack, obs_tid=recv_req.obs_tid
            )
        else:
            yield t2.sim.timeout(0)

    # completion watchdog: a pull whose request or data chunks died in the
    # fabric completes nobody — detect and host-retry (§3's end-to-end
    # recovery, extended beyond QDMA traffic)
    timeout = cfg.rdma_timeout_us + remainder * cfg.rdma_timeout_us_per_byte

    def check() -> None:
        record.watchdog = None
        if recv_req.completed or desc.done.fires:
            return  # finished, or done on the NIC and awaiting the host
        if record.retries >= cfg.rdma_max_retries:
            record.release()
            recv_req.fail(PtlError(
                f"rendezvous read of {remainder} bytes from rank "
                f"{hdr.src_rank} stalled through {record.retries} "
                f"re-issues — giving up"
            ))
            module.pml.completions += 1
            module.pml.retire(recv_req)
            return
        module.ctx.nic.rdma.cancel(desc)
        record.retries += 1
        module.rdma_retries += 1
        module.pml.tracer.count("ptl.rdma_retry")
        if module.obs is not None:
            module.obs.flight_instant(
                recv_req.obs_tid, "nic", "rdma_retry", node=module._obs_node
            )
        record.watchdog = module.sim.schedule(timeout, check)
        module.sim.spawn(module.ctx.rdma_issue(None, desc), name="rndv-read-retry")

    record.cancel_watch = module.completions.watch(desc.done, on_complete)
    if cfg.rdma_timeout_us > 0:
        record.watchdog = module.sim.schedule(timeout, check)
    yield from module.ctx.rdma_issue(thread, desc)


def receiver_handle_fin(module: "Elan4PtlModule", thread, hdr: FragmentHeader) -> Generator:
    """Write scheme: the sender's FIN says the RDMA-written bytes are all
    in place."""
    recv_req = module.pml.find_request(hdr.dst_req)
    if recv_req is None or recv_req.completed:
        # retransmitted FIN for a receive that already finished
        module.stale_controls += 1
        yield thread.sim.timeout(0)
        return
    if module.obs is not None:
        module.obs.flight_instant(
            recv_req.obs_tid, "ptl", "fin", node=module._obs_node
        )
    # the sender's put has landed: the exposed receive window is dead
    _release_own(module, recv_req)
    module.pml.recv_progress(recv_req, hdr.frag_len)
    yield thread.sim.timeout(0)


# ----------------------------------------------------------------- sender
def sender_handle_ack(module: "Elan4PtlModule", thread, hdr: FragmentHeader) -> Generator:
    """Write scheme: the receiver exposed its buffer — write the remainder."""
    send_req: "SendRequest" = module.pml.find_request(hdr.src_req)
    if send_req is None or send_req.completed or send_req.acked or (
        send_req.transfer is not None and send_req.transfer.module is not module
    ):
        # a duplicate ACK (failover replay of the rendezvous): the first
        # copy already credited the inline bytes and started the put — or
        # a late one from a rail the send has since left for a survivor
        module.stale_controls += 1
        yield thread.sim.timeout(0)
        return
    if module.obs is not None:
        module.obs.flight_instant(
            send_req.obs_tid, "ptl", "rndv_ack", node=module._obs_node
        )
    inline = hdr.frag_len
    if inline > 0:
        module.pml.send_progress(send_req, inline)
    send_req.acked = True
    total = min(send_req.nbytes, hdr.msg_len)
    remainder = total - inline
    if remainder <= 0:
        # nothing left to write (fully inlined, or a 0-byte synchronous
        # send): the RNDV-time source exposure is already dead
        _release_own(module, send_req)
        if not send_req.completed:
            # the ACK itself is the completion proof
            module.pml.send_progress(
                send_req, send_req.nbytes - send_req.bytes_progressed
            )
        return
    peer_vpid = module.vpid_of(hdr.src_rank)
    record = send_req.transfer
    if record is None:
        source = send_req.buffer.sub(0, send_req.nbytes)
        record = send_req.transfer = _Transfer(module, source)
    fin = FragmentHeader(
        type=HDR_FIN,
        src_rank=module.process.rank,
        ctx_id=hdr.ctx_id,
        tag=hdr.tag,
        seq=0,
        msg_len=total,
        frag_len=remainder,
        frag_offset=inline,
        src_req=send_req.req_id,
        dst_req=hdr.dst_req,
        e4=None,
    )
    desc = RdmaDescriptor(
        op="write",
        local=record.e4 + inline,
        remote=hdr.e4 + inline,
        nbytes=remainder,
        remote_vpid=peer_vpid,
        done=module.ctx.make_event(name=f"wr-put#{send_req.req_id}"),
    )
    if module.options.chained_fin:
        desc.done.chain(
            module.ctx.chained_qdma(peer_vpid, module.peer_recv_qid, fin.encode())
        )

    t_issue = module.sim.now if module.obs is not None else 0.0

    def on_complete(t) -> Generator:
        # the put has left the NIC: the source exposure is no longer
        # needed whatever completed the request in the meantime
        record.release()
        if send_req.completed:
            yield t.sim.timeout(0)
            return
        if module.obs is not None:
            # the rendezvous push: issue to completion on the NIC DMA
            module.obs.flight_span(
                send_req.obs_tid,
                "nic",
                "rdma_write",
                t_issue,
                node=module._obs_node,
                nbytes=remainder,
            )
        module.pml.send_progress(send_req, remainder)
        if not module.options.chained_fin:
            yield from module.send_control(t, peer_vpid, fin, obs_tid=send_req.obs_tid)
        else:
            yield t.sim.timeout(0)

    module.completions.watch(desc.done, on_complete)
    yield from module.ctx.rdma_issue(thread, desc)


def sender_handle_fin_ack(module: "Elan4PtlModule", thread, hdr: FragmentHeader) -> Generator:
    """Read scheme: one FIN_ACK acknowledges the rendezvous and reports the
    whole message delivered."""
    send_req: "SendRequest" = module.pml.find_request(hdr.dst_req)
    if send_req is None or send_req.completed:
        # the receiver re-answered a duplicate rendezvous after the sender
        # already completed — harmless evidence of a failover replay
        module.stale_controls += 1
        yield thread.sim.timeout(0)
        return
    if module.obs is not None:
        module.obs.flight_instant(
            send_req.obs_tid, "ptl", "fin_ack", node=module._obs_node
        )
    send_req.acked = True
    # read scheme terminal: the receiver has pulled everything it wants;
    # a FIN_ACK on a rail the send has left completes it all the same
    _release_own(module, send_req)
    module.pml.send_progress(send_req, send_req.nbytes - send_req.bytes_progressed)
    yield thread.sim.timeout(0)
