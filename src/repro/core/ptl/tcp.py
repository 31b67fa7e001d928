"""PTL/TCP: Open MPI's first transport, over the simulated IP stack.

Kept faithful to the properties the paper contrasts against (§1, §3.2):
every operation crosses the OS (syscalls + kernel copies), progress is
poll/select over socket descriptors, and the first-fragment strategy of
inlining data with the rendezvous *pays off* here because "the cost to
initiate send/receive operations through the operating system is rather
high comparing to the networking cost" (§6.1).

Wire protocol: 64-byte :class:`~repro.core.header.FragmentHeader` followed
by ``frag_len`` payload bytes, over one stream socket per peer pair
(lower rank connects, higher rank accepts).

Long messages: RNDV (with inline data up to the capacity) → ACK → the
remainder streamed as FRAG fragments with receiver-side reassembly by
offset.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, TYPE_CHECKING

import numpy as np

from repro.core.header import (
    FLAG_INLINE,
    FragmentHeader,
    HDR_ACK,
    HDR_FRAG,
    HDR_MATCH,
    HDR_RNDV,
    HEADER_BYTES,
)
from repro.core.pml.matching import IncomingFragment
from repro.core.ptl.base import PtlComponent, PtlError, PtlModule
from repro.sim.events import AnyOf
from repro.tcpip.socket import Listener, TcpSocket

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.request import RecvRequest, SendRequest
    from repro.hw.cpu import HostWordEvent

__all__ = ["TcpPtlComponent", "TcpPtlModule"]

#: base port of PTL/TCP listeners (port = base + rank)
TCP_PTL_PORT = 7000

#: exposed first-fragment capacity (inlining pays on TCP, §6.1)
TCP_FIRST_FRAG = 16 * 1024

#: remainder fragmentation size
TCP_FRAG_BYTES = 64 * 1024


class TcpPtlComponent(PtlComponent):
    """The TCP transport component."""

    name = "tcp"

    def __init__(self, process, config):
        super().__init__(process, config)
        if getattr(process.job, "net", None) is None:
            raise PtlError("tcp PTL needs the job's IP network")

    def _init_impl(self, thread) -> Generator:
        yield self.sim.timeout(0)
        return [TcpPtlModule(self)]


class _PeerState:
    """Per-peer connection + stream-parser state."""

    def __init__(self, sock: TcpSocket):
        self.sock = sock
        self.rxbuf = bytearray()
        self.pending_header: Optional[FragmentHeader] = None


class TcpPtlModule(PtlModule):
    """One PTL/TCP endpoint."""

    name = "tcp"

    def __init__(self, component: TcpPtlComponent):
        super().__init__(component)
        self.first_frag_capacity = TCP_FIRST_FRAG
        self.schedule_priority = 10
        self.bandwidth_weight = 1.0
        self.net = self.process.job.net
        self.port = TCP_PTL_PORT + self.process.rank
        self.listener = Listener(self.net, self.process.node, self.port)
        self.peers: Dict[int, _PeerState] = {}
        self._accepting = True
        self.process.node.spawn_thread(
            self._accept_loop, name=f"tcp-accept{self.port}", daemon=True
        )
        self.eager_sends = 0
        self.rndv_sends = 0
        #: the select loop's stop signal, created by custom_progress_loop
        self._progress_stop: Optional["HostWordEvent"] = None

    # -- connection management -------------------------------------------------
    def _accept_loop(self, thread) -> Generator:
        while self._accepting:
            sock = yield from self.listener.accept(thread)
            raw = yield from sock.recv_exact(thread, 4)
            rank = int.from_bytes(raw, "big")
            self.peers[rank] = _PeerState(sock)

    def local_info(self) -> Dict[str, int]:
        return {"tcp_node": self.process.node.node_id, "tcp_port": self.port}

    def add_peer(self, thread, rank: int, info: Dict) -> Generator:
        if "tcp_port" not in info:
            raise PtlError(f"peer {rank} exposes no tcp endpoint")
        if rank == self.process.rank or rank in self.peers:
            return
        if self.process.rank < rank:
            sock = yield from TcpSocket.connect(
                self.net, thread, self.process.node, info["tcp_node"], info["tcp_port"]
            )
            yield from sock.send(thread, self.process.rank.to_bytes(4, "big"))
            self.peers[rank] = _PeerState(sock)
        else:
            # the lower rank dials us; wait until the accept loop records it
            while rank not in self.peers:
                yield from thread.sleep(5.0)

    def has_peer(self, rank: int) -> bool:
        return rank in self.peers

    def remove_peer(self, rank: int) -> None:
        peer = self.peers.pop(rank, None)
        if peer is not None:
            peer.sock.close()

    def _peer(self, rank: int) -> _PeerState:
        peer = self.peers.get(rank)
        if peer is None:
            raise PtlError(f"tcp: no connection to rank {rank}")
        return peer

    # -- send path ----------------------------------------------------------------
    def send_first(self, thread, req: "SendRequest") -> Generator:
        peer = self._peer(req.dst_rank)
        eager = req.nbytes <= self.first_frag_capacity and not req.sync
        inline = min(req.nbytes, self.first_frag_capacity)
        hdr = FragmentHeader(
            type=HDR_MATCH if eager else HDR_RNDV,
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
        )
        if eager:
            self.eager_sends += 1
        else:
            self.rndv_sends += 1
        payload = b""
        if inline:
            data = yield from self.pml.datatype.pack_bytes(thread, req.buffer, inline)
            payload = data.tobytes()
        yield from peer.sock.send(thread, hdr.encode() + payload)
        if eager:
            # kernel buffered: the user buffer is reusable
            self.pml.send_progress(req, req.nbytes)
        # rendezvous: inline credited on ACK; remainder streamed then

    def _send_remainder(self, thread, hdr_ack: FragmentHeader) -> Generator:
        req: "SendRequest" = self.pml.lookup_request(hdr_ack.src_req)
        inline = hdr_ack.frag_len
        if inline:
            self.pml.send_progress(req, inline)
        req.acked = True
        if not req.completed and min(req.nbytes, hdr_ack.msg_len) - inline <= 0:
            # fully inlined or 0-byte synchronous send: the ACK completes it
            self.pml.send_progress(req, req.nbytes - req.bytes_progressed)
            return
        peer = self._peer(hdr_ack.src_rank)
        offset = inline
        total = min(req.nbytes, hdr_ack.msg_len)
        while offset < total:
            frag_len = min(TCP_FRAG_BYTES, total - offset)
            frag = FragmentHeader(
                type=HDR_FRAG,
                src_rank=self.process.rank,
                ctx_id=req.ctx_id,
                tag=req.tag,
                seq=0,
                msg_len=total,
                frag_len=frag_len,
                frag_offset=offset,
                src_req=req.req_id,
                dst_req=hdr_ack.dst_req,
            )
            data = yield from self.pml.datatype.pack_bytes(
                thread, req.buffer, frag_len, src_off=offset
            )
            yield from peer.sock.send(thread, frag.encode() + data.tobytes())
            self.pml.send_progress(req, frag_len)
            offset += frag_len

    # -- matched rendezvous (receiver side) ------------------------------------------
    def matched(self, thread, recv_req: "RecvRequest", frag: IncomingFragment) -> Generator:
        hdr = frag.header
        inline = min(hdr.frag_len, recv_req.nbytes)
        ack = FragmentHeader(
            type=HDR_ACK,
            src_rank=self.process.rank,
            ctx_id=hdr.ctx_id,
            tag=hdr.tag,
            seq=0,
            msg_len=recv_req.nbytes,
            frag_len=inline,
            frag_offset=inline,
            src_req=hdr.src_req,
            dst_req=recv_req.req_id,
        )
        peer = self._peer(hdr.src_rank)
        yield from peer.sock.send(thread, ack.encode())
        if not recv_req.completed and recv_req.nbytes - inline <= 0:
            # 0-byte synchronous rendezvous: nothing follows the ACK
            self.pml.recv_progress(recv_req, recv_req.nbytes - recv_req.bytes_progressed)

    # -- receive path -----------------------------------------------------------------
    def progress(self, thread) -> Generator:
        """Non-blocking poll over all peer sockets; parse complete frames."""
        yield from thread.compute(self.config.tcp_poll_us)
        handled = 0
        for rank, peer in list(self.peers.items()):
            while True:
                chunk = peer.sock.try_recv(1 << 20)
                if chunk is None:
                    break
                peer.rxbuf.extend(chunk)
            while True:
                frame = self._next_frame(peer)
                if frame is None:
                    break
                hdr, payload = frame
                # kernel->user copy for the payload bytes
                if payload is not None and len(payload):
                    yield from thread.compute(
                        len(payload) * self.config.tcp_copy_us_per_byte
                    )
                yield from self._handle_frame(thread, hdr, payload)
                handled += 1
        return handled

    def _next_frame(self, peer: _PeerState):
        if peer.pending_header is None:
            if len(peer.rxbuf) < HEADER_BYTES:
                return None
            peer.pending_header = FragmentHeader.decode(bytes(peer.rxbuf[:HEADER_BYTES]))
            del peer.rxbuf[:HEADER_BYTES]
        hdr = peer.pending_header
        # only data-bearing types carry payload on the wire; control types
        # (ACK) reuse frag_len as a byte-credit count
        body_len = hdr.frag_len if hdr.type in (HDR_MATCH, HDR_RNDV, HDR_FRAG) else 0
        if len(peer.rxbuf) < body_len:
            return None
        payload = np.frombuffer(bytes(peer.rxbuf[:body_len]), dtype=np.uint8)
        del peer.rxbuf[:body_len]
        peer.pending_header = None
        return hdr, payload

    def _handle_frame(self, thread, hdr: FragmentHeader, payload) -> Generator:
        if hdr.type in (HDR_MATCH, HDR_RNDV):
            frag = IncomingFragment(header=hdr, data=payload, ptl=self,
                                    arrived_at=self.sim.now)
            yield from self.pml.incoming_fragment(thread, frag)
        elif hdr.type == HDR_ACK:
            yield from self._send_remainder(thread, hdr)
        elif hdr.type == HDR_FRAG:
            req: "RecvRequest" = self.pml.lookup_request(hdr.dst_req)
            n = min(hdr.frag_len, req.nbytes - hdr.frag_offset)
            if n > 0:
                yield from self.pml.datatype.unpack(
                    thread, req.buffer, payload, n, dst_off=hdr.frag_offset
                )
            self.pml.recv_progress(req, n)
        else:
            raise PtlError(f"tcp: unexpected fragment {hdr!r}")

    def wait_signal(self):
        signals = [p.sock.readable.wait_event() for p in self.peers.values()]
        signals.append(self.listener.acceptable.wait_event())
        return AnyOf(self.sim, signals)

    def blocking_sources(self) -> List:
        raise PtlError(
            "tcp: no per-queue event words — TCP progress blocks in "
            "poll/select over its descriptors (custom_progress_loop)"
        )

    def custom_progress_loop(self, thread, stopping, on_handled) -> Generator:
        """The §4.3 TCP property: "one thread can block and wait on the
        progress of multiple socket-based file descriptors" — a single
        select-style progress thread covering every peer connection."""
        from repro.hw.cpu import HostWordEvent
        from repro.sim.events import AnyOf

        self._progress_stop = HostWordEvent(self.sim, name="tcp-progress-stop")
        while not stopping():
            handled = yield from self.progress(thread)
            if handled:
                yield from on_handled(thread, handled)
                continue
            # block in "select" across all sockets + the stop signal
            yield from thread.wait_sim_event(
                AnyOf(self.sim, [self.wait_signal(),
                                 self._progress_stop.wait_event()])
            )

    def stop_progress_loop(self) -> None:
        if self._progress_stop is not None:
            self._progress_stop.set()

    # -- drain / finalize -----------------------------------------------------------
    def pending(self) -> int:
        return sum(
            len(p.rxbuf) + (0 if p.pending_header is None else 1)
            for p in self.peers.values()
        )

    def finalize(self, thread) -> Generator:
        while self.pending():
            yield from self.progress(thread)
        self._accepting = False
        self.listener.close()
        for peer in self.peers.values():
            peer.sock.close()
        yield self.sim.timeout(0)
