"""RDMA read/write: arbitrary-size remote memory access.

"RDMA enables processes to write messages directly into remote memory
exposed by other processes" (§3.1); reads pull the other way.  Descriptors
carry E4 addresses on both sides (§4.2); each has its own completion
:class:`~repro.elan4.event.ElanEvent` — the property that makes blocking on
*many* outstanding RDMAs hard (§4.3, Fig. 5a) and motivates the shared
completion queue.

Transfers are chunked (``CHUNK_BYTES``) and pipelined: while chunk *k*
crosses the wire, chunk *k+1* is being fetched over the source PCI-X bus,
so sustained bandwidth approaches the PCI-X ceiling rather than the sum of
per-stage costs — matching the testbed's ~900 MB/s (Fig. 10d).

Completion semantics (and why the chained FIN is correct):

* **write** — the descriptor completes when the *last chunk has been
  injected*; anything chained to it (the FIN QDMA) is injected afterwards
  on the same in-order path, so the receiver always sees FIN after the
  data (§4.2, Fig. 3);
* **read** — the descriptor completes when the last chunk has been *written
  to requester host memory*; the chained FIN_ACK then travels
  requester→target (§4.2, Fig. 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional, TYPE_CHECKING

from repro.elan4.addr import E4Addr
from repro.elan4.event import ElanEvent
from repro.elan4.network import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.elan4.nic import Elan4Nic

__all__ = ["RdmaDescriptor", "RdmaEngine", "RdmaError", "CHUNK_BYTES"]

#: pipelining granularity of the NIC DMA engine
CHUNK_BYTES = 4096


class RdmaError(Exception):
    """Bad descriptor (unknown op, zero/negative size)."""


@dataclass
class RdmaDescriptor:
    """One RDMA operation as issued to the NIC.

    ``local`` / ``remote`` are E4 addresses; ``done`` is the per-descriptor
    completion event (created lazily by the engine if not supplied) to which
    callers attach host words, interrupts, or chained operations *before*
    issuing.
    """

    op: str  # "read" | "write"
    local: E4Addr
    remote: E4Addr
    nbytes: int
    remote_vpid: int
    done: Optional[ElanEvent] = None
    issued_at: float = field(default=0.0)

    def validate(self) -> None:
        if self.op not in ("read", "write"):
            raise RdmaError(f"unknown RDMA op {self.op!r}")
        if self.nbytes <= 0:
            raise RdmaError(f"RDMA of {self.nbytes} bytes")


class RdmaEngine:
    """The RDMA machinery of one NIC."""

    def __init__(self, nic: "Elan4Nic"):
        self.nic = nic
        self.sim = nic.sim
        self.config = nic.config
        self._req_ids = itertools.count()
        #: outstanding read requests we issued:
        #: req_id -> [descriptor, ctx, bytes_landed]
        self._reads: Dict[int, list] = {}
        self.writes_issued = 0
        self.reads_issued = 0
        self.reads_cancelled = 0
        self.bytes_written = 0
        self.bytes_read = 0

    # -- host issue ---------------------------------------------------------
    def host_issue(self, thread, desc: RdmaDescriptor) -> Generator:
        """Coroutine (host thread context): write the descriptor to the NIC
        command queue and return immediately; completion is signalled
        through ``desc.done``."""
        desc.validate()
        self.nic.resolve_vpid(desc.remote_vpid)  # dead peers fail at issue
        if desc.done is None:
            desc.done = ElanEvent(self.nic, count=1, name=f"rdma-{desc.op}")
        desc.issued_at = self.sim.now
        yield from self.nic.pci.pio_write()
        ctx = desc.local.ctx
        self.nic.track_pending(ctx)
        self.sim.schedule(
            self.config.nic_cmd_process_us + self.config.nic_dma_issue_us,
            self._start,
            desc,
            ctx,
        )
        return desc.done

    def nic_issue(self, desc: RdmaDescriptor) -> None:
        """Issue from NIC context (chained RDMA, Tport internals): no host
        PIO crossing."""
        desc.validate()
        if desc.done is None:
            desc.done = ElanEvent(self.nic, count=1, name=f"rdma-{desc.op}")
        desc.issued_at = self.sim.now
        ctx = desc.local.ctx
        self.nic.track_pending(ctx)
        self.sim.schedule(self.config.nic_dma_issue_us, self._start, desc, ctx)

    # -- NIC side -----------------------------------------------------------
    # Plain callbacks: the DMA engine needs no thread to suspend.  Each
    # zero-delay ``schedule_pooled`` below is a hop the model depends on —
    # it orders same-instant work on the DMA engines, the PCI bus and the
    # injection link (DESIGN.md §6, "Callback-form engines").
    def _start(self, desc: RdmaDescriptor, ctx: int) -> None:
        if desc.op == "write":
            self.writes_issued += 1
            self.sim.schedule_pooled(
                0.0, self.nic.dma_engines.grant, (self._write_granted, desc, ctx)
            )
        else:
            self.reads_issued += 1
            self.sim.schedule_pooled(0.0, self._read_request, (desc, ctx))

    # -- the chunk pump -------------------------------------------------------
    # Both sources of bulk data — a write's source side and a read's data
    # holder — hold a DMA engine and stream ``(space, host_addr, nbytes)``
    # as packets of ``kind`` to ``dst_node``: fetch a chunk over PCI, inject
    # it, and fetch the next while it is on the wire.  ``meta(offset, last,
    # *args)`` labels a chunk; ``on_wire(ok, *args)`` runs once, when the
    # last chunk is on the wire or the pump died (``ok`` False).
    def _fetch(self, job: tuple, offset: int) -> None:
        chunk = min(CHUNK_BYTES, job[2] - offset)
        self.nic.pci.dma(chunk, self._fetched, job, offset, chunk)

    def _fetched(self, job: tuple, offset: int, chunk: int) -> None:
        space, host_addr, nbytes, dst_node, kind, meta, on_wire, args = job
        end = offset + chunk
        last = end >= nbytes
        try:
            pkt = Packet(
                src_node=self.nic.node_id,
                dst_node=dst_node,
                nbytes=chunk,
                kind=kind,
                meta=meta(offset, last, *args),
                data=space.read(host_addr + offset, chunk),
            )
        except BaseException:
            on_wire(False, *args)
            raise
        # Inject asynchronously so the PCI fetch of the next chunk overlaps
        # this chunk's wire time; the FIFO injection link preserves chunk
        # order.  The injection starts before the bus is asked again.
        if last:
            self.nic.fabric.transmit_from_nic(pkt, on_wire, *args)
        else:
            self.nic.fabric.transmit_from_nic(pkt)
            self._fetch(job, end)

    # -- write path ---------------------------------------------------------
    def _write_granted(self, desc: RdmaDescriptor, ctx: int) -> None:
        """Source side of RDMA write: fetch chunks over PCI, inject them."""
        try:
            space, host_addr = self.nic.mmu.translate(desc.local, desc.nbytes)
            dst = self.nic.resolve_vpid(desc.remote_vpid)
        except BaseException:
            self._write_on_wire(False, desc, ctx)
            raise
        self._fetch((space, host_addr, desc.nbytes, dst.node_id, "rdma_write",
                     self._write_meta, self._write_on_wire, (desc, ctx)), 0)

    @staticmethod
    def _write_meta(offset: int, last: bool, desc: RdmaDescriptor, ctx: int) -> dict:
        return {"remote": desc.remote + offset, "last": last}

    def _write_on_wire(self, ok: bool, desc: RdmaDescriptor, ctx: int) -> None:
        if ok:
            # last chunk on the wire => all earlier ones are; completion
            # keeps its own hop behind the wire event
            self.sim.schedule_pooled(0.0, self._write_done, (desc, ctx))
        else:
            self._write_retire(ctx)

    def _write_done(self, desc: RdmaDescriptor, ctx: int) -> None:
        self.bytes_written += desc.nbytes
        try:
            # completion at last-chunk injection: chained ops follow in order
            desc.done.fire()
        finally:
            self._write_retire(ctx)

    def _write_retire(self, ctx: int) -> None:
        self.nic.dma_engines.release()
        self.nic.untrack_pending(ctx)

    def handle_write_chunk(self, pkt: Packet) -> None:
        """Destination side of RDMA write: land a chunk in host memory."""
        self.sim.schedule_pooled(0.0, self._land_write, (pkt,))

    def _land_write(self, pkt: Packet) -> None:
        space, host_addr = self.nic.mmu.translate(pkt.meta["remote"], pkt.nbytes)
        self.nic.pci.dma(pkt.nbytes, self._write_landed, pkt, space, host_addr)

    def _write_landed(self, pkt: Packet, space, host_addr: int) -> None:
        if pkt.data is not None:
            space.write(host_addr, pkt.data)

    # -- read path ---------------------------------------------------------
    def _read_request(self, desc: RdmaDescriptor, ctx: int) -> None:
        """Requester side: send the get request to the data-holding NIC."""
        req_id = next(self._req_ids)
        self._reads[req_id] = [desc, ctx, 0]
        try:
            dst = self.nic.resolve_vpid(desc.remote_vpid)
            pkt = Packet(
                src_node=self.nic.node_id,
                dst_node=dst.node_id,
                nbytes=32,  # request descriptor on the wire
                kind="rdma_read_req",
                meta={
                    "req_id": req_id,
                    "remote": desc.remote,
                    "nbytes": desc.nbytes,
                    "reply_node": self.nic.node_id,
                },
            )
            self.nic.fabric.inject(pkt, self._read_requested, req_id)
        except BaseException:
            self._read_requested(False, req_id)
            raise

    def _read_requested(self, ok: bool, req_id: int) -> None:
        if ok:
            return
        # failed before the request ever left (peer released, fabric torn
        # down): nothing can complete or cancel this read later, so retire
        # the descriptor and pending slot here
        entry = self._reads.pop(req_id, None)
        if entry is not None:
            self.nic.untrack_pending(entry[1])

    def handle_read_request(self, pkt: Packet) -> None:
        """Data-holder side: stream the requested range back, pipelined."""
        self.sim.schedule_pooled(
            0.0, self.nic.dma_engines.grant, (self._serve_granted, pkt)
        )

    def _serve_granted(self, pkt: Packet) -> None:
        self.sim.schedule_pooled(self.config.nic_dma_issue_us, self._serve, (pkt,))

    def _serve(self, pkt: Packet) -> None:
        try:
            nbytes: int = pkt.meta["nbytes"]
            space, host_addr = self.nic.mmu.translate(pkt.meta["remote"], nbytes)
        except BaseException:
            self._serve_on_wire(False, pkt)
            raise
        self._fetch((space, host_addr, nbytes, pkt.meta["reply_node"], "rdma_read_data",
                     self._reply_meta, self._serve_on_wire, (pkt,)), 0)

    @staticmethod
    def _reply_meta(offset: int, last: bool, pkt: Packet) -> dict:
        return {"req_id": pkt.meta["req_id"], "offset": offset, "last": last}

    def _serve_on_wire(self, ok: bool, pkt: Packet) -> None:
        if ok:
            # the engine frees one hop behind the last chunk's wire event
            self.sim.schedule_pooled(0.0, self.nic.dma_engines.release)
        else:
            self.nic.dma_engines.release()

    def handle_read_data(self, pkt: Packet) -> None:
        """Requester side: land a returning chunk; fire done once every
        byte of the range has landed (not on a ``last`` flag — a corrupted
        middle chunk must leave the read visibly incomplete so the
        rendezvous watchdog can detect and re-issue it)."""
        entry = self._reads.get(pkt.meta["req_id"])
        if entry is None:
            self.nic.drop_packet(pkt, reason="read data for unknown request")
            return
        self.sim.schedule_pooled(0.0, self._land_read, (pkt, entry))

    def _land_read(self, pkt: Packet, entry: list) -> None:
        space, host_addr = self.nic.mmu.translate(
            entry[0].local + pkt.meta["offset"], pkt.nbytes
        )
        self.nic.pci.dma(pkt.nbytes, self._read_landed, pkt, entry, space, host_addr)

    def _read_landed(self, pkt: Packet, entry: list, space, host_addr: int) -> None:
        req_id = pkt.meta["req_id"]
        if self._reads.get(req_id) is not entry:
            return  # cancelled while the chunk was landing
        if pkt.data is not None:
            space.write(host_addr, pkt.data)
        entry[2] += pkt.nbytes
        desc, ctx = entry[0], entry[1]
        if entry[2] >= desc.nbytes:
            del self._reads[req_id]
            self.bytes_read += desc.nbytes
            desc.done.fire()
            self.nic.untrack_pending(ctx)

    def cancel(self, desc: RdmaDescriptor) -> bool:
        """Abandon an outstanding read (completion watchdog gave up on it).
        Releases the pending-operation slot so finalize can drain; late
        data chunks for the request are dropped as unknown."""
        for req_id, entry in list(self._reads.items()):
            if entry[0] is desc:
                del self._reads[req_id]
                self.nic.untrack_pending(entry[1])
                self.reads_cancelled += 1
                return True
        return False
