"""The IB HCA: WQE processing, RC delivery, go-back-N, DCQCN.

One :class:`IbNic` per node per IB rail, behind its own PCI segment (like
the Elan4 cards, so multirail nodes do not serialise on one bus).  The
requester side segments each WQE into MTU packets, paces them through the
QP's DCQCN rate limiter, and tracks them in the unacked window; the
responder side enforces PSN order, writes RDMA payloads straight into the
registered MR, coalesces ACKs, NAKs out-of-order arrivals (go-back-N), and
answers CE-marked packets with CNPs.

Congestion reaction (DCQCN-style, simplified): a CNP cuts the QP rate
multiplicatively (``r *= 1 - alpha/2``, alpha pumped toward 1), at most
once per reaction interval; quiet recovery periods decay alpha and add the
rate back linearly.  The rate scales packet pacing at injection, which is
where RoCE rate limiters actually sit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, TYPE_CHECKING

import numpy as np

from repro.ib.fabric import FRAME_BYTES, IbFabric, PRIO_CTL, PRIO_DATA
from repro.ib.verbs import CompletionQueue, Cqe, IbError, MemoryRegion, QueuePair, WorkRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import MachineConfig
    from repro.hw.memory import Buffer
    from repro.hw.node import Node
    from repro.sim.core import Simulator

__all__ = ["IbNic", "IbPacket"]


@dataclass
class IbPacket:
    """One packet on the IB/RoCE wire."""

    src_node: int
    dst_node: int
    nbytes: int  # wire footprint, transport header included
    kind: str  # "data" | "ack" | "nak" | "cnp"
    qpn: int  # destination QP number
    psn: int = 0
    prio: int = PRIO_DATA
    ecn: bool = False
    data: Optional[np.ndarray] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<IbPacket {self.kind} n{self.src_node}->n{self.dst_node} "
            f"qp{self.qpn} psn={self.psn} {self.nbytes}B>"
        )


class IbNic:
    """One HCA port: QPs, MRs, CQs, and the engines that drive them."""

    def __init__(
        self,
        sim: "Simulator",
        config: "MachineConfig",
        node: "Node",
        fabric: IbFabric,
    ):
        from repro.hw.pci import PciBus

        self.sim = sim
        self.config = config
        self.node = node
        self.node_id = node.node_id
        self.fabric = fabric
        self.options = fabric.options
        self.pci = PciBus(sim, config, name=f"pci{self.node_id}.ib")
        self.tx_link = fabric.attach(self)
        self.qps: Dict[int, QueuePair] = {}
        self.mrs: Dict[int, MemoryRegion] = {}
        self._next_qpn = self.node_id * 4096 + 1
        self._next_rkey = self.node_id * 65536 + 1
        self.down = False  # port state (ib_port_down fault)
        self.obs = None  # wired by the Cluster
        #: unrecoverable local drops (cluster.assert_no_drops contract)
        self.dropped: List[tuple] = []
        self.rail_down_drops = 0
        self.bytes_rx = 0
        self.packets_rx = 0
        self.acks_tx = 0
        self.naks_tx = 0
        self.cnps_tx = 0
        self._hdr = config.ib_header_bytes
        self._mtu = config.ib_mtu_bytes

    # -- verbs -------------------------------------------------------------
    def create_cq(self, name: str = "ibcq") -> CompletionQueue:
        return CompletionQueue(self.sim, self.node, name=name)

    def create_qp(self, cq: CompletionQueue) -> QueuePair:
        qpn = self._next_qpn
        self._next_qpn += 1
        qp = QueuePair(self, qpn, cq)
        self.qps[qpn] = qp
        return qp

    def reg_mr(self, buffer: "Buffer", nbytes: Optional[int] = None) -> MemoryRegion:
        rkey = self._next_rkey
        self._next_rkey += 1
        mr = MemoryRegion(rkey=rkey, buffer=buffer, nbytes=nbytes or len(buffer))
        self.mrs[rkey] = mr
        return mr

    def dereg_mr(self, mr: MemoryRegion) -> None:
        self.mrs.pop(mr.rkey, None)

    def reg_mr_cost_us(self, nbytes: int) -> float:
        """Host-side cost of ``ibv_reg_mr`` (pinning scales with size)."""
        return self.config.ib_reg_mr_us + (nbytes / 1024.0) * self.config.ib_reg_mr_us_per_kb

    def post_send(self, qp: QueuePair, wqe: WorkRequest) -> None:
        """Queue a WQE; the doorbell kicks the QP's requester engine."""
        if qp.state == "error":
            raise IbError(f"qp{qp.qpn}: post_send on a QP in the error state")
        if qp.state != "rts":
            raise IbError(f"qp{qp.qpn}: post_send before connect")
        qp.send_queue.append(wqe)
        if qp._tx_parked:
            qp._tx_parked = False
            self.sim.schedule_pooled(0.0, self._tx_next, (qp,))

    # -- requester engine --------------------------------------------------
    # Per-QP send engine: segment, pace, inject, track.  Each zero-delay hop
    # orders same-instant work (DESIGN.md §6, "Callback-form engines").
    def _tx_next(self, qp: QueuePair) -> None:
        if qp.state != "rts":
            return
        if not qp.send_queue:
            qp._tx_parked = True
            return
        wqe = qp.send_queue.pop(0)
        if wqe.data is not None and len(wqe.data):
            # DMA the payload out of host memory once per WQE
            fetch = (self.pci.dma, (len(wqe.data), self._tx_pump, qp, wqe, 0))
        else:
            fetch = (self._tx_pump, (qp, wqe, 0))
        self.sim.schedule_pooled(self.config.ib_nic_wqe_us, *fetch)

    def _tx_pump(self, qp: QueuePair, wqe: WorkRequest, offset: int) -> None:
        """Segment ``wqe`` from ``offset`` until the window closes, a packet
        has to wait for its pacing slot, or the WQE is out."""
        total = wqe.nbytes
        while True:
            if qp.state != "rts":
                return
            if len(qp.unacked) >= self.config.ib_window_pkts:
                qp._tx_blocked = (wqe, offset)  # _rx_ack re-opens it
                return
            seg = min(self._mtu, total - offset)
            last = offset + seg >= total
            payload = None
            if wqe.data is not None and len(wqe.data):
                payload = wqe.data[offset : offset + seg]
            pkt = IbPacket(
                src_node=self.node_id,
                dst_node=qp.peer_node,
                nbytes=seg + self._hdr,
                kind="data",
                qpn=qp.peer_qpn,
                psn=qp.next_psn,
                data=payload,
                meta={
                    "opcode": wqe.opcode,
                    "rkey": wqe.rkey,
                    "roffset": wqe.remote_offset + offset,
                    "last": last,
                    "imm": wqe.imm if last else None,
                    "wmeta": wqe.meta if last else None,
                    "src_qpn": qp.qpn,
                    "wqe_bytes": total,
                },
            )
            qp.next_psn += 1
            if last:
                wqe._last_psn = pkt.psn
            qp.unacked[pkt.psn] = (pkt, wqe, last)
            self._arm_retransmit(qp)
            wait = self._pace(qp, pkt)
            if wait > 0.0:
                then = (self._tx_next, qp) if last else (self._tx_pump, qp, wqe, offset + seg)
                self.sim.schedule_pooled(wait, self._paced, (qp, pkt, *then))
                return
            self._emit(qp, pkt)
            if last:
                self._tx_next(qp)
                return
            offset += seg

    def _pace(self, qp: QueuePair, pkt: IbPacket) -> float:
        """DCQCN pacing at wire-time / rate: book ``pkt``'s slot, return the wait."""
        gap = (pkt.nbytes + FRAME_BYTES) * self.config.ib_link_us_per_byte / qp.rate
        start = max(self.sim.now, qp._next_tx_at)
        qp._next_tx_at = start + gap
        return start - self.sim.now

    def _paced(self, qp: QueuePair, pkt: IbPacket, fn: Callable[..., None], *args: Any) -> None:
        """``pkt``'s slot came: emit it, resume the requester or the replay."""
        self._emit(qp, pkt)
        fn(*args)

    def _emit(self, qp: QueuePair, pkt: IbPacket) -> None:
        qp.bytes_tx += pkt.nbytes
        qp.packets_tx += 1
        if self.down:
            # a dead port transmits nothing; the retransmit timer recovers
            return
        self.fabric.inject(pkt)

    # -- retransmission (go-back-N) ----------------------------------------
    def _arm_retransmit(self, qp: QueuePair) -> None:
        if qp._rtx_timer_psn is not None or not qp.unacked:
            return
        oldest = min(qp.unacked)
        qp._rtx_timer_psn = oldest
        self.sim.schedule(self.config.ib_retransmit_us, self._rtx_fire, qp, oldest)

    def _rtx_fire(self, qp: QueuePair, psn: int) -> None:
        qp._rtx_timer_psn = None
        if qp.state != "rts" or not qp.unacked:
            return
        if min(qp.unacked) != psn:
            self._arm_retransmit(qp)  # progress was made; re-arm on the new head
            return
        qp.retries += 1
        if qp.retries > self.config.ib_max_retries:
            if self.obs is not None:
                self.obs.count("ib", f"nic{self.node_id}.qp_errors")
            qp.fail(f"retry limit on qp{qp.qpn} -> node {qp.peer_node}")
            return
        self.sim.schedule_pooled(0.0, self._rtx_pump, (qp, self._go_back_n(qp, None)))
        self._arm_retransmit(qp)

    def _go_back_n(self, qp: QueuePair, from_psn: Optional[int]) -> Iterator[int]:
        """Every unacked PSN at/after ``from_psn`` (default: the oldest), in order.
        Lazy: the window is read at the first ``next()``, one hop after the
        replay was decided, so an ACK landing in that instant is seen first."""
        if from_psn is None:
            if not qp.unacked:
                return  # an ACK at the timer's instant emptied the window
            from_psn = min(qp.unacked)
        yield from sorted(p for p in qp.unacked if p >= from_psn)

    def _rtx_pump(self, qp: QueuePair, psns: Iterator[int]) -> None:
        """Replay ``psns`` until one waits for its pacing slot; a PSN
        acknowledged meanwhile ends the replay."""
        for psn in psns:
            entry = qp.unacked.get(psn)
            if entry is None or qp.state != "rts":
                return
            pkt = entry[0]
            qp.retransmitted += 1
            if self.obs is not None:
                self.obs.count("ib", f"nic{self.node_id}.retransmits")
            copy = IbPacket(
                src_node=pkt.src_node,
                dst_node=pkt.dst_node,
                nbytes=pkt.nbytes,
                kind="data",
                qpn=pkt.qpn,
                psn=pkt.psn,
                data=pkt.data,
                meta=pkt.meta,
            )
            wait = self._pace(qp, copy)
            if wait > 0.0:
                self.sim.schedule_pooled(wait, self._paced, (qp, copy, self._rtx_pump, qp, psns))
                return
            self._emit(qp, copy)

    # -- receive path ------------------------------------------------------
    def receive(self, pkt: IbPacket) -> None:
        if self.down:
            return  # a dead port hears nothing; peers retransmit into it
        self.packets_rx += 1
        self.bytes_rx += pkt.nbytes
        qp = self.qps.get(pkt.qpn)
        if qp is None or qp.state != "rts":
            # stale traffic for a destroyed/failed QP, or arrival before
            # our side of the connection handshake: drop silently — the
            # sender's retransmit timer re-offers it once we reach RTS
            return
        if pkt.kind == "data":
            self._rx_data(qp, pkt)
        elif pkt.kind == "ack":
            self._rx_ack(qp, pkt.meta["psn"])
        elif pkt.kind == "nak":
            self._rx_nak(qp, pkt.meta["psn"])
        elif pkt.kind == "cnp":
            self._rx_cnp(qp)
        else:
            raise IbError(f"nic{self.node_id}: unknown packet kind {pkt.kind!r}")

    def _rx_data(self, qp: QueuePair, pkt: IbPacket) -> None:
        if pkt.ecn:
            self._send_ctl(qp, "cnp", {})
            self.cnps_tx += 1
        if pkt.psn != qp.expected_psn:
            if pkt.psn > qp.expected_psn:
                # a gap: drop and NAK once per missing PSN (go-back-N)
                if qp._nak_sent_for != qp.expected_psn:
                    qp._nak_sent_for = qp.expected_psn
                    self._send_ctl(qp, "nak", {"psn": qp.expected_psn})
                    self.naks_tx += 1
            else:
                # duplicate from a go-back-N replay: re-ACK so the sender
                # window can advance even if the original ACK was dropped
                self._send_ctl(qp, "ack", {"psn": qp.expected_psn - 1})
            return
        qp.expected_psn += 1
        qp._nak_sent_for = -1
        meta = pkt.meta
        if meta["opcode"] == "write":
            mr = self.mrs.get(meta["rkey"])
            if mr is None:
                # the MR vanished (receiver aborted the rendezvous):
                # unrecoverable protocol violation on a healthy fabric
                self.dropped.append((self.sim.now, "no-such-mr", pkt))
                return
            if pkt.data is not None and len(pkt.data):
                mr.write(pkt.data, meta["roffset"])
        else:  # "send": reassemble into the CQE (SRQ pool abstracted)
            if pkt.data is not None and len(pkt.data):
                qp._rx_parts.append(pkt.data)
        qp._rx_bytes += pkt.nbytes - self._hdr
        if (qp.expected_psn - 1) - qp.last_acked_psn >= self.config.ib_ack_every or meta["last"]:
            qp.last_acked_psn = qp.expected_psn - 1
            self._send_ctl(qp, "ack", {"psn": qp.last_acked_psn})
            self.acks_tx += 1
        if meta["last"]:
            total, parts = qp._rx_bytes, qp._rx_parts
            qp._rx_bytes, qp._rx_parts = 0, []
            if meta["opcode"] == "write":
                if meta["imm"] is not None:
                    self._complete(
                        qp,
                        Cqe(
                            kind="imm",
                            qpn=qp.qpn,
                            nbytes=meta["wqe_bytes"],
                            imm=meta["imm"],
                            meta=meta["wmeta"] or {},
                        ),
                    )
            else:
                data = None
                if parts:
                    data = parts[0] if len(parts) == 1 else np.concatenate(parts)
                self._complete(
                    qp,
                    Cqe(
                        kind="recv",
                        qpn=qp.qpn,
                        nbytes=meta["wqe_bytes"],
                        imm=meta["imm"],
                        data=data,
                        meta=meta["wmeta"] or {},
                    ),
                )

    def _complete(self, qp: QueuePair, cqe: Cqe) -> None:
        """CQE generation: receive-side processing delay, then push."""
        self.sim.schedule(self.config.ib_nic_deliver_us, qp.cq.push, cqe)

    def _rx_ack(self, qp: QueuePair, psn: int) -> None:
        completed = [p for p in qp.unacked if p <= psn]
        if not completed:
            return
        qp.retries = 0
        for p in sorted(completed):
            _, wqe, last = qp.unacked.pop(p)
            if last:
                self._complete(
                    qp,
                    Cqe(kind=wqe.opcode, qpn=qp.qpn, wr_id=wqe.wr_id, nbytes=wqe.nbytes),
                )
        if qp._tx_blocked is not None:  # the requester waits for this window
            self.sim.schedule_pooled(0.0, self._tx_pump, (qp, *qp._tx_blocked))
            qp._tx_blocked = None

    def _rx_nak(self, qp: QueuePair, psn: int) -> None:
        if qp.state != "rts" or not qp.unacked:
            return
        self._rx_ack(qp, psn - 1)  # a NAK acks everything before the gap
        if any(p >= psn for p in qp.unacked):
            self.sim.schedule_pooled(0.0, self._rtx_pump, (qp, self._go_back_n(qp, psn)))

    def _rx_cnp(self, qp: QueuePair) -> None:
        qp.cnps_rx += 1
        opts = self.options
        if self.sim.now - qp._last_cut_at < opts.dcqcn_cnp_interval_us:
            return
        qp._last_cut_at = self.sim.now
        qp.alpha = (1 - opts.dcqcn_alpha_g) * qp.alpha + opts.dcqcn_alpha_g
        qp.rate = max(opts.dcqcn_min_rate, qp.rate * (1 - qp.alpha / 2))
        if self.obs is not None:
            self.obs.count("ib", f"nic{self.node_id}.rate_cuts")
            self.obs.sample("ib", f"nic{self.node_id}.qp_rate", qp.rate)
        if not qp._recovery_scheduled:
            qp._recovery_scheduled = True
            self.sim.schedule(opts.dcqcn_recovery_us, self._dcqcn_recover, qp)

    def _dcqcn_recover(self, qp: QueuePair) -> None:
        qp._recovery_scheduled = False
        opts = self.options
        if self.sim.now - qp._last_cut_at < opts.dcqcn_recovery_us:
            # cut again during this period: keep decaying, try later
            self.sim.schedule(opts.dcqcn_recovery_us, self._dcqcn_recover, qp)
            qp._recovery_scheduled = True
            return
        qp.alpha *= 1 - opts.dcqcn_alpha_g
        qp.rate = min(1.0, qp.rate + opts.dcqcn_recovery_step)
        if qp.rate < 1.0:
            qp._recovery_scheduled = True
            self.sim.schedule(opts.dcqcn_recovery_us, self._dcqcn_recover, qp)

    def _send_ctl(self, qp: QueuePair, kind: str, meta: Dict[str, Any]) -> None:
        """Inject an ACK/NAK/CNP on the control priority (PFC-exempt)."""
        if self.down:
            return
        self.fabric.inject(
            IbPacket(
                src_node=self.node_id,
                dst_node=qp.peer_node,
                nbytes=self.config.ib_ack_bytes,
                kind=kind,
                qpn=qp.peer_qpn,
                prio=PRIO_CTL,
                meta=meta,
            )
        )

    # -- faults ------------------------------------------------------------
    def set_port_down(self, down: bool) -> None:
        """``ib_port_down`` fault: the port neither sends nor receives."""
        self.down = down
        self.tx_link.down = down

    # -- accounting --------------------------------------------------------
    def pending(self) -> int:
        return sum(qp.pending for qp in self.qps.values())

    def stats(self) -> Dict[str, Any]:
        return {
            "bytes_rx": self.bytes_rx,
            "packets_rx": self.packets_rx,
            "bytes_tx": sum(qp.bytes_tx for qp in self.qps.values()),
            "packets_tx": sum(qp.packets_tx for qp in self.qps.values()),
            "retransmits": sum(qp.retransmitted for qp in self.qps.values()),
            "cnps_rx": sum(qp.cnps_rx for qp in self.qps.values()),
            "acks_tx": self.acks_tx,
            "naks_tx": self.naks_tx,
            "cnps_tx": self.cnps_tx,
            "pause_us": self.tx_link.pause_us,
        }
