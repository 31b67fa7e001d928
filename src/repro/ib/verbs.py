"""Verbs-level objects of the IB model: MRs, WQEs, CQs, QPs.

These are deliberately thin — state holders in the shape of the verbs API
(`ibv_reg_mr`, `ibv_post_send`, `ibv_poll_cq`) — while :mod:`repro.ib.nic`
is the engine that animates them.  The reliable-connection (RC) transport
state (PSN sequencing, the unacked window, go-back-N bookkeeping, the
DCQCN rate limiter) lives on the :class:`QueuePair`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cpu import HostWordEvent
    from repro.hw.memory import Buffer
    from repro.sim.core import Simulator

__all__ = ["IbError", "MemoryRegion", "WorkRequest", "Cqe", "CompletionQueue", "QueuePair"]


class IbError(Exception):
    """Verbs misuse or transport failure (QP in the error state)."""


@dataclass
class MemoryRegion:
    """A registered (pinned + rkey-addressable) span of host memory."""

    rkey: int
    buffer: "Buffer"
    nbytes: int

    def write(self, data: np.ndarray, offset: int) -> None:
        if offset + len(data) > self.nbytes:
            raise IbError(
                f"remote write past MR end: {offset}+{len(data)} > {self.nbytes}"
            )
        self.buffer.write(data, offset=offset)


@dataclass
class WorkRequest:
    """One posted send-queue entry (``ibv_post_send``).

    ``opcode`` is ``"send"`` (two-sided; ``meta`` + optional payload arrive
    in the peer's CQE — the pre-posted SRQ buffer pool is abstracted) or
    ``"write"`` (one-sided RDMA write into ``(rkey, remote_offset)``; the
    peer sees nothing unless ``imm`` is set, which raises a CQE carrying it
    after the last packet lands).
    """

    wr_id: int
    opcode: str
    nbytes: int
    data: Optional[np.ndarray] = None
    rkey: int = 0
    remote_offset: int = 0
    imm: Optional[Any] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    #: filled by the NIC: the PSN of this WQE's final packet
    _last_psn: int = -1


@dataclass
class Cqe:
    """One completion-queue entry."""

    kind: str  # "send" | "write" (local completion) | "recv" | "imm" | "error"
    qpn: int
    wr_id: int = 0
    nbytes: int = 0
    imm: Optional[Any] = None
    data: Optional[np.ndarray] = None
    meta: Dict[str, Any] = field(default_factory=dict)


class CompletionQueue:
    """A CQ: drained by polling, or blocked on via its host event word.

    ``armed`` switches delivery to the interrupt path (``node.raise_interrupt``)
    the way the Elan4 queues arm for thread-blocking progress; while a
    consumer is actively polling, completions are fast host-word writes.
    """

    def __init__(self, sim: "Simulator", node, name: str = "ibcq"):
        from repro.hw.cpu import HostWordEvent

        self.sim = sim
        self.node = node
        self.entries: list[Cqe] = []
        self.host_event: "HostWordEvent" = HostWordEvent(sim, name=name)
        self.armed = False

    def push(self, cqe: Cqe) -> None:
        self.entries.append(cqe)
        if self.armed:
            self.node.raise_interrupt(self.host_event)
        else:
            self.host_event.set()

    def poll(self) -> Optional[Cqe]:
        if not self.entries:
            self.host_event.clear()
            return None
        return self.entries.pop(0)

    def __len__(self) -> int:
        return len(self.entries)


class QueuePair:
    """One RC queue pair, connected to exactly one remote QP."""

    def __init__(self, nic, qpn: int, cq: CompletionQueue):
        self.nic = nic
        self.qpn = qpn
        self.cq = cq
        self.state = "reset"  # reset -> rts -> error
        self.peer_node: int = -1
        self.peer_qpn: int = -1
        # -- requester (send) side ----------------------------------------
        self.send_queue: list[WorkRequest] = []
        self.next_psn = 0
        #: psn -> (packet, wqe, last_of_wqe): everything on the wire, unacked
        self.unacked: Dict[int, tuple] = {}
        self.retries = 0
        self._tx_parked = True  # the requester is idle: a doorbell schedules it
        #: ``(wqe, offset)`` the requester stopped at on a full window
        self._tx_blocked: Optional[Tuple[WorkRequest, int]] = None
        self._rtx_timer_psn: Optional[int] = None
        # -- responder (receive) side -------------------------------------
        self.expected_psn = 0
        self.last_acked_psn = -1
        self._nak_sent_for = -1
        #: reassembly of the in-flight inbound "send" WQE
        self._rx_parts: list[np.ndarray] = []
        self._rx_bytes = 0
        # -- DCQCN rate limiter (requester) -------------------------------
        self.rate = 1.0
        self.alpha = 1.0
        self._next_tx_at = 0.0
        self._last_cut_at = -1e18
        self._recovery_scheduled = False
        # -- counters ------------------------------------------------------
        self.bytes_tx = 0
        self.packets_tx = 0
        self.retransmitted = 0
        self.cnps_rx = 0
        self.on_error = None  # callback(qp, reason) installed by the PTL

    def connect(self, peer_node: int, peer_qpn: int) -> None:
        if self.state != "reset":
            raise IbError(f"qp{self.qpn}: connect() in state {self.state}")
        self.peer_node = peer_node
        self.peer_qpn = peer_qpn
        self.state = "rts"

    @property
    def pending(self) -> int:
        return len(self.send_queue) + len(self.unacked)

    def fail(self, reason: str) -> None:
        """Enter the error state: flush the send queue, notify the owner."""
        if self.state == "error":
            return
        self.state = "error"
        self.send_queue.clear()
        self.unacked.clear()
        self._tx_blocked = None
        if self.on_error is not None:
            self.on_error(self, reason)
