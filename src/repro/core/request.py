"""Send and receive requests.

Requests are the PML's unit of bookkeeping: created by ``isend``/``irecv``,
progressed by PTL upcalls (``ptl_send_progress`` / ``ptl_recv_progress``
report delivered byte counts, §2.2), and completed when every byte of the
message is accounted for on that side.

Completion must be observable two ways (§3, dual-mode progress):

* **polling** — ``request.completed`` flag checked by a progress loop;
* **blocking** — waiters parked on the request are woken by
  ``signal_completion`` from whichever thread (or NIC callback) completes
  it; the threaded progress modes of Table 1 ride on this.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ptl.base import PtlModule
    from repro.hw.memory import Buffer
    from repro.sim.core import Simulator

__all__ = ["Request", "SendRequest", "RecvRequest", "Status", "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = -1
ANY_TAG = -1

_req_ids = itertools.count(1)


class Status:
    """MPI status: resolved source, tag, and received length."""

    __slots__ = ("source", "tag", "nbytes")

    def __init__(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, nbytes: int = 0):
        self.source = source
        self.tag = tag
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Status(source={self.source}, tag={self.tag}, nbytes={self.nbytes})"


class Request:
    """Base request: identity, progress accounting, completion fan-out."""

    def __init__(self, sim: "Simulator", nbytes: int):
        self.sim = sim
        self.req_id = next(_req_ids)
        self.nbytes = nbytes
        self.bytes_progressed = 0
        self.completed = False
        self.error: Optional[BaseException] = None
        self._waiters: List[SimEvent] = []
        self.completed_at: Optional[float] = None
        #: scratch area for the owning PTL (peer addresses, mapped E4 ranges)
        self.transport: Dict[str, Any] = {}
        #: flight-record trace id when observability is on (None otherwise)
        self.obs_tid: Optional[int] = None
        #: the PML's open-rendezvous key while the transfer is in flight
        self.rndv_key: Optional[Tuple[int, int, int]] = None

    # -- progress ----------------------------------------------------------
    def add_progress(self, nbytes: int) -> bool:
        """Account ``nbytes`` more delivered; completes the request when the
        total reaches the message size.  Returns True on completion."""
        if self.completed:
            raise RuntimeError(f"progress on completed request {self.req_id}")
        self.bytes_progressed += nbytes
        if self.bytes_progressed >= self.nbytes:
            self.signal_completion()
            return True
        return False

    def signal_completion(self) -> None:
        if self.completed:
            return
        self.completed = True
        self.completed_at = self.sim.now
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(self)

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.signal_completion()

    # -- waiting -----------------------------------------------------------
    def completion_event(self) -> SimEvent:
        """A one-shot event completing with this request."""
        ev = SimEvent(self.sim, name=f"req{self.req_id}")
        if self.completed:
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def test(self) -> bool:
        return self.completed


class SendRequest(Request):
    """One outgoing message."""

    def __init__(
        self,
        sim: "Simulator",
        buffer: "Buffer",
        nbytes: int,
        dst_rank: int,
        tag: int,
        ctx_id: int,
        seq: int,
    ):
        super().__init__(sim, nbytes)
        self.buffer = buffer
        self.dst_rank = dst_rank
        self.tag = tag
        self.ctx_id = ctx_id
        self.seq = seq
        #: bytes scheduled onto PTLs so far (first frag + remainder split)
        self.bytes_scheduled = 0
        self.acked = False
        #: MPI_Ssend semantics: completion requires the receive to have
        #: matched (forces the rendezvous handshake at any size)
        self.sync = False
        #: the PTL module (rail) carrying the send; failover moves it
        self.ptl_module: Optional["PtlModule"] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SendRequest #{self.req_id} ->{self.dst_rank} tag={self.tag} "
            f"{self.bytes_progressed}/{self.nbytes}>"
        )


class RecvRequest(Request):
    """One posted receive."""

    def __init__(
        self,
        sim: "Simulator",
        buffer: Optional["Buffer"],
        nbytes: int,
        src_rank: int,
        tag: int,
        ctx_id: int,
    ):
        super().__init__(sim, nbytes)
        self.buffer = buffer
        self.src_rank = src_rank  # may be ANY_SOURCE
        self.tag = tag  # may be ANY_TAG
        self.ctx_id = ctx_id
        self.status = Status()
        self.matched = False

    def match_against(self, src_rank: int, tag: int) -> bool:
        """MPI matching rule (wildcards allowed on the posted side only)."""
        return (self.src_rank in (ANY_SOURCE, src_rank)) and (
            self.tag in (ANY_TAG, tag)
        )

    def mark_matched(self, src_rank: int, tag: int, msg_len: int) -> None:
        self.matched = True
        self.status.source = src_rank
        self.status.tag = tag
        self.status.nbytes = min(msg_len, self.nbytes)
        # a shorter incoming message completes after fewer bytes
        if msg_len < self.nbytes:
            self.nbytes = msg_len

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RecvRequest #{self.req_id} <-{self.src_rank} tag={self.tag} "
            f"{self.bytes_progressed}/{self.nbytes}>"
        )
