"""End-to-end reliable message delivery (§3, via LA-MPI [10]).

"Open MPI targets at both process fault tolerance and end-to-end reliable
message delivery.  While the latter requires PTL to be able to keep track
of the progressing of individual message/packet..." — this module is that
machinery, in the LA-MPI style the authors brought to Open MPI:

* every host-issued QDMA fragment carries a per-peer **reliability
  sequence number** and is retained until acknowledged;
* the receiver delivers in sequence (buffering ahead-of-sequence arrivals,
  dropping duplicates) and returns cumulative ACKs;
* unacknowledged fragments retransmit on a timer, up to a retry budget,
  after which the owning request is failed rather than silently hung.

The trade-off the design makes explicit: reliability mode requires
``chained_fin=False`` — a FIN fired autonomously by the NIC event engine
cannot be tracked or retransmitted by the host, so the chained-DMA
optimisation of §4.2 is surrendered for recoverability.  (Link-level CRC
retry protects the RDMA data path itself; what end-to-end recovery covers
is the queue-borne control/eager traffic.)

Loss is injected at the fabric (``Fabric.set_loss``) for packets the
channel marks ``droppable`` — deterministic, seeded, per-run reproducible.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.sim.backoff import JitteredBackoff

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ptl.elan4.module import Elan4PtlModule
    from repro.elan4.qdma import QdmaMessage

__all__ = ["ReliableChannel", "ReliabilityError"]


class ReliabilityError(Exception):
    """Retry budget exhausted — the peer is presumed dead."""


class ReliableChannel:
    """Sequencing, acknowledgement and retransmission for one module."""

    def __init__(
        self,
        module: "Elan4PtlModule",
        retransmit_timeout_us: float = 100.0,
        max_retries: int = 25,
        backoff_factor: float = 2.0,
        backoff_cap_us: float = 800.0,
        jitter_frac: float = 0.25,
        recv_window: int = 256,
    ):
        self.module = module
        self.sim = module.sim
        self.timeout_us = retransmit_timeout_us
        self.max_retries = max_retries
        self.backoff_factor = backoff_factor
        self.backoff_cap_us = backoff_cap_us
        self.jitter_frac = jitter_frac
        self.recv_window = recv_window
        #: per-peer next outgoing sequence
        self._tx_seq: Dict[int, int] = {}
        #: per-peer unacked: seq -> (payload, meta, retries, timer_handle)
        self._unacked: Dict[int, Dict[int, list]] = {}
        #: per-peer next expected incoming sequence
        self._rx_seq: Dict[int, int] = {}
        #: per-peer out-of-order stash: seq -> message
        self._stash: Dict[int, Dict[int, "QdmaMessage"]] = {}
        self.retransmissions = 0
        self.duplicates_dropped = 0
        self.acks_sent = 0
        self.window_drops = 0
        self.abandoned_fragments = 0
        self.failed = False
        self.closed = False
        #: peers whose retry budget was exhausted -> the diagnosis
        self.failed_peers: Dict[int, ReliabilityError] = {}
        # deterministic jitter: a named substream keyed on rank/rail so
        # adding channels elsewhere never perturbs this one
        self._jitter_rng = module.process.job.cluster.rng.stream(
            f"reliable:{module.name}:{module.process.rank}"
        )
        # retry pacing through the shared seeded helper (repro.sim.backoff):
        # exponential backoff with multiplicative jitter, so a congested or
        # stalled peer is not hammered at a fixed cadence and many senders'
        # retry storms desynchronise — all bit-reproducibly
        self._backoff = JitteredBackoff(
            self._jitter_rng,
            retransmit_timeout_us,
            factor=backoff_factor,
            cap_us=max(backoff_cap_us, retransmit_timeout_us),
            jitter_frac=jitter_frac,
        )

    # -- send side ---------------------------------------------------------
    def send(self, thread, dst_vpid: int, payload, meta: Optional[dict] = None) -> Generator:
        """Coroutine: send one tracked fragment (replaces a bare qdma_send)."""
        if dst_vpid in self.failed_peers:
            raise self.failed_peers[dst_vpid]
        seq = self._tx_seq.get(dst_vpid, 0)
        self._tx_seq[dst_vpid] = seq + 1
        payload = np.asarray(payload, dtype=np.uint8) if not isinstance(
            payload, (bytes, bytearray)
        ) else np.frombuffer(bytes(payload), dtype=np.uint8)
        full_meta = dict(meta or {})
        full_meta["rel_seq"] = seq
        full_meta["droppable"] = True
        record = [payload.copy(), full_meta, 0, None]
        self._unacked.setdefault(dst_vpid, {})[seq] = record
        yield from self.module.ctx.qdma_send(thread, dst_vpid, 0, payload, meta=full_meta)
        self._arm_timer(dst_vpid, seq)

    def _arm_timer(self, dst_vpid: int, seq: int) -> None:
        record = self._unacked.get(dst_vpid, {}).get(seq)
        if record is None:
            return
        delay = self._backoff.delay(record[2])
        record[3] = self.sim.schedule(delay, self._retransmit, dst_vpid, seq)

    def _retransmit(self, dst_vpid: int, seq: int) -> None:
        record = self._unacked.get(dst_vpid, {}).get(seq)
        if record is None or self.closed or dst_vpid in self.failed_peers:
            return  # acked meanwhile (or shutting down / already diagnosed)
        if not self.module.ctx.nic.capability.is_live(dst_vpid):
            # the peer finalized cleanly (its own drain guaranteed all its
            # requests completed): nothing is owed to it any more
            self._unacked.get(dst_vpid, {}).pop(seq, None)
            return
        payload, meta, retries, _ = record
        if retries >= self.max_retries:
            error = ReliabilityError(
                f"fragment seq={seq} to vpid {dst_vpid} unacknowledged "
                f"after {retries} retries — peer presumed dead"
            )
            self.failed = True
            self.failed_peers[dst_vpid] = error
            self._quiesce_peer(dst_vpid)
            # hand the diagnosis up: the PML fails over to a surviving PTL
            # or — with none left — fails only this peer's requests
            self.module.report_peer_failure(dst_vpid, error)
            return
        record[2] = retries + 1
        self.retransmissions += 1
        # NIC-side reissue (the host retransmit path re-enqueues a command)
        self.module.ctx.nic.qdma.chained_command(
            self.module.ctx.vpid, dst_vpid, 0, payload, meta
        ).run()
        self._arm_timer(dst_vpid, seq)

    def _quiesce_peer(self, dst_vpid: int) -> None:
        """Stop retransmitting to one peer; keep the records so a failover
        takeover can still harvest them."""
        for record in self._unacked.get(dst_vpid, {}).values():
            if record[3] is not None:
                record[3].cancel()
                record[3] = None

    def takeover(self, dst_vpid: int) -> Tuple[list, int]:
        """Failover harvest: detach this peer's unacknowledged fragments.

        Returns ``(replayable, skipped)`` — fragment payloads safe to replay
        through another rail (in sequence order), and the count of fragments
        that carry rail-local E4 addresses (RNDV/ACK exposures) which can
        *not* cross rails; those are recovered at request level instead by
        re-running the rendezvous on the surviving module.
        """
        from repro.core.header import HEADER_BYTES, FragmentHeader

        per_peer = self._unacked.pop(dst_vpid, {})
        replayable: list = []
        skipped = 0
        for seq in sorted(per_peer):
            payload, _meta, _retries, timer = per_peer[seq]
            if timer is not None:
                timer.cancel()
            hdr = None
            if payload.nbytes >= HEADER_BYTES:
                hdr = FragmentHeader.decode(payload[:HEADER_BYTES].tobytes())
            if hdr is not None and hdr.e4 is None:
                replayable.append(payload)
            else:
                skipped += 1
                self.abandoned_fragments += 1
        return replayable, skipped

    # -- receive side ----------------------------------------------------------
    def on_receive(self, thread, msg: "QdmaMessage") -> Generator:
        """Filter an incoming queue message.  Returns the list of messages
        now deliverable in order (empty for duplicates / gaps / acks)."""
        ack = msg.meta.get("rel_ack")
        if ack is not None:
            self._handle_ack(msg.src_vpid, ack)
            return []
        seq = msg.meta.get("rel_seq")
        if seq is None:
            return [msg]  # untracked traffic (loopback completion tokens)
        expected = self._rx_seq.get(msg.src_vpid, 0)
        deliverable: List["QdmaMessage"] = []
        if seq < expected:
            self.duplicates_dropped += 1
        elif seq >= expected + self.recv_window:
            # beyond the receive window: drop instead of stashing, so a
            # sender racing far ahead of a stalled gap cannot grow the
            # stash without bound (it will retransmit after the gap heals)
            self.window_drops += 1
        elif seq > expected:
            self._stash.setdefault(msg.src_vpid, {})[seq] = msg
        else:
            deliverable.append(msg)
            expected += 1
            stash = self._stash.get(msg.src_vpid, {})
            while expected in stash:
                deliverable.append(stash.pop(expected))
                expected += 1
            self._rx_seq[msg.src_vpid] = expected
        # cumulative ack for everything below `expected` (also re-acks
        # duplicates so a lost ack gets repaired)
        yield from self._send_ack(thread, msg.src_vpid, self._rx_seq.get(msg.src_vpid, 0))
        return deliverable

    def _send_ack(self, thread, dst_vpid: int, upto: int) -> Generator:
        from repro.elan4.capability import CapabilityError

        self.acks_sent += 1
        try:
            yield from self.module.ctx.qdma_send(
                thread,
                dst_vpid,
                0,
                np.empty(0, dtype=np.uint8),
                meta={"rel_ack": upto, "droppable": True},
            )
        except CapabilityError:
            # the peer finalized while its last fragments were in flight;
            # a departed peer needs no acknowledgements
            pass

    def _handle_ack(self, src_vpid: int, upto: int) -> None:
        unacked = self._unacked.get(src_vpid, {})
        for seq in [s for s in unacked if s < upto]:
            record = unacked.pop(seq)
            if record[3] is not None:
                record[3].cancel()

    # -- shutdown ----------------------------------------------------------------
    def close(self) -> None:
        """Stop all retransmission activity (module finalize, after the
        drain confirmed every tracked fragment was acknowledged)."""
        self.closed = True
        for per_peer in self._unacked.values():
            for record in per_peer.values():
                if record[3] is not None:
                    record[3].cancel()
            per_peer.clear()

    # -- introspection -----------------------------------------------------------
    def unacked_count(self) -> int:
        return sum(len(v) for v in self._unacked.values())
