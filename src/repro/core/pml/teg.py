"""The PML (TEG): request management, scheduling, matching, progress.

Communication flow (the paper's Fig. 2):

* ``isend`` — create a :class:`~repro.core.request.SendRequest`, pick a PTL
  by the scheduling heuristic (first module with the peer, ordered by the
  module's exposed first-fragment capacity/priority), and transmit the first
  fragment: an eager MATCH carrying the whole message, or a RNDV for longer
  ones;
* ``irecv`` — post into the shared matching engine; an unexpected fragment
  it matches is delivered immediately;
* fragment arrival — a PTL hands MATCH/RNDV fragments up via
  ``incoming_fragment``; the PML matches (``pml_match_us``), unpacks inline
  data through the datatype engine, and for rendezvous calls the owning
  PTL's ``matched()`` to run its long-message protocol;
* progress — PTLs report byte counts through ``send_progress`` /
  ``recv_progress`` (the paper's ``ptl_send_progress``/``ptl_recv_progress``
  interfaces), eventually completing requests on both sides.

Dual-mode progress (§3): ``wait`` either spin-polls the modules (default) or
— in the threaded modes — parks the caller on the request while dedicated
progress threads (:mod:`repro.core.pml.progress`) field completions.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.core.datatype import DatatypeEngine
from repro.core.header import HDR_MATCH, HDR_RNDV
from repro.core.pml.matching import IncomingFragment, MatchingEngine
from repro.core.ptl.base import PtlError
from repro.core.request import ANY_SOURCE, ANY_TAG, RecvRequest, Request, SendRequest
from repro.sim.events import AnyOf

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ptl.base import PtlModule
    from repro.hw.memory import Buffer

__all__ = ["Pml", "PmlError"]

PROGRESS_MODES = ("polling", "interrupt", "one-thread", "two-thread")

#: spin-wait iterations without any time advance before declaring a bug
_SPIN_GUARD = 10_000


class PmlError(Exception):
    """Unreachable peer, bad mode, or internal protocol violation."""


class Pml:
    """One process's point-to-point management layer."""

    def __init__(
        self,
        process,
        config,
        datatype_mode: str = "memcpy",
        progress_mode: str = "polling",
    ):
        if progress_mode not in PROGRESS_MODES:
            raise PmlError(f"unknown progress mode {progress_mode!r}")
        self.process = process
        self.config = config
        self.sim = process.node.sim
        self.progress_mode = progress_mode
        self.datatype = DatatypeEngine(config, mode=datatype_mode)
        self.matching = MatchingEngine()
        self.modules: List["PtlModule"] = []
        self.requests: Dict[int, Request] = {}
        self._send_seq: Dict[Tuple[int, int], int] = {}
        self.progress_driver = None  # set by start_progress_threads
        self.sends = 0
        self.recvs = 0
        self.completions = 0  # requests completed (either side)
        self._rail_rr = 0  # round-robin cursor for equal-priority modules
        #: ranks with no surviving path -> the diagnosis that killed them
        self.dead_peers: Dict[int, BaseException] = {}
        #: revoked communicator contexts -> the CommRevokedError to raise;
        #: populated by the FT layer's revoke propagation (poison_ctx)
        self.revoked_ctxs: Dict[int, BaseException] = {}
        self.failovers = 0  # in-flight traffic moved to a surviving PTL
        #: open rendezvous receives by (ctx_id, src_rank, seq) — consulted
        #: when a duplicate RNDV arrives so failover can re-run the protocol
        self._active_rndv: Dict[Tuple[int, int, int], RecvRequest] = {}
        try:
            self.tracer = process.job.cluster.tracer
        except AttributeError:
            self.tracer = None
        # the cluster-wide observer (None unless REPRO_OBS/capture): flight
        # records begin here at schedule time and complete in recv_progress
        try:
            self.obs = process.job.cluster.observer
        except AttributeError:
            self.obs = None

    # -- stack assembly ------------------------------------------------------
    def add_module(self, module: "PtlModule") -> None:
        module.pml = self
        self.modules.append(module)
        # higher first-fragment capacity & lower latency first: elan4 > tcp
        self.modules.sort(key=lambda m: m.schedule_priority)

    def module_for(self, rank: int) -> "PtlModule":
        """The scheduling heuristic for first fragments: the best-priority
        modules that reach ``rank``; equal-priority modules (multirail:
        several Elan4 NICs) are used round-robin, striping *messages*
        across rails — the rail-allocation strategy of Coll et al. [6] and
        the §8 multirail future work."""
        best = None
        candidates = []
        for m in self.modules:  # sorted by schedule_priority
            if not m.healthy or not m.has_peer(rank):
                continue
            if best is None:
                best = m.schedule_priority
            if m.schedule_priority != best:
                break
            candidates.append(m)
        if not candidates:
            raise PmlError(f"no PTL reaches rank {rank}")
        if len(candidates) == 1:
            return candidates[0]
        self._rail_rr += 1
        return candidates[self._rail_rr % len(candidates)]

    # -- request registry ------------------------------------------------------
    def register(self, req: Request) -> None:
        self.requests[req.req_id] = req

    def lookup_request(self, req_id: int) -> Request:
        req = self.requests.get(req_id)
        if req is None:
            raise PmlError(f"unknown request id {req_id}")
        return req

    def find_request(self, req_id: int) -> Optional[Request]:
        """Tolerant lookup: None for retired/unknown ids.  Control fragments
        re-delivered after a failover may outlive their request."""
        return self.requests.get(req_id)

    def retire(self, req: Request) -> None:
        self.requests.pop(req.req_id, None)
        key = req.rndv_key
        if key is not None:
            self._active_rndv.pop(key, None)

    # -- the MPI-facing operations -----------------------------------------------
    def isend(
        self,
        thread,
        buffer: "Buffer",
        nbytes: int,
        dst_rank: int,
        tag: int,
        ctx_id: int,
        sync: bool = False,
    ) -> Generator:
        """Coroutine: start a send; returns the request.  ``sync=True``
        gives MPI_Ssend semantics (completion proves the match; the PTL
        forces its rendezvous handshake at any size)."""
        obs_t0 = 0.0
        obs_tid = None
        if self.obs is not None:
            obs_t0 = self.sim.now
            obs_tid = self.obs.flight_begin(
                "send", self.process.rank, dst_rank, tag, ctx_id, nbytes
            )
        yield from thread.compute(self.config.pml_sched_us)
        key = (ctx_id, dst_rank)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        if ctx_id in self.revoked_ctxs:
            if self.obs is not None:
                self.obs.flight_abandon(obs_tid, "revoked")
            raise self.revoked_ctxs[ctx_id]
        if dst_rank in self.dead_peers:
            if self.obs is not None:
                self.obs.flight_abandon(obs_tid, "peer dead")
            raise self.dead_peers[dst_rank]
        req = SendRequest(self.sim, buffer, nbytes, dst_rank, tag, ctx_id, seq)
        req.sync = sync
        req.obs_tid = obs_tid
        self.register(req)
        self.sends += 1
        yield from self.datatype.request_init(thread)  # send convertor
        module = self.module_for(dst_rank)
        req.ptl_module = module  # which rail owns it (failover bookkeeping)
        if self.obs is not None:
            # management cost on the send side: scheduling + convertor init
            self.obs.flight_span(
                obs_tid, "pml", "isend", obs_t0, node=self.process.node.node_id
            )
        try:
            yield from module.send_first(thread, req)
        except BaseException as e:
            # a transport-level refusal (dead peer, reset connection) must
            # not leave a zombie request behind to wedge finalize
            req.fail(e)
            self.retire(req)
            raise
        return req

    def irecv(
        self,
        thread,
        buffer: Optional["Buffer"],
        nbytes: int,
        src_rank: int,
        tag: int,
        ctx_id: int,
    ) -> Generator:
        """Coroutine: post a receive; returns the request."""
        yield from thread.compute(self.config.pml_sched_us)
        if ctx_id in self.revoked_ctxs:
            raise self.revoked_ctxs[ctx_id]
        if src_rank != ANY_SOURCE and src_rank in self.dead_peers:
            # a receive from a dead peer can never be satisfied; wildcard
            # receives may still match survivors
            raise self.dead_peers[src_rank]
        req = RecvRequest(self.sim, buffer, nbytes, src_rank, tag, ctx_id)
        self.register(req)
        self.recvs += 1
        if self.obs is not None:
            self.obs.count("pml", "recvs_posted")
        frag = self.matching.post(req)
        if frag is not None:
            yield from self.deliver_matched(thread, frag, req)
        return req

    # -- PTL upcalls -----------------------------------------------------------
    def incoming_fragment(self, thread, frag: IncomingFragment) -> Generator:
        """A PTL received a first fragment (MATCH or RNDV)."""
        yield from thread.compute(self.config.pml_match_us)
        hdr = frag.header
        if hdr.seq < self.matching.expected_seq(hdr.ctx_id, hdr.src_rank):
            # a fragment we already matched, re-sent through a surviving
            # module after a rail/peer failover — never match it twice
            yield from self._handle_duplicate(thread, frag)
            return
        for ready_frag, req in self.matching.incoming(frag):
            if req is not None:
                yield from self.deliver_matched(thread, ready_frag, req)

    def _handle_duplicate(self, thread, frag: IncomingFragment) -> Generator:
        """A replayed first fragment whose sequence was already consumed."""
        hdr = frag.header
        self.matching.duplicates_dropped += 1
        if self.tracer is not None:
            self.tracer.count("pml.duplicate_fragment")
        if self.matching.replace_unexpected(frag):
            # the original is still queued unmatched: the fresh copy (with
            # live transport state) replaces it, nothing else to do
            return
        req = self._active_rndv.get((hdr.ctx_id, hdr.src_rank, hdr.seq))
        yield from frag.ptl.matched_duplicate(thread, frag, req)

    def deliver_matched(self, thread, frag: IncomingFragment, req: RecvRequest) -> Generator:
        """Run the receive side of a matched first fragment."""
        hdr = frag.header
        obs_t0 = 0.0
        if self.obs is not None:
            obs_t0 = self.sim.now
            if req.obs_tid is None:
                # adopt the sender-assigned trace id so the receive side of
                # the flight lands on the same record
                req.obs_tid = frag.obs_tid
        req.mark_matched(hdr.src_rank, hdr.tag, hdr.msg_len)
        yield from self.datatype.request_init(thread)  # receive convertor
        inline = min(hdr.frag_len, req.nbytes)
        if inline > 0:
            t0 = self.sim.now
            yield from self.datatype.unpack(thread, req.buffer, frag.data, inline)
            # data movement is transport cost, not management cost: tell the
            # PTL so the §6.3 layer decomposition attributes it correctly
            note = getattr(frag.ptl, "note_copy_time", None)
            if note is not None:
                note(self.sim.now - t0)
        if self.obs is not None:
            self.obs.flight_span(
                req.obs_tid,
                "pml",
                "match+deliver",
                obs_t0,
                node=self.process.node.node_id,
            )
        if hdr.type == HDR_MATCH:
            # the inline payload is the whole message (0 bytes completes too)
            self.recv_progress(req, inline)
        elif hdr.type == HDR_RNDV:
            if inline > 0:
                self.recv_progress(req, inline)
            if not req.completed:
                # remember the open rendezvous: if the rail dies mid-pull the
                # sender re-sends this fragment and we re-run the protocol
                key = (hdr.ctx_id, hdr.src_rank, hdr.seq)
                self._active_rndv[key] = req
                req.rndv_key = key
            yield from frag.ptl.matched(thread, req, frag)
        else:  # pragma: no cover - PTLs only hand up MATCH/RNDV
            raise PmlError(f"unmatchable fragment type {hdr.type_name}")

    def send_progress(self, req: SendRequest, nbytes: int) -> None:
        """ptl_send_progress: sender-side bytes are on their way/acked."""
        if req.completed:
            return  # poisoned by peer death/revoke; drop late transport progress
        if req.add_progress(nbytes):
            self.completions += 1
            if self.obs is not None:
                self.obs.flight_instant(
                    req.obs_tid,
                    "pml",
                    "send_complete",
                    node=self.process.node.node_id,
                )
            self.retire(req)

    def recv_progress(self, req: RecvRequest, nbytes: int) -> None:
        """ptl_recv_progress: receiver-side bytes have landed."""
        if req.completed:
            return  # poisoned by peer death/revoke; drop late transport progress
        if req.add_progress(nbytes):
            self.completions += 1
            if self.obs is not None:
                # the flight ends when the receiver's request completes
                self.obs.flight_complete(req.obs_tid)
            self.retire(req)

    # -- peer restart support --------------------------------------------------
    def reset_peer(self, rank: int) -> None:
        """Reset per-peer protocol state after the peer restarted: our send
        sequences toward it start over (its fresh matching engine expects
        seq 0) and its old incarnation's receive-ordering state is dropped."""
        for key in [k for k in self._send_seq if k[1] == rank]:
            del self._send_seq[key]
        self.matching.reset_peer(rank)
        # a restarted incarnation is reachable again
        self.dead_peers.pop(rank, None)

    # -- failover (§3: scheduling around a degraded interconnect) ---------------
    def peer_failed(self, module: "PtlModule", rank: int, error: BaseException) -> None:
        """A module's reliability layer presumes ``rank`` dead on its path.
        Move the peer's in-flight traffic to a surviving PTL; with none
        left, fail exactly that peer's requests."""
        module.mark_peer_dead(rank)
        if self.tracer is not None:
            self.tracer.count("pml.peer_report")
        if self.obs is not None:
            self.obs.count("faults", "pml.peer_report")
            self.obs.instant(
                "faults",
                "peer_report",
                node=self.process.node.node_id,
                rank=rank,
            )
        self._reschedule_failed(module, error, [rank])

    def rail_failed(self, module: "PtlModule", error: BaseException) -> None:
        """An entire rail is diagnosed dead (fabric power loss, NIC death):
        stop scheduling onto it and fail over everything it carried."""
        if not module.healthy:
            return
        module.healthy = False
        if self.tracer is not None:
            self.tracer.count("pml.rail_down")
        if self.obs is not None:
            self.obs.count("faults", "pml.rail_down")
            self.obs.instant(
                "faults", "rail_down", node=self.process.node.node_id
            )
        peers = list(getattr(module, "peers", {}) or [])
        self._reschedule_failed(module, error, peers)

    def _reschedule_failed(self, module, error, ranks) -> None:
        plan = []
        for rank in ranks:
            takeover = getattr(module, "takeover_payloads", None)
            payloads, skipped = takeover(rank) if takeover is not None else ([], 0)
            reqs = [
                r
                for r in self.requests.values()
                if isinstance(r, SendRequest)
                and r.dst_rank == rank
                and not r.completed
                and r.ptl_module is module
            ]
            try:
                survivor = self.module_for(rank)
            except PmlError:
                survivor = None
            if survivor is None:
                self.dead_peers[rank] = error
                if self.tracer is not None:
                    self.tracer.count("pml.peer_dead")
                    self.tracer.count("pml.failover_dropped_payloads", len(payloads))
                self._fail_peer_requests(rank, error)
                # fast local evidence for the failure detector: our whole
                # retransmission budget died against this peer
                ft = getattr(self.process.job, "ft", None)
                if ft is not None:
                    ft.evidence(self.process.rank, rank, error)
                continue
            if payloads or skipped or reqs:
                self.failovers += 1
                if self.tracer is not None:
                    self.tracer.count("pml.failover")
                if self.obs is not None:
                    self.obs.count("faults", "pml.failover")
            plan.append((survivor, rank, payloads, reqs))
        if any(payloads or reqs for _, _, payloads, reqs in plan):
            self.process.node.spawn_thread(
                lambda t: self._failover_body(t, plan), name="pml-failover"
            )

    def _failover_body(self, thread, plan) -> Generator:
        for survivor, rank, payloads, reqs in plan:
            # 1) replay self-contained fragments owed by the dead channel,
            #    in sequence order, so the peer's matching engine heals
            for payload in payloads:
                try:
                    yield from survivor.resend_payload(thread, rank, payload)
                except PtlError:
                    # transport cannot carry foreign fragments (e.g. TCP as
                    # the only survivor of an Elan4 rail): accounted loss
                    if self.tracer is not None:
                        self.tracer.count("pml.failover_dropped_payloads")
            # 2) re-run the first-fragment protocol for open send requests
            #    (rendezvous state is rail-local: start them over)
            for req in reqs:
                if req.completed:
                    continue
                req.transport.clear()
                req.ptl_module = survivor
                try:
                    yield from survivor.send_first(thread, req)
                except BaseException as e:  # noqa: BLE001 - fail, don't wedge
                    if not req.completed:
                        req.fail(e)
                        self.completions += 1
                        self.retire(req)

    def _fail_peer_requests(self, rank: int, error: BaseException) -> None:
        """Scope a peer death to the requests that actually involve it."""
        for req in list(self.requests.values()):
            if req.completed:
                continue
            if isinstance(req, SendRequest):
                involved = req.dst_rank == rank
            elif isinstance(req, RecvRequest):
                # wildcard receives can still be satisfied by survivors
                involved = req.src_rank == rank
            else:
                involved = False
            if involved:
                if self.obs is not None:
                    self.obs.flight_abandon(req.obs_tid, f"rank {rank} dead")
                req.fail(error)
                self.completions += 1
                self.retire(req)

    # -- detector-driven poisoning (repro.ft) -----------------------------------
    def poison_peer(self, rank: int, error: BaseException) -> None:
        """The failure detector declared ``rank`` dead: mark it dead on
        every module, harvest-and-drop its reliability state (so finalize
        cannot spin on unacked retransmissions toward a corpse), and fail
        exactly the requests that involve it.  Idempotent; disjoint
        traffic is untouched."""
        if rank in self.dead_peers:
            return
        self.dead_peers[rank] = error
        for m in self.modules:
            takeover = getattr(m, "takeover_payloads", None)
            if takeover is not None:
                takeover(rank)  # the peer is gone for good: drop, don't replay
            m.mark_peer_dead(rank)
        if self.tracer is not None:
            self.tracer.count("pml.peer_poisoned")
        if self.obs is not None:
            self.obs.count("faults", "pml.peer_poisoned")
            self.obs.instant(
                "faults",
                "peer_poisoned",
                node=self.process.node.node_id,
                rank=rank,
            )
        self._fail_peer_requests(rank, error)

    def poison_ctx(self, ctx_id: int, error: BaseException) -> None:
        """Communicator revoke: fail every pending request on ``ctx_id``
        and refuse new ones.  Traffic on other contexts is untouched."""
        if ctx_id in self.revoked_ctxs:
            return
        self.revoked_ctxs[ctx_id] = error
        if self.tracer is not None:
            self.tracer.count("pml.ctx_revoked")
        for req in list(self.requests.values()):
            if req.completed or req.ctx_id != ctx_id:
                continue
            if self.obs is not None:
                self.obs.flight_abandon(req.obs_tid, "revoked")
            req.fail(error)
            self.completions += 1
            self.retire(req)

    # -- progress drivers --------------------------------------------------------
    def progress_once(self, thread) -> Generator:
        """Drive every module once; returns the number of events handled."""
        handled = 0
        for m in self.modules:
            handled += yield from m.progress(thread)
        return handled

    def wait(self, thread, req: Request) -> Generator:
        """Block (by the configured mode) until ``req`` completes."""
        if req.completed:
            if req.error is not None:
                raise req.error
            return req
        if self.progress_mode == "polling":
            yield from self._spin_wait(thread, req)
        elif self.progress_mode == "interrupt":
            yield from self.modules[0].block_wait(thread, req)
        else:  # threaded: progress threads complete the request
            yield from thread.wait_sim_event(req.completion_event())
        if req.error is not None:
            raise req.error
        return req

    def wait_all(self, thread, reqs: List[Request]) -> Generator:
        for req in reqs:
            yield from self.wait(thread, req)
        return reqs

    def wait_any(self, thread, reqs: List[Request]) -> Generator:
        """Block until at least one request completes; returns its index."""
        if not reqs:
            raise PmlError("wait_any on an empty request list")
        while True:
            for i, req in enumerate(reqs):
                if req.completed:
                    if req.error is not None:
                        raise req.error
                    return i
            if self.progress_mode == "polling":
                handled = yield from self.progress_once(thread)
                if handled:
                    continue
                signals = [m.wait_signal() for m in self.modules]
                signals.extend(r.completion_event() for r in reqs)
                yield AnyOf(self.sim, signals)
                yield from thread.compute(self.config.poll_check_us)
            else:
                yield from thread.wait_sim_event(
                    AnyOf(self.sim, [r.completion_event() for r in reqs])
                )

    def iprobe(self, thread, src_rank: int, tag: int, ctx_id: int) -> Generator:
        """Non-blocking probe: progress once, then peek the unexpected
        queue.  Returns the matching fragment header or None."""
        yield from self.progress_once(thread)
        frag = self.matching.peek(ctx_id, src_rank, tag)
        return None if frag is None else frag.header

    def probe(self, thread, src_rank: int, tag: int, ctx_id: int) -> Generator:
        """Blocking probe (drives progress until a match is queued)."""
        while True:
            hdr = yield from self.iprobe(thread, src_rank, tag, ctx_id)
            if hdr is not None:
                return hdr
            signals = [m.wait_signal() for m in self.modules]
            yield AnyOf(self.sim, signals)
            yield from thread.compute(self.config.poll_check_us)

    def _spin_wait(self, thread, req: Request) -> Generator:
        guard = 0
        last_now = -1.0
        while not req.completed:
            handled = yield from self.progress_once(thread)
            if req.completed:
                break
            if handled == 0:
                signals = [m.wait_signal() for m in self.modules]
                signals.append(req.completion_event())
                # spinning: the CPU is *held* while we wait — this is what
                # polling progress means, and why it starves co-located
                # threads (the Table 1 trade-off).
                yield AnyOf(self.sim, signals)
                yield from thread.compute(self.config.poll_check_us)
            # liveness guard: simulated spinning must advance the clock
            if self.sim.now == last_now:
                guard += 1
                if guard > _SPIN_GUARD:
                    raise PmlError(f"spin-wait livelock on {req!r}")
            else:
                guard, last_now = 0, self.sim.now

    # -- drain/finalize ------------------------------------------------------------
    def pending_requests(self) -> int:
        return sum(0 if r.completed else 1 for r in self.requests.values())

    def finalize(self, thread) -> Generator:
        """Complete all outstanding requests, stop progress threads."""
        for req in list(self.requests.values()):
            if not req.completed:
                yield from self.wait(thread, req)
        if self.progress_driver is not None:
            yield from self.progress_driver.stop(thread)
