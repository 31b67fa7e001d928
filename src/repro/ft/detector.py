"""The per-job failure detector daemon.

One :class:`FtDaemon` per job (opt-in via :func:`enable`).  Detection uses
two deterministic signal paths:

* **Heartbeats** — every monitored rank runs a daemon heartbeat thread
  that sends one-way ``{"op": "hb"}`` frames over the RTE OOB network to
  the daemon's port on node 0, with seeded jittered spacing.  A periodic
  sweep declares a rank dead once its heartbeats have been silent for
  ``heartbeat_timeout_us`` *and* its process has actually exited
  uncooperatively.  The exit check makes the detector **starvation-safe**:
  the CPU model is non-preemptive, so a polling main thread can starve
  its own heartbeat thread — such a rank is only *suspected*, never
  declared, eliminating false positives by construction.
* **PML evidence** — when a survivor's reliability channel exhausts its
  retransmission budget against a peer, the PML forwards that evidence
  here, which can declare the death well before the heartbeat timeout.

Declaration is a single global transition (this is a simulation; the
daemon plays the role of a converged gossip round): the membership epoch
bumps, every survivor's PML is poisoned against the dead rank with a
staggered per-hop delay, every known communicator state aborts its
blocked collectives, and — after ``reclaim_delay_us``, long enough for
in-flight one-sided RDMA against the dead-but-NIC-alive node to land —
the dead rank's NIC contexts are uncooperatively reclaimed (§4.1: the
VPID retires forever; stale use raises ``CapabilityError``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Set

from repro.ft.agreement import FtCommState
from repro.ft.errors import RankDeadError
from repro.ft.membership import MembershipView
from repro.rte.oob import OobChannel, OobServer
from repro.tcpip.socket import TcpSocket

if TYPE_CHECKING:  # pragma: no cover
    from repro.rte.environment import RteJob, RteProcess

__all__ = ["FT_PORT", "FtConfig", "FtDaemon", "enable"]

FT_PORT = 5560


@dataclass(frozen=True)
class FtConfig:
    """Tunables for detection, propagation, and recovery."""

    #: nominal spacing between heartbeats (jittered per rank)
    heartbeat_period_us: float = 500.0
    #: silence after which an exited rank is declared dead
    heartbeat_timeout_us: float = 2500.0
    #: detector sweep granularity
    sweep_period_us: float = 250.0
    #: per-survivor stagger when propagating a death notification
    notify_hop_us: float = 1.0
    #: delay before uncooperative NIC-context reclaim: in-flight one-sided
    #: RDMA against the dead rank's (still-alive) NIC must land first
    reclaim_delay_us: float = 1000.0
    #: per-member stagger when propagating a communicator revoke
    revoke_hop_us: float = 1.0
    #: local bookkeeping cost of one agreement contribution
    agree_local_us: float = 0.5
    #: per-tree-hop cost of the log-time agreement combine
    agree_hop_us: float = 1.0
    #: recovery-driver respawn budget
    respawn_max_attempts: int = 3
    respawn_backoff_us: float = 200.0
    respawn_backoff_cap_us: float = 1600.0
    #: jitter fraction shared by heartbeats and respawn backoff
    jitter_frac: float = 0.25


class FtDaemon:
    """Failure detector + membership authority for one job."""

    def __init__(self, job: "RteJob", config: Optional[FtConfig] = None):
        self.job = job
        self.cluster = job.cluster
        self.sim = job.cluster.sim
        self.config = config or FtConfig()
        self.membership = MembershipView(self.sim)
        #: recovery driver, if one registered (repro.ft.recovery)
        self.driver: Optional[Any] = None
        self._monitored: Dict[int, "RteProcess"] = {}
        self._dead_procs: Dict[int, "RteProcess"] = {}
        self._last_hb: Dict[int, float] = {}
        self._kill_times: Dict[int, float] = {}
        self._suspected: Set[int] = set()
        self._reclaimed: Set[int] = set()
        self._comm_states: Dict[int, FtCommState] = {}
        self._sweep_armed = False
        self.server = OobServer(
            job.net, job.cluster.nodes[0], FT_PORT, self._handle, name="ftd"
        )

    # -- heartbeat intake ----------------------------------------------
    def _handle(self, thread: Any, channel: OobChannel) -> Generator[Any, Any, None]:
        while True:
            msg = yield from channel.recv_msg(thread)
            if msg is None:
                return
            if msg.get("op") == "hb":
                self._last_hb[int(msg["rank"])] = self.sim.now

    def attach_process(self, proc: "RteProcess") -> None:
        """Called from RTE startup once the rank registered with the seed:
        start monitoring it (and, if this rank was dead, it just rejoined —
        flip the membership back and close the recovery timeline)."""
        rank = proc.rank
        self._monitored[rank] = proc
        self._dead_procs.pop(rank, None)
        self._suspected.discard(rank)
        self._last_hb[rank] = self.sim.now
        rng = self.cluster.rng.stream(f"ft:hb:{rank}:{proc.epoch}")
        thread = proc.node.spawn_thread(
            lambda t: self._heartbeat_body(t, proc, rng),
            name=f"ft-hb:{rank}",
            daemon=True,
        )
        proc.aux_threads.append(thread)
        self._arm_sweep()
        if self.membership.is_dead(rank):
            rec = self.membership.mark_recovered(rank)
            if rec is not None:
                base = rec.kill_at_us if rec.kill_at_us is not None else rec.at_us
                mttr = self.sim.now - base
                tracer = self.cluster.tracer
                tracer.event("ft.rank_recovered", layer="ft",
                             node=proc.node.node_id, rank=rank)
                tracer.sample("ft.mttr_us", mttr)
            if self.driver is not None:
                self.driver.on_recovered(rank)

    def _heartbeat_body(
        self, thread: Any, proc: "RteProcess", rng: Any
    ) -> Generator[Any, Any, None]:
        period = self.config.heartbeat_period_us
        frac = self.config.jitter_frac
        sock = yield from TcpSocket.connect(
            self.job.net, thread, proc.node, 0, FT_PORT
        )
        channel = OobChannel(sock)
        try:
            while not proc.finished and self.job.processes.get(proc.rank) is proc:
                yield from channel.send_msg(
                    thread, {"op": "hb", "rank": proc.rank}
                )
                yield from thread.sleep(period * (1.0 + frac * float(rng.random())))
        finally:
            channel.close()

    # -- sweep ---------------------------------------------------------
    def _arm_sweep(self) -> None:
        if self._sweep_armed:
            return
        self._sweep_armed = True
        self.sim.schedule(self.config.sweep_period_us, self._sweep)

    def _sweep(self) -> None:
        self._sweep_armed = False
        now = self.sim.now
        for rank in sorted(self._monitored):
            proc = self._monitored[rank]
            if self.membership.is_dead(rank):
                continue
            silent = (
                now - self._last_hb.get(rank, now)
                >= self.config.heartbeat_timeout_us
            )
            if not silent:
                self._suspected.discard(rank)
                continue
            if proc.finished and (proc.killed or proc.failure is not None):
                self.declare_dead(rank, "heartbeat-timeout")
            else:
                # live but silent: a starved heartbeat thread must never
                # produce a false positive (non-preemptive CPU model)
                self._suspected.add(rank)
        if any(not p.finished for p in self.job.processes.values()):
            self._arm_sweep()

    @property
    def suspected(self) -> List[int]:
        return sorted(self._suspected)

    # -- evidence / ground truth ---------------------------------------
    def note_kill(self, rank: int, at_us: float) -> None:
        """Ground-truth kill time from the fault injector (drives the
        detection-latency and MTTR metrics)."""
        self._kill_times[rank] = at_us

    def evidence(self, reporter: int, rank: int, error: BaseException) -> None:
        """Fast local evidence from a survivor's PML (retransmission
        budget exhausted against ``rank``)."""
        if self.membership.is_dead(rank):
            return
        proc = self.job.processes.get(rank)
        if proc is not None and proc.finished and (
            proc.killed or proc.failure is not None
        ):
            self.declare_dead(rank, f"pml-evidence from rank {reporter}: {error}")
        else:
            self._suspected.add(rank)

    # -- declaration ---------------------------------------------------
    def declare_dead(self, rank: int, cause: str) -> None:
        if self.membership.is_dead(rank):
            return
        proc = self._monitored.pop(rank, None)
        if proc is None:
            proc = self.job.processes.get(rank)
        if proc is not None:
            self._dead_procs[rank] = proc
        self._suspected.discard(rank)
        kill_at = self._kill_times.get(rank)
        rec = self.membership.mark_dead(rank, cause, kill_at)
        now = self.sim.now
        latency = now - (kill_at if kill_at is not None else rec.at_us)
        node = proc.node.node_id if proc is not None else None
        tracer = self.cluster.tracer
        tracer.event("ft.rank_dead", layer="ft", node=node, rank=rank, cause=cause)
        tracer.sample("ft.detect_latency_us", latency)
        error = RankDeadError(rank, cause)
        survivors = [
            r
            for r, p in sorted(self.job.processes.items())
            if r != rank and not p.finished
        ]
        for i, r in enumerate(survivors):
            self.sim.schedule(
                self.config.notify_hop_us * (i + 1),
                self._poison_survivor,
                r,
                rank,
                error,
            )
        for ctx_id in sorted(self._comm_states):
            st = self._comm_states[ctx_id]
            if rank in st.ranks:
                st.fire_abort(error)
                st.recheck_agreements()
        self.sim.schedule(self.config.reclaim_delay_us, self._reclaim, rank)
        if self.driver is not None:
            self.driver.on_death(rank, rec)

    def _poison_survivor(
        self, survivor: int, dead_rank: int, error: RankDeadError
    ) -> None:
        proc = self.job.processes.get(survivor)
        if proc is None or proc.finished:
            return
        proc.stack.pml.poison_peer(dead_rank, error)

    # -- uncooperative resource reclaim (§4.1) --------------------------
    def _reclaim(self, rank: int) -> None:
        if rank in self._reclaimed or not self.membership.is_dead(rank):
            return
        proc = self._dead_procs.get(rank)
        if proc is not None:
            for m in proc.stack.pml.modules:
                m.reclaim()
        self._reclaimed.add(rank)
        rec = self.membership.record(rank)
        if rec is not None:
            rec.reclaimed = True
        self.cluster.tracer.count("ft.rank_reclaimed")
        obs = self.cluster.observer
        if obs is not None:
            obs.flight_abandon_involving(rank, f"rank {rank} dead")
        self._abandon_dead_spans(rank)
        if self.driver is not None:
            self.driver.on_reclaimed(rank)

    def _abandon_dead_spans(self, rank: int) -> None:
        """Drop the dead rank's open collective spans on the cluster
        tracer — the rank will never reach span_end, and the sanitizer's
        open-span probe must see revoked traffic as accounted-for."""
        tracer = self.cluster.tracer
        keys = []
        for key in tracer.open_spans():
            if not (isinstance(key, tuple) and len(key) == 4 and key[0] == "coll"):
                continue
            _, ctx_id, member, _seq = key
            st = self._comm_states.get(ctx_id)
            if st is not None:
                if 0 <= member < len(st.ranks) and st.ranks[member] == rank:
                    keys.append(key)
            elif member == rank:
                # world-style comms rank == member; without a registered
                # comm state that is the only safe mapping
                keys.append(key)
        for key in keys:
            tracer.abandon(key)

    def reclaimed(self, rank: int) -> bool:
        return rank in self._reclaimed

    # -- communicator state --------------------------------------------
    def comm_state(self, ctx_id: int, ranks: Any) -> FtCommState:
        """The (lazily created) per-communicator FT state for ``ctx_id``."""
        st = self._comm_states.get(ctx_id)
        if st is None:
            st = FtCommState(self, ctx_id, tuple(ranks))
            self._comm_states[ctx_id] = st
        return st


def enable(job: "RteJob", config: Optional[FtConfig] = None) -> FtDaemon:
    """Switch fault tolerance on for ``job`` (idempotent).  Must run
    before ranks launch so they are monitored from startup."""
    ft = job.ft
    if ft is None:
        ft = FtDaemon(job, config)
        job.ft = ft
        # the collective registry gates hw-offload decisions on membership
        # health but only sees the cluster, not the job
        job.cluster.ft = ft
    return ft
