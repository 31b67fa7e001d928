"""The multi-tenant job scheduler and fleet harness.

:class:`JobScheduler` runs *inside* the discrete-event simulation: job
arrivals are simulator callbacks, dispatch decisions happen at event
granularity, and each started job is a full :class:`~repro.rte.environment.RteJob`
gang-launched on a :class:`~repro.cluster.ClusterLease` of the shared
cluster.  Co-resident tenants therefore contend for real simulated
switches, links, and NICs — interference in the step latencies is the
fabric model, not a fudge factor.

Scheduling model:

* one FIFO submit queue; placement via a pluggable policy
  (:mod:`repro.sched.placement`) over per-node rank slots;
* **backfill**: when the head job does not fit, later jobs that do fit
  may start ahead of it (classic EASY-style backfill without
  reservations — the head keeps queue priority and starts as soon as
  slots free up);
* gang start: all of a job's ranks launch in the same simulator event,
  through the normal RTE startup (seed daemon, register/sync, MPI
  wire-up), one seed daemon per tenant on a distinct port of the shared
  IP network;
* completion: each rank's app coroutine is wrapped so the scheduler
  observes its exit; when the last rank exits, the job's slots are
  released and dispatch re-runs.

Everything is seeded: arrivals come from :func:`synthetic_fleet`'s own
generator, the ``random`` placement policy draws from the scheduler's
generator, and the simulation underneath is deterministic — so a fleet
run is bit-identical across same-seed repeats (the differential test
pins this).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import Cluster, ClusterLease
from repro.faults import FaultInjector, FaultPlan
from repro.rte.environment import RteJob
from repro.sched.placement import PlacementPolicy, make_policy
from repro.sched.slo import TenantStats, fleet_table
from repro.sched.spec import JobSpec, make_app
from repro.tcpip.stack import IpNetwork

__all__ = ["JobRun", "JobScheduler", "FleetResult", "FleetRun", "synthetic_fleet"]

#: first seed-daemon port; tenant i uses BASE_TENANT_PORT + i
BASE_TENANT_PORT = 6000

QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


class JobRun:
    """One tenant's lifecycle record inside the scheduler."""

    def __init__(self, spec: JobSpec, index: int, stats: TenantStats):
        self.spec = spec
        #: submission order — also the tenant's seed-port offset
        self.index = index
        self.stats = stats
        self.state = QUEUED
        #: node id (global) per rank, fixed at start
        self.placement: List[int] = []
        #: started while an earlier submit was still waiting for slots
        self.backfilled = False
        self.job: Optional[RteJob] = None
        self.lease: Optional[ClusterLease] = None
        self.results: Dict[int, Any] = {}
        self._ranks_left = spec.np
        #: shared-fabric counters at start (see ``_net_snapshot``)
        self._net_mark: Optional[Dict[str, float]] = None

    def describe(self) -> str:
        return f"{self.spec.describe()} state={self.state}"


class JobScheduler:
    """FIFO + backfill scheduler over one shared :class:`Cluster`."""

    def __init__(
        self,
        cluster: Cluster,
        policy: str = "packed",
        slots_per_node: int = 1,
        backfill: bool = True,
        seed: int = 0,
        stack_factory: Optional[Callable] = None,
        transports: Tuple[str, ...] = ("elan4",),
    ):
        self.cluster = cluster
        self.policy: PlacementPolicy = make_policy(policy)
        self.slots_per_node = slots_per_node
        self.backfill = backfill
        self.stack_factory = stack_factory
        self.transports = transports
        self.rng = np.random.default_rng(seed)
        #: all tenants share one IP fabric (one machine room, one LAN)
        self.net = IpNetwork(cluster.sim, cluster.config)
        self._free: Dict[int, int] = {
            node.node_id: slots_per_node for node in cluster.nodes
        }
        self.runs: List[JobRun] = []
        self.queue: List[JobRun] = []
        self.running: List[JobRun] = []
        # counters (surface in FleetResult and the obs ``sched`` scope)
        self.started = 0
        self.completed = 0
        self.failed = 0
        self.backfills = 0
        self.max_concurrent = 0

    # -- submission ---------------------------------------------------------
    def submit(self, spec: JobSpec, at_us: float = 0.0) -> JobRun:
        """Register ``spec`` to arrive at simulated time ``at_us``."""
        total_slots = self.slots_per_node * self.cluster.n_nodes
        if spec.np > total_slots:
            raise ValueError(
                f"{spec.describe()} needs {spec.np} slots but the cluster "
                f"has {total_slots}"
            )
        stats = TenantStats(
            spec.name, slo_step_us=spec.slo_step_us, observer=self.cluster.observer
        )
        run = JobRun(spec, index=len(self.runs), stats=stats)
        self.runs.append(run)
        self.cluster.sim.schedule(max(0.0, at_us), self._arrive, run)
        return run

    def _arrive(self, run: JobRun) -> None:
        run.stats.submit_us = self.cluster.sim.now
        self.queue.append(run)
        obs = self.cluster.observer
        if obs is not None:
            obs.count("sched", "jobs_submitted")
            obs.instant("sched", "job_submit", tenant=run.spec.name, np=run.spec.np)
        self._dispatch()

    # -- dispatch -----------------------------------------------------------
    def _free_map(self) -> List[Tuple[int, int]]:
        return [(nid, self._free[nid]) for nid in sorted(self._free)]

    def _try_place(self, run: JobRun) -> Optional[List[int]]:
        return self.policy.place(run.spec.np, self._free_map(), self.rng)

    def _dispatch(self) -> None:
        while self.queue:
            head = self.queue[0]
            placement = self._try_place(head)
            if placement is not None:
                self.queue.pop(0)
                self._start(head, placement, backfilled=False)
                continue
            if not self.backfill:
                return
            # head blocked: scan the rest of the queue for a job that fits
            started_one = False
            for i in range(1, len(self.queue)):
                cand = self.queue[i]
                placement = self._try_place(cand)
                if placement is not None:
                    self.queue.pop(i)
                    self._start(cand, placement, backfilled=True)
                    started_one = True
                    break
            if not started_one:
                return

    def _start(self, run: JobRun, placement: List[int], backfilled: bool) -> None:
        spec = run.spec
        for nid in placement:
            self._free[nid] -= 1
        assert all(v >= 0 for v in self._free.values())
        # lease order: first-placed node hosts the seed daemon
        lease_nodes = sorted(set(placement))
        run.lease = self.cluster.sublease(lease_nodes)
        run.placement = list(placement)
        run.backfilled = backfilled
        run.state = RUNNING
        run.stats.start_us = self.cluster.sim.now
        run._net_mark = self._net_snapshot()
        job = RteJob(
            run.lease,
            stack_factory=self.stack_factory,
            net=self.net,
            seed_port=BASE_TENANT_PORT + run.index,
        )
        run.job = job
        app = make_app(spec, on_step=run.stats.note_step)
        local_of = {nid: i for i, nid in enumerate(lease_nodes)}
        for rank in range(spec.np):
            job.launch(
                rank,
                self._wrap(run, rank, app),
                node_id=local_of[placement[rank]],
                group="world",
                group_count=spec.np,
                transports=self.transports,
            )
        self.started += 1
        if backfilled:
            self.backfills += 1
        self.running.append(run)
        self.max_concurrent = max(self.max_concurrent, len(self.running))
        obs = self.cluster.observer
        if obs is not None:
            obs.count("sched", "jobs_started")
            if backfilled:
                obs.count("sched", "backfills")
            obs.gauge("sched", "running_jobs", len(self.running))
            obs.sample("sched", "queue_wait_us", run.stats.queue_wait_us)
            obs.instant(
                "sched",
                "job_start",
                tenant=spec.name,
                nodes=lease_nodes,
                backfilled=backfilled,
            )

    # -- completion ---------------------------------------------------------
    def _wrap(self, run: JobRun, rank: int, app: Callable) -> Callable:
        """Wrap the rank coroutine so the scheduler sees its exit (normal
        return or failure) and can release the slots."""

        def supervised(mpi: Any) -> Generator[Any, Any, Any]:
            try:
                result = yield from app(mpi)
                run.results[rank] = result
                return result
            except BaseException:
                run.stats.failed = True
                raise
            finally:
                self._rank_exited(run)

        return supervised

    def _rank_exited(self, run: JobRun) -> None:
        run._ranks_left -= 1
        if run._ranks_left == 0:
            self._finish(run)

    def _net_snapshot(self) -> Dict[str, float]:
        """Cluster-wide per-backend traffic counters, read cheaply at job
        boundaries.  Deltas between a tenant's start and end mark what the
        *shared* fabrics moved during its run — co-resident tenants overlap
        by construction, which is exactly the contention signal the fleet
        dashboards want."""
        snap = {
            "elan4_bytes": 0.0, "elan4_packets": 0.0,
            "ib_bytes": 0.0, "ib_packets": 0.0, "ib_pauses": 0.0,
        }
        for fabric in self.cluster.rail_fabrics:
            snap["elan4_bytes"] += fabric.bytes_delivered
            snap["elan4_packets"] += fabric.packets_delivered
        for fabric in self.cluster.ib_fabrics:
            stats = fabric.stats()
            snap["ib_bytes"] += stats["bytes_tx"]
            snap["ib_packets"] += stats["packets_tx"]
            snap["ib_pauses"] += stats["pauses_sent"]
        return snap

    def _finish(self, run: JobRun) -> None:
        run.state = FAILED if run.stats.failed else DONE
        run.stats.end_us = self.cluster.sim.now
        for nid in run.placement:
            self._free[nid] += 1
        self.running.remove(run)
        if run.stats.failed:
            self.failed += 1
        else:
            self.completed += 1
        obs = self.cluster.observer
        if obs is not None:
            obs.count("sched", "jobs_failed" if run.stats.failed else "jobs_completed")
            obs.gauge("sched", "running_jobs", len(self.running))
            obs.sample("sched", "makespan_us", run.stats.makespan_us)
            net = {}
            mark = run._net_mark
            if mark is not None:
                now_snap = self._net_snapshot()
                net = {k: now_snap[k] - mark[k] for k in mark}
                for key, delta in net.items():
                    if delta:
                        obs.count("sched", f"net.{key}", int(delta))
            obs.instant(
                "sched", "job_end", tenant=run.spec.name, state=run.state, **net
            )
        # slots freed — give the queue a fresh look (own event: keep the
        # app's final coroutine step and the dispatch decision ordered)
        self.cluster.sim.schedule(0.0, self._dispatch)

    # -- results ------------------------------------------------------------
    def unfinished(self) -> List[JobRun]:
        return [r for r in self.runs if r.state in (QUEUED, RUNNING)]

    def counters(self) -> Dict[str, int]:
        return {
            "backfills": self.backfills,
            "completed": self.completed,
            "failed": self.failed,
            "max_concurrent": self.max_concurrent,
            "started": self.started,
            "submitted": len(self.runs),
        }


def synthetic_fleet(
    seed: int,
    n_jobs: int,
    mean_interarrival_us: float = 150.0,
    families: Sequence[str] = ("train", "shuffle", "stencil", "sort"),
    weights: Optional[Sequence[float]] = None,
    np_choices: Sequence[int] = (2, 4, 8),
    steps_range: Tuple[int, int] = (4, 10),
    slo_step_us: float = 0.0,
) -> List[Tuple[float, JobSpec]]:
    """Seeded synthetic workload: ``n_jobs`` specs with exponential
    interarrival times and a weighted family mix.  Returns
    ``[(arrival_us, spec), ...]`` in arrival order — pure data, so the
    same seed always yields the identical fleet."""
    rng = np.random.default_rng(seed)
    w = np.asarray(
        [1.0] * len(families) if weights is None else list(weights), dtype=float
    )
    w = w / w.sum()
    out: List[Tuple[float, JobSpec]] = []
    t = 0.0
    for i in range(n_jobs):
        t += float(rng.exponential(mean_interarrival_us))
        family = str(families[int(rng.choice(len(families), p=w))])
        n_ranks = int(np_choices[int(rng.integers(0, len(np_choices)))])
        steps = int(rng.integers(steps_range[0], steps_range[1] + 1))
        spec = JobSpec(
            name=f"{family}-{i}",
            family=family,
            np=n_ranks,
            steps=steps,
            slo_step_us=slo_step_us,
        )
        out.append((round(t, 3), spec))
    return out


class FleetResult:
    """Everything a fleet run produced, JSON-able and deterministic."""

    def __init__(
        self,
        scheduler: JobScheduler,
        t_end_us: float,
        fault_notes: Optional[List[str]] = None,
    ):
        self.scheduler = scheduler
        self.t_end_us = t_end_us
        self.fault_notes = fault_notes or []
        self.tenants: List[TenantStats] = [r.stats for r in scheduler.runs]

    def tenant(self, name: str) -> TenantStats:
        for s in self.tenants:
            if s.name == name:
                return s
        raise KeyError(name)

    def table(self) -> str:
        return fleet_table(self.tenants)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": self.scheduler.counters(),
            "fault_notes": list(self.fault_notes),
            "t_end_us": round(self.t_end_us, 6),
            "tenants": [s.as_dict() for s in self.tenants],
        }


class FleetRun:
    """One end-to-end fleet scenario: arrivals + optional fault campaign
    on one shared cluster, run to quiescence."""

    def __init__(
        self,
        cluster: Cluster,
        arrivals: Sequence[Tuple[float, JobSpec]],
        policy: str = "packed",
        slots_per_node: int = 1,
        backfill: bool = True,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        stack_factory: Optional[Callable] = None,
        transports: Tuple[str, ...] = ("elan4",),
    ):
        self.cluster = cluster
        self.arrivals = list(arrivals)
        self.fault_plan = fault_plan
        self.scheduler = JobScheduler(
            cluster,
            policy=policy,
            slots_per_node=slots_per_node,
            backfill=backfill,
            seed=seed,
            stack_factory=stack_factory,
            transports=transports,
        )

    def run(self, until: Optional[float] = None) -> FleetResult:
        injector: Optional[FaultInjector] = None
        if self.fault_plan is not None:
            injector = FaultInjector(self.cluster, self.fault_plan)
            injector.arm()
        for at_us, spec in self.arrivals:
            self.scheduler.submit(spec, at_us=at_us)
        t_end = self.cluster.sim.run(until=until)
        left = self.scheduler.unfinished()
        if left:
            raise RuntimeError(
                "fleet did not quiesce: "
                + ", ".join(r.describe() for r in left)
                + f" (t={t_end:.1f} µs)"
            )
        for run in self.scheduler.runs:
            if run.stats.failed:
                assert run.job is not None
                for proc in run.job.processes.values():
                    if proc.failure is not None and not proc.killed:
                        raise proc.failure
        notes = None
        if injector is not None:
            notes = [
                f"t={t:.1f} {kind}: {text}" for t, kind, text in injector.trace
            ]
        return FleetResult(self.scheduler, t_end, fault_notes=notes)
