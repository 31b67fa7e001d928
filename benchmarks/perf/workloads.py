"""The six ledger workloads, written against public ``repro.*`` APIs only.

Every workload is a closed loop (a rank issues its next operation when the
previous one completes), makes all of its inputs from the seed in
:func:`make_plan`, byte-checks what it receives, and reports through a
:class:`Recorder`.  Nothing here is shared with ``repro.bench`` or the
``benchmarks/bench_*.py`` files, so editing those cannot move the ledger.

Sizes are message-size *classes*: the paper-stated points (4 B, 4 KB, 1 MB)
are exact, every other class draws each message's size from the seed inside
a narrow band, so percentiles fall inside a class instead of on the cliff
between two and every seed reads slightly different modelled numbers.
"""

from __future__ import annotations

import hashlib
import struct
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from metrics import WORKLOADS
from repro.cluster import Cluster
from repro.core.ptl.elan4.module import Elan4PtlOptions
from repro.core.request import ANY_SOURCE
from repro.faults import FaultInjector, FaultPlan
from repro.ft import CommRevokedError, FtConfig, RankDeadError, RecoveryDriver
from repro.ib.options import IbOptions
from repro.mpi.world import make_mpi_stack_factory
from repro.rte.environment import RteJob
from repro.sched import FleetRun, JobSpec

#: paper-stated points the two validated workloads are checked against
PAPER = {
    "p2p_eager": {"lat_4B_us": 3.87},                      # Table 1, Basic
    "p2p_rndv": {"lat_4KB_us": 15.25, "bw_1MB_mbs": 880.0},  # Table 1, Fig. 10
}

WINDOW = 8
SLO_STEP_US = 1500.0
#: the victim dies this long after rank 0 leaves its first barrier: after
#: its first heartbeat has landed (~300 us in) and well before its second
#: (~800 us in), so the seed's jitter cannot flip which heartbeat was the last
KILL_AFTER_US = 550.0


# ------------------------------------------------------------------ recorder
class Recorder:
    """What one repetition measured: both clocks, operations, counters."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.host_s = 0.0
        self.makespan_us = 0.0
        self.op_us: List[float] = []
        self.ok = 0
        self.bytes_ok = 0
        self.events = 0
        self.ranks = 0
        self.mapped_bytes = 0
        self.clocks: List[float] = []
        #: named modelled points (paper references, recovery stages)
        self.points: Dict[str, float] = {}
        #: public model counters, summed over the repetition's clusters
        self.counters: Dict[str, float] = {}
        self.errors: List[str] = []
        #: the repetition's clusters and jobs, kept alive until the caller has
        #: read what it wants (a tracemalloc snapshot needs the live objects)
        self.keep: List[tuple] = []
        self._t0 = self._t1 = self._sim0 = self._sim1 = 0.0

    # -- host clock stamps ---------------------------------------------------
    def begin(self) -> None:
        """Just before ``Cluster(...)``."""
        self._t0 = time.perf_counter()

    def ready(self, sim_now: float) -> None:
        """Rank 0 left its first barrier: set-up ends, the measured phase
        starts on both clocks."""
        self._t1 = time.perf_counter()
        self.setup_s += self._t1 - self._t0
        self._sim0 = self._sim1 = sim_now

    def finish(self, sim_now: float) -> None:
        """A rank completed its last operation; the latest one closes the
        measured phase on the simulated clock (teardown is not modelled
        work the workload asked for)."""
        self._sim1 = max(self._sim1, sim_now)

    def end(self, cluster: Cluster, jobs: List[RteJob]) -> None:
        """``job.wait()`` returned."""
        self.host_s += time.perf_counter() - self._t1
        self.makespan_us += self._sim1 - self._sim0
        self.clocks.append(cluster.sim.now)
        self.events += cluster.sim.events_processed
        self.keep.append((cluster, jobs))
        for job in jobs:
            for proc in job.processes.values():
                self.ranks += 1
                self.mapped_bytes += proc.space.allocated_bytes
        self._harvest(cluster)

    # -- operations ----------------------------------------------------------
    def op(self, latency_us: float, ok: bool, nbytes: int = 0) -> None:
        self.op_us.append(latency_us)
        if ok:
            self.ok += 1
            self.bytes_ok += nbytes

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _harvest(self, cluster: Cluster) -> None:
        for fabric in cluster.rail_fabrics:
            self._add("elan4.packets", fabric.packets_delivered)
            self._add("elan4.packets_lost", fabric.packets_lost)
            self._add("elan4.hop_transits", fabric.hop_transits)
        for topology in cluster.rail_topologies:
            self._add("elan4.reroutes", topology.reroutes)
        for nics in cluster.rail_nics:
            for nic in nics:
                self._add("elan4.qdma_sends", nic.qdma.sends)
                self._add("elan4.rdma_reads", nic.rdma.reads_issued)
                self._add("elan4.rdma_writes", nic.rdma.writes_issued)
        for fabric in cluster.ib_fabrics:
            stats = fabric.stats()
            self._add("ib.pkts", stats["packets_tx"])
            self._add("ib.drops", stats["drops"])
            self._add("ib.ecn_marks", stats["ecn_marks"])
            self._add("ib.pauses_sent", stats["pauses_sent"])
            self.counters["ib.max_queue_depth"] = max(
                self.counters.get("ib.max_queue_depth", 0), stats["max_queue_depth"]
            )
        for nics in cluster.ib_nics:
            for nic in nics:
                self._add("ib.retransmits", nic.stats()["retransmits"])
        for node in cluster.nodes:
            self._add("hw.cpu_busy_us", node.scheduler.stats()["busy_time_us"])
        # every NIC sits on a PCI bus of its own
        for nics in cluster.rail_nics + cluster.ib_nics:
            for nic in nics:
                self._add("hw.pci_mb", nic.pci.stats()["bytes_moved"] / 1e6)

    # -- the modelled series, hashed -----------------------------------------
    def digest(self) -> str:
        """sha256 over every modelled series of the repetition."""
        h = hashlib.sha256()
        h.update(struct.pack(f"<{len(self.op_us)}d", *self.op_us))
        h.update(struct.pack(f"<{len(self.clocks)}d", *self.clocks))
        h.update(struct.pack("<dqq", self.makespan_us, self.ok, self.bytes_ok))
        for key in sorted(self.points):
            h.update(key.encode() + struct.pack("<d", self.points[key]))
        return h.hexdigest()


# --------------------------------------------------------------------- plans
class Plan:
    """A workload's generated inputs: everything the program is given."""

    def __init__(self, name: str, seed: int, scale: float):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        #: payload source: every message is a slice of these seeded bytes
        self.base = self.rng.integers(0, 256, (1 << 20) + 8192, dtype=np.uint8)
        #: recorded in the result file; ``--compare`` refuses runs that differ
        self.sizes: Dict[str, Any] = {}
        self.expected_ops = 0

    @property
    def small(self) -> bool:
        """The smoke scale: tiny counts *and* few ranks."""
        return self.scale < 0.1

    def count(self, n: int, floor: int = 2) -> int:
        return max(floor, int(round(n * self.scale)))

    def band(self, n: int, lo: int, hi: int, step: int = 1) -> np.ndarray:
        """``n`` message sizes drawn from [lo, hi] in multiples of ``step``."""
        return self.rng.integers(lo // step, hi // step + 1, n) * step

    def payload(self, index: int, nbytes: int) -> np.ndarray:
        """The bytes message ``index`` must carry (a view, never copied)."""
        off = (index * 61) % 8192
        return self.base[off:off + nbytes]


def make_plan(name: str, seed: int, scale: float = 1.0) -> Plan:
    plan = Plan(name, seed, scale)
    REGISTRY[name][0](plan)
    return plan


def _plan_p2p_eager(p: Plan) -> None:
    # each seeded band moves a byte or two with the seed, so the size a
    # percentile lands on differs between seeds; the unequal counts put p50
    # inside the 64 B band and p95 inside the 1984 B band
    shift = int(p.rng.integers(-2, 3))
    classes = [
        ("4B", p.count(1700), (4, 4)),
        ("64B", p.count(2200), (48 + shift, 80 + shift)),
        ("512B", p.count(1500), (448 + shift, 576 + shift)),
        ("1984B", p.count(1400), (1792 + shift, 1984)),
    ]
    p.round_trips = [(label, p.band(n, lo, hi)) for label, n, (lo, hi) in classes]
    p.sizes = {label: {"round_trips": n, "bytes": [lo, hi]}
               for label, n, (lo, hi) in classes}
    p.expected_ops = 2 * sum(n for _, n, _ in classes)


def _plan_p2p_rndv(p: Plan) -> None:
    pp = [("4KB", p.count(200), (4096, 4096)),
          ("16KB", p.count(200), (12288, 20480))]
    st = [("64KB", p.count(320, WINDOW), (49152, 81920)),
          ("256KB", p.count(120, WINDOW), (196608, 327680)),
          ("1MB", p.count(104, WINDOW), ((1 << 20) - 8192, 1 << 20))]
    p.round_trips = [(label, p.band(n, lo, hi, 64)) for label, n, (lo, hi) in pp]
    p.streams = [(label, p.band(n, lo, hi, 64)) for label, n, (lo, hi) in st]
    p.sizes = {label: {"round_trips": n, "bytes": [lo, hi]} for label, n, (lo, hi) in pp}
    p.sizes.update({label: {"messages": n, "bytes": [lo, hi], "window": WINDOW}
                    for label, n, (lo, hi) in st})
    p.expected_ops = 2 * sum(n for _, n, _ in pp) + sum(n for _, n, _ in st)


def _plan_coll_wide(p: Plan) -> None:
    p.ranks = 8 if p.small else 128
    p.rounds = p.count(6)
    _plan_collective_rounds(p)


def _plan_collective_rounds(p: Plan) -> None:
    # seeded arrival skew: each rank computes 0-4 us before each collective
    p.skew_us = p.rng.uniform(0.0, 4.0, (p.rounds, 3, p.ranks))
    p.vectors = p.rng.integers(0, 1 << 20, (p.rounds, p.ranks, 32), dtype=np.int64)
    p.sums = p.vectors.sum(axis=1)
    p.bcast_bytes = [int(n) for n in p.band(p.rounds, 8192 - 256, 8192 + 256, 8)]
    p.sizes = {"ranks": p.ranks, "rounds": p.rounds, "allreduce_bytes": 256,
               "bcast_bytes": [8192 - 256, 8192 + 256]}
    p.expected_ops = 3 * p.rounds * p.ranks


def _plan_ib_incast(p: Plan) -> None:
    p.ranks = 4 if p.small else 16
    big, small = p.count(16), p.count(64)
    senders = p.ranks - 1
    p.phases = [
        ("64KB", p.band(senders * big, 63488, 67584, 64).reshape(senders, big)),
        ("16KB", p.band(senders * small, 15872, 16896, 64).reshape(senders, small)),
    ]
    p.modes = [("ib", dict(mode="ib")),
               ("roce", dict(mode="roce", pfc=True, ecn=True))]
    p.sizes = {"ranks": p.ranks, "modes": [m for m, _ in p.modes],
               "64KB": {"messages_per_sender": big, "bytes": [63488, 67584]},
               "16KB": {"messages_per_sender": small, "bytes": [15872, 16896]}}
    p.expected_ops = len(p.modes) * senders * (big + small)


def _plan_lossy_stream(p: Plan) -> None:
    # three uses of one reliability path.  The counts put p50 inside the
    # loss-free stream and p95 inside the messages that finish on one rail;
    # the lossy stream's retransmit tail lies between and moves the makespan
    n_clean, n_loss, n_rail = (p.count(1400, WINDOW), p.count(1000, WINDOW),
                               p.count(208, WINDOW))
    p.loss_rate = 0.08
    p.loss_seed = int(p.rng.integers(1, 1 << 30))
    p.fault_seed = int(p.rng.integers(1, 1 << 30))
    p.clean_sizes = p.band(n_clean, 3968, 4224, 64)
    p.loss_sizes = p.band(n_loss, 3968, 4224, 64)
    p.rail_sizes = p.band(n_rail, 258048, 266240, 64)
    small = {"bytes": [3968, 4224], "window": WINDOW}
    p.sizes = {"clean": {"messages": n_clean, "loss": 0.0, **small},
               "lossy": {"messages": n_loss, "loss": p.loss_rate, **small},
               "railkill": {"messages": n_rail, "bytes": [258048, 266240],
                            "window": WINDOW, "rails": 2}}
    p.expected_ops = n_clean + n_loss + n_rail


def _plan_fleet_faults(p: Plan) -> None:
    p.ranks = 4 if p.small else 16
    # two rank slots a node; never fewer than 12 nodes, or there is no spine
    p.nodes = max(12, 3 * p.ranks // 2)
    # rma is submitted first: the first job to launch seals the hardware
    # collective cohort, so its fences are what the switch death degrades
    arrivals = [0.0] + sorted(float(x) for x in p.rng.uniform(1.0, 40.0, 2).round(3))
    p.tenants = [
        (arrivals[0], JobSpec("rma", "rma", np=p.ranks, steps=p.count(10),
                              params={"cells_per_rank": 32},
                              slo_step_us=SLO_STEP_US)),
        (arrivals[1], JobSpec("train", "train", np=p.ranks, steps=p.count(5),
                              params={"grad_elems": 4096,
                                      "compute_us": round(float(p.rng.uniform(28.0, 32.0)), 3)},
                              slo_step_us=SLO_STEP_US)),
        (arrivals[2], JobSpec("shuffle", "shuffle", np=p.ranks, steps=p.count(2),
                              params={"block_per_pair": 128},
                              slo_step_us=SLO_STEP_US)),
    ]
    p.fleet_seed = int(p.rng.integers(1, 1 << 30))
    p.fault_seed = int(p.rng.integers(1, 1 << 30))
    p.recovery_seed = int(p.rng.integers(1, 1 << 30))
    p.victim = p.ranks // 2 - 1
    p.post_steps = p.count(8)
    p.grads = p.rng.integers(1, 1 << 10, 8).astype(np.float64)
    # seeded compute time before each allreduce of the campaign: without it
    # the step latencies sit on a few discrete plateaus and p50 on the cliff
    # between two of them
    p.think_us = p.rng.uniform(0.0, 3.0, (64, p.ranks))
    #: (at_us, duration_us) of the spine switch death; derived from the
    #: clean repetition by :func:`fleet_faults` and then held fixed
    p.kill_window: Optional[tuple] = None
    p.sizes = {"nodes": p.nodes, "ranks_per_tenant": p.ranks,
               "tenants": {spec.name: spec.steps for _, spec in p.tenants},
               "arrivals_us": arrivals, "recovery_ranks": p.ranks,
               "post_recovery_steps": p.post_steps}
    p.expected_ops = 0  # the step counts are read from the run itself


def make_scale_plan(seed: int, ranks: int) -> Plan:
    """The ``coll_wide`` shape at another rank count, 2 rounds (the probe)."""
    plan = Plan("coll_wide", seed, 1.0)
    plan.ranks, plan.rounds = ranks, 2
    _plan_collective_rounds(plan)
    return plan


# ------------------------------------------------------------- app fragments
def _launch(cluster: Cluster, app: Callable, ranks: int, transports=("elan4",),
            stack_factory: Optional[Callable] = None) -> RteJob:
    job = RteJob(cluster, stack_factory=stack_factory)
    for rank in range(ranks):
        job.launch(rank, app, group="world", group_count=ranks,
                   transports=transports)
    return job


def _enter(mpi, rec: Recorder):
    """First statement of every benchmark app: the barrier that ends set-up."""
    yield from mpi.comm_world.barrier()
    if mpi.rank == 0:
        rec.ready(mpi.now)


def _pingpong(mpi, rec: Recorder, plan: Plan, sizes, posted: List[float],
              first_index: int):
    """Ping-pong over ``sizes``; an operation is one half round trip, timed
    on the global simulated clock from the sender's post to the receiver's
    return.  Returns the sum of the round-trip times rank 0 saw."""
    comm, peer = mpi.comm_world, 1 - mpi.rank
    sbuf, rbuf = mpi.alloc(int(max(sizes))), mpi.alloc(int(max(sizes)))
    rtt_sum = 0.0
    for i, n in enumerate(sizes):
        n = int(n)
        t_rt = mpi.now
        for leg in (0, 1):
            index = first_index + 2 * i + leg
            if mpi.rank == leg:
                sbuf.view(0, n)[:] = plan.payload(index, n)
                posted[leg] = mpi.now
                yield from comm.send(sbuf, dest=peer, tag=leg, nbytes=n)
            else:
                data, _ = yield from comm.recv(source=peer, tag=leg, nbytes=n,
                                               buffer=rbuf)
                rec.op(mpi.now - posted[leg],
                       np.array_equal(data, plan.payload(index, n)), n)
        rtt_sum += mpi.now - t_rt
    return rtt_sum


def _stream(mpi, rec: Recorder, plan: Plan, sizes, posted: Dict[int, float],
            first_index: int, tag: int):
    """Rank 0 streams ``sizes`` to rank 1 with ``WINDOW`` messages in flight;
    an operation is one message completion at the receiver.  Returns the
    simulated time from the first post to the receiver's closing token."""
    comm = mpi.comm_world
    biggest = int(max(sizes))
    bufs = [mpi.alloc(biggest) for _ in range(WINDOW)]
    t0 = mpi.now
    pending: List[tuple] = []
    if mpi.rank == 0:
        for i, n in enumerate(sizes):
            n = int(n)
            if len(pending) >= WINDOW:
                yield from mpi.wait(pending.pop(0)[0])
            buf = bufs[i % WINDOW]
            buf.view(0, n)[:] = plan.payload(first_index + i, n)
            posted[i] = mpi.now
            pending.append(((yield from comm.isend(buf, dest=1, tag=tag,
                                                   nbytes=n)), i, n))
        yield from mpi.waitall([req for req, _, _ in pending])
        yield from comm.recv(source=1, tag=tag + 1, nbytes=0)
        return mpi.now - t0

    def finish(entry):
        req, i, n = entry
        yield from mpi.wait(req)
        ok = np.array_equal(bufs[i % WINDOW].view(0, n),
                            plan.payload(first_index + i, n))
        rec.op(mpi.now - posted[i], ok, n)

    for i, n in enumerate(sizes):
        n = int(n)
        if len(pending) >= WINDOW:
            yield from finish(pending.pop(0))
        pending.append(((yield from comm.irecv(n, source=0, tag=tag,
                                               buffer=bufs[i % WINDOW])), i, n))
    for entry in pending:
        yield from finish(entry)
    yield from comm.send(b"", dest=0, tag=tag + 1, nbytes=0)
    return mpi.now - t0


# ----------------------------------------------------------------- workloads
def p2p_eager(plan: Plan, rec: Recorder) -> None:
    rec.begin()
    cluster = Cluster(nodes=2, seed=plan.seed)
    posted = [0.0, 0.0]

    def app(mpi):
        yield from _enter(mpi, rec)
        index = 0
        for label, sizes in plan.round_trips:
            rtt = yield from _pingpong(mpi, rec, plan, sizes, posted, index)
            index += 2 * len(sizes)
            if mpi.rank == 0 and label == "4B":
                rec.points["lat_4B_us"] = rtt / (2 * len(sizes))
        rec.finish(mpi.now)

    job = _launch(cluster, app, 2)
    job.wait()
    rec.end(cluster, [job])
    cluster.assert_no_drops()




def p2p_rndv(plan: Plan, rec: Recorder) -> None:
    rec.begin()
    cluster = Cluster(nodes=2, seed=plan.seed)
    posted = [0.0, 0.0]
    stream_posted: List[Dict[int, float]] = [{} for _ in plan.streams]

    def app(mpi):
        yield from _enter(mpi, rec)
        index = 0
        for label, sizes in plan.round_trips:
            rtt = yield from _pingpong(mpi, rec, plan, sizes, posted, index)
            index += 2 * len(sizes)
            if mpi.rank == 0 and label == "4KB":
                rec.points["lat_4KB_us"] = rtt / (2 * len(sizes))
        for k, (label, sizes) in enumerate(plan.streams):
            took = yield from _stream(mpi, rec, plan, sizes, stream_posted[k],
                                      index, 10 + 2 * k)
            index += len(sizes)
            if mpi.rank == 0 and label == "1MB":
                rec.points["bw_1MB_mbs"] = float(sizes.sum()) / took
        rec.finish(mpi.now)

    job = _launch(cluster, app, 2)
    job.wait()
    rec.end(cluster, [job])
    cluster.assert_no_drops()


def coll_wide(plan: Plan, rec: Recorder) -> None:
    """Also the scaling probe's shape (see :func:`make_scale_plan`)."""
    rec.begin()
    cluster = Cluster(nodes=plan.ranks, seed=plan.seed)

    def app(mpi):
        comm = mpi.comm_world
        yield from _enter(mpi, rec)
        for rnd in range(plan.rounds):
            skew = plan.skew_us[rnd, :, mpi.rank]
            yield from mpi.thread.sleep(float(skew[0]))
            t = mpi.now
            yield from comm.barrier()
            rec.op(mpi.now - t, True)
            yield from mpi.thread.sleep(float(skew[1]))
            t = mpi.now
            total = yield from comm.allreduce(plan.vectors[rnd, mpi.rank], op="sum")
            rec.op(mpi.now - t, np.array_equal(total, plan.sums[rnd]), 256)
            n = plan.bcast_bytes[rnd]
            want = plan.payload(rnd, n).tobytes()
            yield from mpi.thread.sleep(float(skew[2]))
            t = mpi.now
            got = yield from comm.bcast(want if mpi.rank == 0 else None, root=0)
            rec.op(mpi.now - t, bytes(got) == want, n)
        rec.finish(mpi.now)

    job = _launch(cluster, app, plan.ranks)
    job.wait()
    rec.end(cluster, [job])
    cluster.assert_no_drops()


def ib_incast(plan: Plan, rec: Recorder) -> None:
    senders = plan.ranks - 1
    for _mode, options in plan.modes:
        rec.begin()
        cluster = Cluster(nodes=plan.ranks, seed=plan.seed, ib_rail=True,
                          ib_options=IbOptions(**options))

        def app(mpi):
            comm = mpi.comm_world
            yield from _enter(mpi, rec)
            for phase, (_label, sizes) in enumerate(plan.phases):
                per_sender, biggest = sizes.shape[1], int(sizes.max())
                first = phase * plan.ranks * 64
                if mpi.rank == 0:
                    # every receive is posted before any sender starts:
                    # nothing ever waits for the receiver, only for its port
                    reqs = []
                    for _ in range(senders * per_sender):
                        buf = mpi.alloc(biggest)
                        reqs.append(((yield from comm.irecv(
                            biggest, source=ANY_SOURCE, tag=5 + phase,
                            buffer=buf)), buf))
                    yield from comm.barrier()
                    yield from mpi.waitall([req for req, _ in reqs])
                    # MPI ordering: the k-th match from a source is its k-th send
                    seen = [0] * plan.ranks
                    for req, buf in reqs:
                        src, n = req.status.source, req.status.nbytes
                        k = seen[src]
                        seen[src] += 1
                        if n == int(sizes[src - 1, k]) and np.array_equal(
                                buf.view(0, n), plan.payload(first + src * 64 + k, n)):
                            verified[(phase, src, k)] = n
                else:
                    mine = sizes[mpi.rank - 1]
                    bufs = []
                    for k, n in enumerate(mine):
                        buf = mpi.alloc(int(n))
                        buf.view()[:] = plan.payload(first + mpi.rank * 64 + k, int(n))
                        bufs.append(buf)
                    yield from comm.barrier()
                    # closed loop: a sender keeps ~64 KB in flight
                    window = max(1, 65536 // biggest)
                    pending = []
                    for k, buf in enumerate(bufs):
                        if len(pending) >= window:
                            yield from drain(mpi, pending.pop(0), phase)
                        pending.append((k, mpi.now, (yield from comm.isend(
                            buf, dest=0, tag=5 + phase, nbytes=int(mine[k])))))
                    for entry in pending:
                        yield from drain(mpi, entry, phase)
                yield from comm.barrier()
            rec.finish(mpi.now)

        def drain(mpi, entry, phase):
            k, t_post, req = entry
            yield from mpi.wait(req)
            sent.append((phase, mpi.rank, k, mpi.now - t_post))

        verified: Dict[tuple, int] = {}
        sent: List[tuple] = []
        job = _launch(cluster, app, plan.ranks, transports=("ib",))
        job.wait()
        rec.end(cluster, [job])
        # a send counts once the receiver held exactly its bytes
        for phase, src, k, latency in sent:
            n = verified.get((phase, src, k))
            rec.op(latency, n is not None, n or 0)
        cluster.assert_no_drops()


def lossy_stream(plan: Plan, rec: Recorder) -> None:
    factory = make_mpi_stack_factory(
        elan4_options=Elan4PtlOptions(reliability=True, chained_fin=False))

    # 1: 4 KB stream, no loss: a retransmit timer armed and cancelled per
    # fragment.  2: the same under seeded loss: real retransmits
    index = 0
    for sizes, loss in ((plan.clean_sizes, 0.0), (plan.loss_sizes, plan.loss_rate)):
        rec.begin()
        cluster = Cluster(nodes=2, seed=plan.seed)
        if loss:
            cluster.fabric.set_loss(loss, seed=plan.loss_seed)
        posted: Dict[int, float] = {}

        def stream(mpi):
            yield from _enter(mpi, rec)
            yield from _stream(mpi, rec, plan, sizes, posted, index, 10)
            rec.finish(mpi.now)

        job = _launch(cluster, stream, 2, stack_factory=factory)
        job.wait()
        rec.end(cluster, [job])
        if not loss:
            cluster.assert_no_drops()
        index += len(sizes)

    # 3: two-rail rendezvous stream; rail 1 dies a quarter of the way in and
    # the PML fails over.  Three quarters of these messages, more than 5 % of
    # all operations, complete on one rail, so p95 sits inside that
    # population.  The rail dies between two windows: killed under in-flight
    # traffic, about half the seeds trip a double unmap in
    # rdma_sched.sender_handle_fin_ack (README, known issues), and a
    # workload must be one on which no operation fails.
    rec.begin()
    cluster = Cluster(nodes=2, rails=2, seed=plan.seed)
    posted = {}
    injector = FaultInjector(
        cluster, FaultPlan("perf-rail-kill", seed=plan.fault_seed), job=None)
    quarter = len(plan.rail_sizes) // 4

    def railkill(mpi):
        yield from _enter(mpi, rec)
        yield from _stream(mpi, rec, plan, plan.rail_sizes[:quarter], posted,
                           index, 20)
        if mpi.rank == 0:
            injector.plan.rail_down(mpi.now + 1.0, rail=1)
            injector.arm()
        yield from mpi.thread.sleep(5.0)
        yield from _stream(mpi, rec, plan, plan.rail_sizes[quarter:], posted,
                           index + quarter, 22)
        rec.finish(mpi.now)

    injector.job = job = _launch(cluster, railkill, 2,
                                 transports=("elan4", "elan4:1"),
                                 stack_factory=factory)
    job.wait()
    rec.end(cluster, [job])
    if not injector.trace:
        rec.errors.append("rail kill never fired")


def fleet_faults(plan: Plan, rec: Recorder) -> None:
    """The first call (``plan.kill_window`` unset) runs the fleet clean and
    derives the switch-death window from it; every later call injects it."""
    # -- 1: three tenants on one fabric, spine switch dies mid-rma ----------
    rec.begin()
    cluster = Cluster(nodes=plan.nodes, seed=plan.seed)
    fault = None
    if plan.kill_window is not None:
        at_us, duration_us = plan.kill_window
        fault = FaultPlan("perf-switch-death", seed=plan.fault_seed).switch_death(
            at_us=at_us, switch="sw1.0", duration_us=duration_us)
    fleet = FleetRun(cluster, plan.tenants, policy="spread", slots_per_node=2,
                     seed=plan.fleet_seed, fault_plan=fault)
    rec.ready(cluster.sim.now)
    result = fleet.run()
    rec.finish(max(stats.end_us for stats in result.tenants))
    rec.end(cluster, [run.job for run in result.scheduler.runs])
    cluster.assert_no_drops()
    steps_over = 0
    planned = {spec.name: spec.steps * spec.np for _, spec in plan.tenants}
    for stats in result.tenants:
        for us in stats.step_us:
            rec.op(us, not stats.failed)
        if len(stats.step_us) != planned[stats.name]:
            rec.errors.append(f"{stats.name}: {len(stats.step_us)} steps, "
                              f"expected {planned[stats.name]}")
        steps_over += sum(1 for us in stats.step_us if us > SLO_STEP_US)
    rec.counters["coll.hw_fallbacks"] = sum(
        run.lease.coll_hw.hw_fallbacks for run in result.scheduler.runs)
    waits = sorted(s.queue_wait_us for s in result.tenants)
    rec.counters["sched.queue_wait_p95_us"] = waits[-1]
    rec.counters["sched.slo_violation_share"] = steps_over / max(1, len(rec.op_us))
    if plan.kill_window is None:
        # the middle half of the rma step phase of the clean run
        rma = result.tenant("rma")
        phase_us = sum(rma.step_us) / plan.ranks
        start = rma.end_us - phase_us
        plan.kill_window = (round(start + 0.25 * phase_us, 3),
                            round(0.5 * phase_us, 3))
    elif not any("switch_death" in note for note in result.fault_notes):
        rec.errors.append("switch death never fired")

    # -- 2: one rank SIGKILLed mid-allreduce, respawned from its checkpoint --
    rec.begin()
    cluster = Cluster(nodes=plan.ranks, seed=plan.recovery_seed)
    job = RteJob(cluster)
    np_ = plan.ranks
    state = {"pre": 0}

    def post_recovery(api, comm):
        for step in range(plan.post_steps):
            yield from api.thread.sleep(float(plan.think_us[step % 64, api.rank]))
            t = api.now
            total = yield from comm.allreduce(plan.grads, op="sum")
            rec.op(api.now - t, np.array_equal(total, plan.grads * np_), 64)
        rec.finish(api.now)

    def factory(rank, image):
        def respawned(api):
            yield from api.rejoin_world()
            comm = yield from api.ft_rebuild_world()
            yield from post_recovery(api, comm)

        return respawned

    # a 50 us detector sweep (default 250): how long the death goes unseen
    # then follows the victim's last heartbeat smoothly from seed to seed
    # instead of jumping between two sweep ticks
    driver = RecoveryDriver(job, app_factory=factory,
                            config=FtConfig(sweep_period_us=50.0))

    def app(api):
        comm = api.comm_world
        yield from comm.barrier()
        if api.rank == 0:
            rec.ready(api.now)
            kill = FaultPlan("perf-proc-kill", seed=plan.fault_seed).proc_kill(
                api.now + KILL_AFTER_US, plan.victim)
            FaultInjector(cluster, kill, job=job).arm()
        api.ft_checkpoint({"step": 0})
        data, want = plan.grads, plan.grads
        step = 0
        try:
            while True:
                yield from api.thread.sleep(float(plan.think_us[step % 64, api.rank]))
                step += 1
                t = api.now
                data = yield from comm.allreduce(data, op="sum")
                want = want * np_  # exact: small integers times a power of two
                rec.op(api.now - t, np.array_equal(data, want), 64)
                state["pre"] += 1
        except (RankDeadError, CommRevokedError):
            comm.revoke()
            yield from api.ft_wait_recovered(plan.victim)
            comm2 = yield from api.ft_rebuild_world()
            yield from post_recovery(api, comm2)

    for rank in range(np_):
        job.launch(rank, app, group="world", group_count=np_)
    job.wait(until=50_000_000)
    rec.end(cluster, [job])
    samples = cluster.tracer.samples
    for stage in ("ft.detect_latency_us", "ft.mttr_us"):
        ok = len(samples.get(stage, ())) == 1
        value = samples[stage][0] if ok else 0.0
        rec.op(value, ok)
        rec.points[stage] = value
    if driver.states.get(plan.victim) != "recovered":
        rec.errors.append(f"victim state {driver.states.get(plan.victim)}")
    # attempted: every step that ran before the kill, the post-recovery
    # steps of all ranks, and the two recovery stages
    plan.expected_ops = (sum(planned.values()) + state["pre"]
                         + np_ * plan.post_steps + 2)


#: workload name -> (planner, runner)
REGISTRY: Dict[str, tuple] = {
    "p2p_eager": (_plan_p2p_eager, p2p_eager),
    "p2p_rndv": (_plan_p2p_rndv, p2p_rndv),
    "coll_wide": (_plan_coll_wide, coll_wide),
    "ib_incast": (_plan_ib_incast, ib_incast),
    "lossy_stream": (_plan_lossy_stream, lossy_stream),
    "fleet_faults": (_plan_fleet_faults, fleet_faults),
}


def run_repetition(plan: Plan) -> Recorder:
    """One repetition on fresh clusters.  A failure inside the model (a
    deadlock, a drop where none was injected, a rank that raised) is
    recorded, not raised: it is counted against the operations attempted."""
    rec = Recorder()
    try:
        REGISTRY[plan.name][1](plan, rec)
    except Exception as exc:  # noqa: BLE001 - the run boundary: count and report
        rec.errors.append(f"{type(exc).__name__}: {exc}")
    return rec
