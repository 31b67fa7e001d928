"""The layer ladder: the paper's Fig. 9 method on the host clock.

Each rung is a 64-byte ping-pong driven through one layer's public API
alone, timed in host microseconds per message: the bare event kernel, the
native Elan4 QDMA, an IB verbs RDMA write, and the full MPI stack.  The
difference between the MPI rung and the Elan4 rung is what the Open MPI
core (PML + PTL + MPI) costs the simulator per message, as Fig. 9's
difference between PTL latency and native QDMA latency is what it costs
the modelled hardware.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

import numpy as np

from repro.cluster import Cluster
from repro.ib.verbs import WorkRequest
from repro.rte.environment import launch_job
from repro.sim import Simulator

NBYTES = 64


def _kernel(round_trips: int) -> int:
    """Two bare processes hand a token back and forth through events and
    timeouts: no model at all.  Returns the events the kernel processed."""
    sim = Simulator()
    box = {"ping": sim.event(), "pong": sim.event()}

    def side(mine: str, theirs: str, first: bool):
        for _ in range(round_trips):
            if not first:
                yield box[mine]
                box[mine] = sim.event()
            yield sim.timeout(1.0)
            box[theirs].succeed(None)
            if first:
                yield box[mine]
                box[mine] = sim.event()

    sim.spawn(side("ping", "pong", True), name="a")
    sim.spawn(side("pong", "ping", False), name="b")
    sim.run()
    return sim.events_processed


def _elan4(round_trips: int) -> int:
    cluster = Cluster(nodes=2)
    a, b = cluster.claim_context(0), cluster.claim_context(1)
    qa, qb = a.create_queue(0), b.create_queue(0)
    payload = np.zeros(NBYTES, dtype=np.uint8)

    def receive(thread, queue):
        while queue.poll() is None:
            yield queue.host_event.wait_event()
            yield from thread.compute(cluster.config.poll_check_us)

    def side_a(thread):
        for _ in range(round_trips):
            yield from a.qdma_send(thread, b.vpid, 0, payload)
            yield from receive(thread, qa)

    def side_b(thread):
        for _ in range(round_trips):
            yield from receive(thread, qb)
            yield from b.qdma_send(thread, a.vpid, 0, payload)

    cluster.nodes[0].spawn_thread(side_a)
    cluster.nodes[1].spawn_thread(side_b)
    cluster.run()
    cluster.assert_no_drops()
    return 2 * round_trips


def _ib(round_trips: int) -> int:
    cluster = Cluster(nodes=2, ib_rail=True)
    nic_a, nic_b = cluster.ib_nics[0]
    cq_a, cq_b = nic_a.create_cq(), nic_b.create_cq()
    qp_a, qp_b = nic_a.create_qp(cq_a), nic_b.create_qp(cq_b)
    qp_a.connect(1, qp_b.qpn)
    qp_b.connect(0, qp_a.qpn)
    mrs = [nic.reg_mr(cluster.nodes[i].new_address_space("ladder").alloc(NBYTES))
           for i, nic in enumerate((nic_a, nic_b))]
    payload = np.zeros(NBYTES, dtype=np.uint8)

    def write(nic, qp, rkey, i):
        nic.post_send(qp, WorkRequest(wr_id=i, opcode="write", nbytes=NBYTES,
                                      data=payload, rkey=rkey, imm=i))

    def await_imm(thread, cq):
        while True:
            cqe = cq.poll()
            if cqe is None:
                yield cq.host_event.wait_event()
            elif cqe.kind == "imm":
                return

    def side_a(thread):
        for i in range(round_trips):
            write(nic_a, qp_a, mrs[1].rkey, i)
            yield from await_imm(thread, cq_a)

    def side_b(thread):
        for i in range(round_trips):
            yield from await_imm(thread, cq_b)
            write(nic_b, qp_b, mrs[0].rkey, i)

    cluster.nodes[0].spawn_thread(side_a)
    cluster.nodes[1].spawn_thread(side_b)
    cluster.run()
    cluster.assert_no_drops()
    return 2 * round_trips


def _mpi(round_trips: int) -> int:
    cluster = Cluster(nodes=2)

    def app(mpi):
        comm, peer = mpi.comm_world, 1 - mpi.rank
        buf = mpi.alloc(NBYTES)
        for _ in range(round_trips):
            if mpi.rank == 0:
                yield from comm.send(buf, dest=peer, tag=1, nbytes=NBYTES)
                yield from comm.recv(source=peer, tag=1, nbytes=NBYTES, buffer=buf)
            else:
                yield from comm.recv(source=peer, tag=1, nbytes=NBYTES, buffer=buf)
                yield from comm.send(buf, dest=peer, tag=1, nbytes=NBYTES)

    launch_job(cluster, app, np=2)
    cluster.assert_no_drops()
    return 2 * round_trips


def _host_per_unit(rung: Callable[[int], int], round_trips: int, bursts: int) -> float:
    """Median host seconds per unit of work over ``bursts`` fresh runs; the
    fixed cost of building the rung (a 2-node cluster, an MPI wire-up) is
    measured by a zero-length run and taken off."""
    samples = []
    for _ in range(bursts):
        t0 = time.perf_counter()
        rung(0)
        t1 = time.perf_counter()
        units = rung(round_trips)
        t2 = time.perf_counter()
        samples.append(max(0.0, (t2 - t1) - (t1 - t0)) / units)
    return statistics.median(samples)


def measure(round_trips: int = 600, bursts: int = 3) -> Dict[str, float]:
    elan4_us = 1e6 * _host_per_unit(_elan4, round_trips, bursts)
    mpi_us = 1e6 * _host_per_unit(_mpi, round_trips, bursts)
    return {
        "sim.kernel_events_per_s": 1.0 / _host_per_unit(_kernel, 20 * round_trips, bursts),
        "elan4.host_us_per_msg": elan4_us,
        "ib.host_us_per_msg": 1e6 * _host_per_unit(_ib, round_trips, bursts),
        "core.host_us_per_msg": mpi_us - elan4_us,
    }
