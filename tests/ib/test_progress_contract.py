"""The PTL contract's threaded-progress and fault-tolerance hooks on IB.

PTL/IB has one completion queue for every QP, so its
``blocking_sources()`` is one host word: the one-thread progress driver
blocks on it (``arm_blocking`` / ``progress_from``), two-thread progress
has no second queue to block on, and interrupt mode is not implemented.
A rank killed over IB drives ``reclaim()`` on a module that is not Elan4.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.faults import FaultInjector, FaultPlan
from repro.ft import CommRevokedError, RankDeadError, enable
from repro.mpi.world import make_mpi_stack_factory
from repro.rte.environment import RteJob
from tests.conftest import run_mpi_app


def _echo_app(payload, iters=3):
    """Rank 0 sends ``payload``; rank 1 checks it and echoes it back; rank
    0 checks the echo.  Both return True when every byte matched."""
    n = len(payload)

    def app(mpi):
        comm = mpi.comm_world
        ok = True
        for i in range(iters):
            if mpi.rank == 0:
                buf = mpi.alloc(n)
                buf.write(payload)
                yield from comm.send(buf, dest=1, tag=i, nbytes=n)
                data, _ = yield from comm.recv(source=1, tag=i, nbytes=n)
            else:
                data, _ = yield from comm.recv(source=0, tag=i, nbytes=n)
                reply = mpi.alloc(n)
                reply.write(data)
                yield from comm.send(reply, dest=0, tag=i, nbytes=n)
            ok = ok and np.array_equal(data, payload)
        return ok

    return app


def _run_ib(app, progress_mode):
    cluster = Cluster(nodes=2, ib_rail=True)
    return run_mpi_app(
        app, transports=("ib",), progress_mode=progress_mode, cluster=cluster
    )


@pytest.mark.parametrize("nbytes", [64, 200_000])
def test_one_thread_progress_blocks_on_the_ib_completion_queue(nbytes):
    payload = np.random.default_rng(nbytes).integers(0, 256, nbytes, dtype=np.uint8)
    wakeups = {}

    def app(mpi):
        ok = yield from _echo_app(payload)(mpi)
        wakeups[mpi.rank] = mpi.stack.pml.progress_driver.wakeups
        return ok

    results, _ = _run_ib(app, "one-thread")
    assert results == {0: True, 1: True}
    # the progress thread, not the application, fielded the completions
    assert all(n > 0 for n in wakeups.values())


def test_two_thread_progress_needs_a_second_ib_queue():
    with pytest.raises(ValueError, match="separate completion queue, got 1 sources"):
        _run_ib(_echo_app(np.zeros(64, dtype=np.uint8)), "two-thread")


def test_interrupt_progress_is_not_implemented_on_ib():
    with pytest.raises(NotImplementedError, match="ib: no interrupt-mode support"):
        _run_ib(_echo_app(np.zeros(64, dtype=np.uint8)), "interrupt")


def test_rank_killed_over_ib_is_reclaimed_and_survivors_return():
    def app(api):
        comm = api.comm_world
        data = np.ones(4)
        try:
            while True:
                data = yield from comm.allreduce(data)
        except (RankDeadError, CommRevokedError):
            comm.revoke()  # unblock survivors still paired with live ranks
        return "survived"

    cluster = Cluster(nodes=4, seed=3, ib_rail=True)
    job = RteJob(cluster, stack_factory=make_mpi_stack_factory())
    ft = enable(job)
    for r in range(4):
        job.launch(r, app, group="world", group_count=4, transports=("ib",))
    FaultInjector(cluster, FaultPlan("kill").proc_kill(2000.0, 2), job=job).arm()
    results = job.wait(until=1_000_000)

    assert ft.membership.dead_ranks() == [2]
    assert ft.reclaimed(2)
    assert results == {0: "survived", 1: "survived", 2: None, 3: "survived"}
    assert cluster.sim.pending_count == 0
