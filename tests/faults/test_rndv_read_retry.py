"""A rendezvous read that lost a packet is re-issued once and completes.

Two 256 KB rendezvous reads cross a lossy rail 0 (1 % packet corruption)
between nodes on different leaf switches, while rail 1 is clean.  A read
whose data chunk was corrupted never fires its ``done`` event, so its
watchdog re-issues it.  The retry re-issues the transfer's one descriptor
under its one completion watch: a waiter parked on the module's wait set
(a snapshot of the watched host words) must see the re-issued read complete
in every progress mode, without a second watchdog round.  A read the NIC
has already finished is never re-issued, however late the host looks.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core.ptl.elan4.completion import CompletionWatcher
from repro.core.ptl.elan4.module import Elan4PtlOptions
from repro.faults import FaultInjector, FaultPlan
from repro.mpi.world import make_mpi_stack_factory
from repro.rte.environment import RteJob
from tests.conftest import run_mpi_app

N = 256 * 1024

#: progress mode -> the completion strategy it can block on (Fig. 5/6)
MODES = {
    "polling": "none",
    "interrupt": "none",
    "one-thread": "one-queue",
    "two-thread": "two-queue",
}


def _run(mode: str):
    cluster = Cluster(nodes=16, rails=2)
    options = Elan4PtlOptions(
        reliability=True, chained_fin=False, completion_queue=MODES[mode]
    )
    factory = make_mpi_stack_factory(progress_mode=mode, elan4_options=options)

    def sender(mpi):
        yield from mpi.thread.sleep(max(0.0, 2000.0 - mpi.now))
        reqs = []
        for i in range(2):
            buf = mpi.alloc(N)
            buf.write(np.full(N, i + 1, dtype=np.uint8))
            reqs.append((yield from mpi.comm_world.isend(buf, dest=1, tag=i, nbytes=N)))
        for req in reqs:
            yield from mpi.wait(req)
        return "sent"

    def receiver(mpi):
        intact = []
        for i in range(2):
            data, _ = yield from mpi.comm_world.recv(source=0, tag=i, nbytes=N)
            intact.append(len(data) == N and bool(np.all(data == i + 1)))
        return intact

    job = RteJob(cluster, stack_factory=factory)
    transports = ("elan4", "elan4:1")
    job.launch(0, sender, group="world", group_count=2, transports=transports)
    # rank 1 on node 5: another leaf switch, so the reads cross the spine
    job.launch(1, receiver, node_id=5, group="world", group_count=2,
               transports=transports)
    plan = FaultPlan(seed=1).packet_corruption(2300.0, 0.01, rail=0)
    FaultInjector(cluster, plan, job=job).arm()
    return cluster, job.wait()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_corrupted_read_is_retried_once_in_every_progress_mode(mode, monkeypatch):
    read_watches = []
    watch = CompletionWatcher.watch

    def counting_watch(self, done, handler):
        if done.name.startswith("rd-get"):
            read_watches.append(done)
        return watch(self, done, handler)

    monkeypatch.setattr(CompletionWatcher, "watch", counting_watch)
    cluster, results = _run(mode)

    assert results[0] == "sent"
    assert results[1] == [True, True]
    counters = cluster.tracer.counters
    assert counters["fabric.corrupted"] > 0
    assert counters["ptl.rdma_retry"] == 1
    # the retry re-issued the read's own descriptor under its own watch
    assert len(read_watches) == 2


def test_read_done_while_the_host_computes_is_not_reissued():
    """The NIC finishes a read while the receiver computes, without entering
    the library, past the watchdog's deadline.  That completion is waiting
    for the host, so the watchdog must not re-issue the finished read: the
    second pull would land in the window the completion handler unmaps."""

    def app(mpi):
        if mpi.rank == 0:
            buf = mpi.alloc(N)
            buf.write(np.full(N, 7, dtype=np.uint8))
            yield from mpi.comm_world.send(buf, dest=1, tag=0, nbytes=N)
            return "sent"
        req = yield from mpi.comm_world.irecv(N, source=0, tag=0)
        while req.transfer is None:  # progress until the read is issued
            yield from mpi.progress()
        cfg = mpi.config
        deadline = cfg.rdma_timeout_us + N * cfg.rdma_timeout_us_per_byte
        yield from mpi.thread.compute(2 * deadline)
        yield from mpi.wait(req)
        return bool(np.all(req.buffer.read() == 7))

    opts = Elan4PtlOptions(chained_fin=False)
    results, cluster = run_mpi_app(app, elan4_options=opts)
    assert results == {0: "sent", 1: True}
    assert "ptl.rdma_retry" not in cluster.tracer.counters
