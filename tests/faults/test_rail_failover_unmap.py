"""Rail failover never unmaps a registration in the wrong context.

A two-rail reliable Elan4 stream of about 200 rendezvous messages (252–260
KB, eight in flight) loses rail 1 partway through.  The PML fails the open
sends over to rail 0, which exposes each source buffer afresh.  A FIN_ACK
that the dying rail still delivers afterwards completes its request without
touching rail 0's registration: only the module that made a registration
releases it.  The dead rail's own exposure stays mapped, since a read
request already queued at its NIC may still be served from it.

The kill instant moves by 13.7 µs steps so that it lands at different points
of the in-flight window; several of the offsets send a late FIN_ACK through
the dying rail and several replay harvested fragments on the survivor.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core.ptl.elan4.module import Elan4PtlOptions
from repro.faults import FaultInjector, FaultPlan
from repro.mpi.world import make_mpi_stack_factory
from repro.rte.environment import RteJob

WINDOW = 8
#: 208 sizes from 252 KB to 260 KB in 64-byte steps
SIZES = [int(n) * 64 for n in np.random.default_rng(1).integers(4032, 4161, 208)]
BASE = (np.arange(max(SIZES) + 256) % 251).astype(np.uint8)


def _payload(i: int, n: int) -> np.ndarray:
    return BASE[i % 256:i % 256 + n]


def _run(k: int):
    cluster = Cluster(nodes=2, rails=2)
    options = Elan4PtlOptions(reliability=True, chained_fin=False)
    injector = FaultInjector(cluster, FaultPlan("rail-kill", seed=1))

    def app(mpi):
        comm = mpi.comm_world
        yield from comm.barrier()
        bufs = [mpi.alloc(max(SIZES)) for _ in range(WINDOW)]
        pending = []
        if mpi.rank == 0:
            injector.plan.rail_down(mpi.now + 7000.0 + 13.7 * k, rail=1)
            injector.arm()
            for i, n in enumerate(SIZES):
                if len(pending) >= WINDOW:
                    yield from mpi.wait(pending.pop(0))
                buf = bufs[i % WINDOW]
                buf.view(0, n)[:] = _payload(i, n)
                pending.append((yield from comm.isend(buf, dest=1, tag=20, nbytes=n)))
            yield from mpi.waitall(pending)
            return "sent"
        corrupted = []

        def finish(req, i, n):
            yield from mpi.wait(req)
            if not np.array_equal(bufs[i % WINDOW].view(0, n), _payload(i, n)):
                corrupted.append(i)

        for i, n in enumerate(SIZES):
            if len(pending) >= WINDOW:
                yield from finish(*pending.pop(0))
            req = yield from comm.irecv(n, source=0, tag=20, buffer=bufs[i % WINDOW])
            pending.append((req, i, n))
        for entry in pending:
            yield from finish(*entry)
        return corrupted

    factory = make_mpi_stack_factory(elan4_options=options)
    job = injector.job = RteJob(cluster, stack_factory=factory)
    for rank in range(2):
        job.launch(rank, app, group="world", group_count=2,
                   transports=("elan4", "elan4:1"))
    return cluster, injector, job.wait()


@pytest.mark.parametrize("k", range(10))
def test_rail_kill_mid_window_keeps_registrations_in_their_context(k):
    cluster, injector, results = _run(k)

    assert injector.trace, "the rail kill never fired"
    assert results[0] == "sent"
    assert results[1] == [], f"messages {results[1]} arrived corrupted"
    assert cluster.tracer.counters["pml.failover"] >= 1
    traps = [nic.mmu.traps for rail in cluster.rail_nics for nic in rail]
    assert traps == [0] * len(traps)
