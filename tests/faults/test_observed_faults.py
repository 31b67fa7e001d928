"""Fault events report through one channel: the cluster tracer.

A reliable Elan4 stream runs under :func:`repro.obs.capture` through a
packet-corruption fault and through a link flap.  The stream must arrive
intact, every tracer counter must show up as the same-named metric in the
observer, and each injected fault must put exactly one ``faults`` mark on
the exported timeline.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core.ptl.elan4.module import Elan4PtlOptions
from repro.faults import FaultInjector, FaultPlan
from repro.mpi.world import make_mpi_stack_factory
from repro.obs import capture
from repro.rte.environment import RteJob

N = 1024
ITERS = 40

PLANS = {
    "packet_corruption": FaultPlan("corrupt", seed=3).packet_corruption(2000.0, 0.1),
    # the leaf switch of node 0 loses one of its two up-links for good
    "link_flap": FaultPlan("flap").link_flap(2000.0, "sw0.0", "sw1.0"),
}


def _run(plan):
    rng = np.random.default_rng(5)
    payloads = [rng.integers(0, 256, N, dtype=np.uint8) for _ in range(ITERS)]

    def sender(mpi):
        yield from mpi.thread.sleep(max(0.0, 1900.0 - mpi.now))
        for i in range(ITERS):  # a ping-pong stream that spans the fault
            buf = mpi.alloc(N)
            buf.write(payloads[i])
            yield from mpi.comm_world.send(buf, dest=1, tag=i, nbytes=N)
            yield from mpi.comm_world.recv(source=1, tag=i, nbytes=1)
        return "sent"

    def receiver(mpi):
        got = []
        for i in range(ITERS):
            data, _ = yield from mpi.comm_world.recv(source=0, tag=i, nbytes=N)
            got.append(data.copy())
            yield from mpi.comm_world.send(b"k", dest=0, tag=i)
        return got

    with capture() as session:
        cluster = Cluster(nodes=16)
        options = Elan4PtlOptions(reliability=True, chained_fin=False)
        job = RteJob(
            cluster, stack_factory=make_mpi_stack_factory(elan4_options=options)
        )
        job.launch(0, sender, group="world", group_count=2)
        # rank 1 on node 5: another leaf switch, so the stream crosses sw1.*
        job.launch(1, receiver, node_id=5, group="world", group_count=2)
        injector = FaultInjector(cluster, plan, job=job)
        injector.arm()
        results = job.wait()
    return cluster, injector, session.observer, results, payloads


@pytest.mark.parametrize("kind", sorted(PLANS))
def test_fault_counts_once_and_marks_once(kind):
    cluster, injector, ob, results, payloads = _run(PLANS[kind])

    assert results[0] == "sent"
    for i, data in enumerate(results[1]):
        assert np.array_equal(data, payloads[i]), f"message {i} corrupted"

    counters = cluster.tracer.counters
    assert counters[f"fault.{kind}"] == 1
    stats = injector.stats()
    if kind == "packet_corruption":
        assert counters["fabric.corrupted"] == cluster.fabric.packets_corrupted > 0
        assert stats["retransmissions"] > 0  # reliability repaired them
    else:
        assert stats["reroutes"] > 0

    marks = [m.as_dict() for m in ob.marks if m.layer == "faults"]
    assert [m["name"] for m in marks] == [kind]
    assert marks[0]["ts"] == 2000.0

    scopes = ob.snapshot()["scopes"]
    for key, value in counters.items():
        scope, _, name = key.partition(".")
        assert scopes[scope][name]["value"] == value, key
