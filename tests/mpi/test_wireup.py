"""Wire-up tolerates a peer without an endpoint for a transport, and
nothing else."""

import pytest

from repro.cluster import Cluster
from repro.core.ptl.elan4.module import Elan4PtlModule
from repro.mpi.world import make_mpi_stack_factory
from repro.rte.environment import RteJob
from tests.conftest import run_mpi_app


def test_add_peer_fault_propagates_from_wire_up(monkeypatch):
    def broken_add_peer(self, thread, rank, info):
        raise RuntimeError("add_peer exploded")
        yield  # pragma: no cover - makes this a generator

    monkeypatch.setattr(Elan4PtlModule, "add_peer", broken_add_peer)

    def app(mpi):
        yield from mpi.comm_world.barrier()

    with pytest.raises(RuntimeError, match="add_peer exploded"):
        run_mpi_app(app)


def test_peer_without_endpoint_is_skipped():
    """Rank 1 runs TCP only, so it exposes no Elan4 endpoint: rank 0's
    Elan4 module raises PtlError for it, wire-up skips that module, and
    the pair talks over TCP."""
    cluster = Cluster(nodes=2)
    job = RteJob(cluster, stack_factory=make_mpi_stack_factory())
    transports = {0: ("elan4", "tcp"), 1: ("tcp",)}

    def app(mpi):
        yield from mpi.comm_world.barrier()
        return sorted(m.name for m in mpi.stack.pml.modules if m.has_peer(1 - mpi.rank))

    for rank in (0, 1):
        job.launch(rank, app, group="world", group_count=2,
                   transports=transports[rank])
    assert job.wait() == {0: ["tcp"], 1: ["tcp"]}
