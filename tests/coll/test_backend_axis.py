"""The backend axis of algorithm selection must agree across ranks.

A one-node IB port death fails over only the processes on that node.  The
axis once followed each rank's *healthy* modules, so after the fault the
ranks on that node looked up the ``elan4`` overlay while every other rank
looked up ``mixed``: with a table carrying an ``elan4`` bcast overlay the
two halves ran different algorithms and the job deadlocked.  The axis now
comes from the transports the job launched with.
"""

import json

from repro.cluster import Cluster
from repro.coll import framework  # noqa: F401 - populates the registry
from repro.coll.decision import DEFAULT_TABLE_PATH, DecisionTable
from repro.coll.tune import merge_backend
from repro.config import default_config
from repro.faults import FaultInjector, FaultPlan
from repro.mpi.world import make_mpi_stack_factory
from repro.rte.environment import RteJob

NP = 4
NBYTES = 16 * 1024
ROUNDS = 12


def test_one_node_port_death_keeps_one_bcast_algorithm(tmp_path):
    base = json.loads(DEFAULT_TABLE_PATH.read_text(encoding="utf-8"))
    overlay = {"sweep": base["sweep"], "ops": {
        "bcast": [{"min_ranks": 1, "max_ranks": None, "default": "chain"}]}}
    merged = merge_backend(base, "elan4", overlay)
    table = DecisionTable(merged)
    # the overlay is visible: a rank keyed on "elan4" would pick chain
    assert table.lookup("bcast", NP, NBYTES, backend="elan4") == "chain"
    assert table.lookup("bcast", NP, NBYTES, backend="mixed") != "chain"
    path = tmp_path / "table.json"
    path.write_text(json.dumps(merged), encoding="utf-8")

    payloads = [bytes((i * 7 + j) % 251 for j in range(NBYTES)) for i in range(ROUNDS)]

    def app(mpi):
        got = []
        for i in range(ROUNDS):
            data = payloads[i] if mpi.rank == i % NP else None
            out = yield from mpi.comm_world.bcast(data, root=i % NP, nbytes=NBYTES)
            got.append(bytes(out))
        return got

    config = default_config().variant(coll_decision_table=str(path))
    cluster = Cluster(nodes=NP, config=config, ib_rail=True)
    job = RteJob(cluster, stack_factory=make_mpi_stack_factory())
    for rank in range(NP):
        job.launch(rank, app, group="world", group_count=NP,
                   transports=("elan4", "ib"))
    injector = FaultInjector(cluster, FaultPlan().ib_port_down(60.0, 2), job=job)
    injector.arm()
    results = job.wait()

    assert results == {r: payloads for r in range(NP)}
    # the fault hit: node 2's processes run without their IB module
    pml2 = job.processes[2].stack.pml
    assert any(m.name == "ib" and not m.healthy for m in pml2.modules)
