"""Property tests for the fabric: FIFO per pair, conservation, loss bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.elan4.network import Packet


@settings(max_examples=30, deadline=None)
@given(
    schedule=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4096)),
        min_size=1,
        max_size=25,
    )
)
def test_property_pairwise_fifo_under_any_schedule(schedule):
    """Whatever the interleaving of senders/sizes, each (src, dst) pair
    observes its packets in injection order."""
    cluster = Cluster(nodes=4)
    seen = {}
    for nic in cluster.nics:
        nic._dispatch["probe"] = lambda pkt, nic=nic: seen.setdefault(
            (pkt.src_node, nic.node_id), []
        ).append(pkt.meta["i"])
    expected = {}
    for i, (src, dst, size) in enumerate(schedule):
        if src == dst:
            continue
        expected.setdefault((src, dst), []).append(i)
        pkt = Packet(src, dst, size, "probe", meta={"i": i})
        cluster.fabric.inject(pkt)
    cluster.run()
    for pair, order in expected.items():
        assert seen.get(pair, []) == order
    delivered = sum(len(v) for v in seen.values())
    assert delivered == sum(len(v) for v in expected.values())


@settings(max_examples=20, deadline=None)
@given(
    n_packets=st.integers(5, 60),
    loss=st.floats(0.05, 0.6),
    seed=st.integers(0, 99),
)
def test_property_loss_conserves_packets(n_packets, loss, seed):
    """delivered + lost == sent, and only droppable packets are lost."""
    cluster = Cluster(nodes=2)
    cluster.fabric.set_loss(loss, seed=seed)
    got = []
    cluster.nics[1]._dispatch["probe"] = lambda pkt: got.append(pkt.meta["d"])

    for i in range(n_packets):
        droppable = i % 2 == 0
        meta = {"d": droppable, "droppable": droppable}
        cluster.fabric.inject(Packet(0, 1, 64, "probe", meta=meta))
    cluster.run()
    assert len(got) + cluster.fabric.packets_lost == n_packets
    # every non-droppable packet arrived (odd indices: n // 2 of them)
    assert sum(1 for d in got if not d) == n_packets // 2


def test_loss_rate_validation():
    from repro.elan4.network import FabricError

    cluster = Cluster(nodes=2)
    with pytest.raises(FabricError):
        cluster.fabric.set_loss(1.0)
    with pytest.raises(FabricError):
        cluster.fabric.set_loss(-0.1)
    cluster.fabric.set_loss(0.0)  # boundary: allowed


def test_loss_is_deterministic_per_seed():
    def run(seed):
        cluster = Cluster(nodes=2)
        cluster.fabric.set_loss(0.5, seed=seed)
        got = []
        cluster.nics[1]._dispatch["probe"] = lambda pkt: got.append(pkt.meta["i"])

        for i in range(40):
            meta = {"i": i, "droppable": True}
            cluster.fabric.inject(Packet(0, 1, 16, "probe", meta=meta))
        cluster.run()
        return got

    assert run(7) == run(7)
    assert run(7) != run(8)


@settings(max_examples=15, deadline=None)
@given(dsts=st.sets(st.integers(0, 5), min_size=1, max_size=6))
def test_property_broadcast_reaches_exactly_the_listed_nodes(dsts):
    cluster = Cluster(nodes=6)
    got = set()
    for nic in cluster.nics:
        nic._dispatch["probe"] = lambda pkt, nic=nic: got.add(nic.node_id)

    cluster.fabric.broadcast(Packet(0, -1, 128, "probe"), sorted(dsts))
    cluster.run()
    assert got == set(dsts)
