"""Tests for the Elan4 NIC facade and context lifecycle details."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.elan4.network import Packet
from repro.elan4.nic import NicError
from repro.elan4.rdma import RdmaDescriptor


def test_context_node_mismatch_rejected():
    from repro.elan4.nic import Elan4Context

    cluster = Cluster(nodes=2)
    entry = cluster.capability.claim(0)
    with pytest.raises(NicError, match="cannot attach"):
        Elan4Context(cluster.nics[1], entry, cluster.nodes[1].new_address_space("x"))


def test_finalized_context_refuses_use():
    cluster = Cluster(nodes=2)
    ctx = cluster.claim_context(0)
    done = []

    def body(t):
        yield from ctx.finalize(t)
        done.append(True)
        with pytest.raises(NicError, match="finalized"):
            ctx.create_queue(0)
        with pytest.raises(NicError, match="finalized"):
            ctx.map_buffer(ctx.space.alloc(16))

    cluster.nodes[0].spawn_thread(body)
    cluster.run()
    assert done == [True]


def test_double_finalize_rejected():
    cluster = Cluster(nodes=2)
    ctx = cluster.claim_context(0)

    def body(t):
        yield from ctx.finalize(t)
        with pytest.raises(NicError):
            yield from ctx.finalize(t)

    cluster.nodes[0].spawn_thread(body)
    cluster.run()


def test_pending_underflow_guarded():
    cluster = Cluster(nodes=1)
    nic = cluster.nics[0]
    with pytest.raises(NicError, match="underflow"):
        nic.untrack_pending(0x400)


def test_drain_event_immediate_when_idle():
    cluster = Cluster(nodes=1)
    ev = cluster.nics[0].drain_event(0x400)
    assert ev.triggered


def test_chain_counter():
    cluster = Cluster(nodes=2)
    a = cluster.claim_context(0)
    b = cluster.claim_context(1)
    b.create_queue(0)
    src = a.space.alloc(8192)
    dst = b.space.alloc(8192)
    e4a, e4b = a.map_buffer(src), b.map_buffer(dst)

    def body(t):
        desc = RdmaDescriptor(op="write", local=e4a, remote=e4b, nbytes=8192,
                              remote_vpid=b.vpid, done=a.make_event())
        desc.done.chain(a.chained_qdma(b.vpid, 0, np.zeros(4, np.uint8)))
        yield from a.rdma_issue(t, desc)

    before = cluster.nics[0].chains_run
    cluster.nodes[0].spawn_thread(body)
    cluster.run()
    assert cluster.nics[0].chains_run == before + 1


def test_broadcast_and_unicast_interleave_in_order():
    """A unicast injected before a broadcast from the same source must be
    delivered first at the shared destination (FIFO injection link)."""
    cluster = Cluster(nodes=3)
    order = []
    for nic in cluster.nics:
        nic._dispatch["probe"] = lambda pkt, nic=nic: order.append(
            (nic.node_id, pkt.meta["k"])
        )

    cluster.fabric.inject(Packet(0, 1, 4096, "probe", meta={"k": "uni"}))
    cluster.fabric.broadcast(Packet(0, -1, 64, "probe", meta={"k": "bc"}), [1, 2])
    cluster.run()
    at_node1 = [k for n, k in order if n == 1]
    assert at_node1 == ["uni", "bc"]
    assert ("2", "bc") not in order  # node 2 got only the broadcast
    assert [k for n, k in order if n == 2] == ["bc"]


def test_cluster_rails_views_consistent():
    cluster = Cluster(nodes=2, rails=3)
    assert cluster.n_rails == 3
    assert cluster.fabric is cluster.rail_fabrics[0]
    assert cluster.nics == cluster.rail_nics[0]
    assert len({id(f) for f in cluster.rail_fabrics}) == 3
    # device keys: rail 0 plain, higher rails suffixed
    assert "elan4" in cluster.nodes[0].devices
    assert "elan4:1" in cluster.nodes[0].devices
    assert "elan4:2" in cluster.nodes[0].devices


def test_each_nic_has_its_own_pci_bridge():
    cluster = Cluster(nodes=1, rails=2)
    nic0 = cluster.rail_nics[0][0]
    nic1 = cluster.rail_nics[1][0]
    assert nic0.pci is not nic1.pci
    assert nic0.pci is not cluster.nodes[0].pci
