"""IB/RoCE fabric mechanics: queues, ECN marking, drops, the PFC cascade."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.ib.fabric import IbFabric, PRIO_CTL
from repro.ib.nic import IbPacket
from repro.ib.options import IbOptions
from repro.ib.verbs import WorkRequest


def _pkt(n=2048, prio=0):
    return IbPacket(src_node=0, dst_node=1, nbytes=n, kind="data", qpn=999,
                    prio=prio)


def _egress_link(cluster):
    """The leaf-switch egress port toward host 1 (where incast queues)."""
    return cluster.ib_fabrics[0].switches[0].ports["h1"]


# -------------------------------------------------------------- options
def test_options_validation_rejects_bad_thresholds():
    with pytest.raises(ValueError, match="headroom"):
        IbOptions(mode="roce", queue_depth_pkts=8).validate()
    with pytest.raises(ValueError, match="pfc_xon"):
        IbOptions(pfc_xon_pkts=30, pfc_xoff_pkts=24).validate()
    with pytest.raises(ValueError, match="unknown ib mode"):
        IbOptions(mode="ethernet").validate()


def test_lossless_property():
    assert IbOptions(mode="ib").lossless
    assert IbOptions(mode="roce", pfc=True).lossless
    assert not IbOptions(mode="roce", pfc=False).lossless


# ------------------------------------------------------------ ib mode
def test_ib_mode_queues_unbounded_never_drops_or_marks():
    cluster = Cluster(nodes=2, ib_rail=True, ib_options=IbOptions(mode="ib"))
    link = _egress_link(cluster)
    for _ in range(100):
        link.enqueue(_pkt())
    assert link.drops == 0
    assert link.ecn_marks == 0
    assert link.max_depth >= 99  # the backlog is visible, just not lossy
    assert not link.xoff


# ---------------------------------------------------------- roce: ECN
def test_ecn_marks_above_threshold():
    opts = IbOptions(mode="roce", pfc=False, ecn=True,
                     pfc_xoff_pkts=24, pfc_xon_pkts=8)
    cluster = Cluster(nodes=2, ib_rail=True, ib_options=opts)
    link = _egress_link(cluster)
    for _ in range(20):
        link.enqueue(_pkt())
    # the packets enqueued at depth >= 12 (the default threshold) are marked
    assert link.ecn_marks == 8
    assert cluster.ib_fabrics[0].switches[0].ecn_marks == 8
    assert link.drops == 0


# -------------------------------------------------------- roce: drops
def test_full_queue_drops_without_pfc():
    opts = IbOptions(mode="roce", pfc=False, ecn=False, queue_depth_pkts=8,
                     pfc_xoff_pkts=6, pfc_xon_pkts=2)
    cluster = Cluster(nodes=2, ib_rail=True, ib_options=opts)
    link = _egress_link(cluster)
    for _ in range(12):
        link.enqueue(_pkt())
    assert link.drops == 4
    assert cluster.ib_fabrics[0].switches[0].drops == 4
    assert len(link._data) == 8


def test_control_priority_exempt_from_drop_and_mark():
    opts = IbOptions(mode="roce", pfc=False, ecn=True, queue_depth_pkts=8,
                     pfc_xoff_pkts=6, pfc_xon_pkts=2, ecn_threshold_pkts=4)
    cluster = Cluster(nodes=2, ib_rail=True, ib_options=opts)
    link = _egress_link(cluster)
    for _ in range(8):
        link.enqueue(_pkt())  # data queue is now full
    drops, marks = link.drops, link.ecn_marks
    ack = _pkt(n=16, prio=PRIO_CTL)
    link.enqueue(ack)
    assert link.drops == drops and link.ecn_marks == marks
    assert not ack.ecn
    assert len(link._ctl) == 1


# ---------------------------------------------------------- roce: PFC
def test_pfc_pause_cascade_and_release():
    opts = IbOptions(mode="roce", pfc=True, ecn=False)
    cluster = Cluster(nodes=2, ib_rail=True, ib_options=opts)
    fabric = cluster.ib_fabrics[0]
    sw = fabric.switches[0]
    link = _egress_link(cluster)
    for _ in range(30):  # crosses XOFF (24)
        link.enqueue(_pkt())
    assert link.xoff
    assert link.drops == 0  # PFC is lossless
    # crossing XOFF pauses every upstream feeder of the switch (host tx links)
    assert sw.pauses_sent == len(sw.feeders) > 0
    cluster.sim.run(until=100_000.0)
    # drained below XON: pauses released, time-under-pause accounted
    assert not link.xoff
    assert len(link._data) == 0
    for feeder in sw.feeders:
        assert not feeder.paused_prios
        assert feeder.pause_us > 0.0
    assert fabric.stats()["pause_us"] > 0.0


def test_paused_feeder_holds_data_but_not_control():
    opts = IbOptions(mode="roce", pfc=True, ecn=False)
    cluster = Cluster(nodes=2, ib_rail=True, ib_options=opts)
    nic0 = cluster.ib_nics[0][0]
    tx = nic0.tx_link
    from repro.ib.fabric import PRIO_DATA
    tx.pause(PRIO_DATA)
    tx.enqueue(_pkt())
    tx.enqueue(_pkt(n=16, prio=PRIO_CTL))
    cluster.sim.run(until=50.0)
    assert tx.packets_tx == 1  # only the control frame got through
    assert len(tx._data) == 1
    tx.resume(PRIO_DATA)
    cluster.sim.run(until=100.0)
    assert tx.packets_tx == 2
    assert tx.pause_us > 0.0


# ------------------------------------------------------------ topology
def test_leaf_spine_topology_beyond_radix():
    cluster = Cluster(nodes=2)  # just for the sim + config
    n = cluster.config.ib_switch_radix + 6
    fabric = IbFabric(cluster.sim, cluster.config, IbOptions(), n)
    names = [sw.name for sw in fabric.switches]
    assert names == ["ibsw0", "ibsw1", "ibspine"]
    assert fabric.hops(0, 1) == 1  # same leaf
    assert fabric.hops(0, n - 1) == 3  # leaf -> spine -> leaf


def test_single_leaf_within_radix():
    cluster = Cluster(nodes=2)
    fabric = IbFabric(cluster.sim, cluster.config, IbOptions(), 8)
    assert [sw.name for sw in fabric.switches] == ["ibsw0"]
    assert fabric.hops(0, 7) == 1


# ------------------------------------------------------------ sanitizer
def test_drained_ib_cluster_has_no_sanitizer_finding(monkeypatch):
    """An idle IB link is a parked flag, not a process: links and QP
    requesters are callbacks, so a naturally drained IB run leaves nothing
    blocked for the deadlock detector to report (when links were server
    coroutines, each idle one was a blocked-at-drain finding unless marked
    daemon) and nothing scheduled."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    cluster = Cluster(nodes=2, ib_rail=True)
    nic_a, nic_b = cluster.ib_nics[0]
    qp_a, qp_b = nic_a.create_qp(nic_a.create_cq()), nic_b.create_qp(nic_b.create_cq())
    qp_a.connect(1, qp_b.qpn)
    qp_b.connect(0, qp_a.qpn)
    nic_a.post_send(qp_a, WorkRequest(wr_id=1, opcode="send", nbytes=5000,
                                      data=np.zeros(5000, dtype=np.uint8)))
    tx = nic_a.tx_link
    tx.enqueue(_pkt(n=16, prio=PRIO_CTL))
    cluster.sim.run()  # natural drain: the deadlock detector runs
    assert tx.packets_tx == 1 + 3  # the control frame and three MTU packets
    assert qp_b.cq.poll().kind == "recv" and qp_a.cq.poll().kind == "send"
    assert cluster.sim.peek() is None
    assert cluster.sim.sanitizer.processes == []
    assert [f.format() for f in cluster.sim.sanitizer.teardown()] == []
