"""RC transport at the verbs level: delivery, go-back-N, DCQCN."""

import numpy as np

from repro.cluster import Cluster
from repro.ib.nic import IbPacket
from repro.ib.options import IbOptions
from repro.ib.verbs import WorkRequest


def _connected_pair(options=None, config=None):
    """Two HCAs with one RC QP each, connected to each other."""
    cluster = Cluster(nodes=2, ib_rail=True, config=config,
                      ib_options=options or IbOptions())
    nic_a, nic_b = cluster.ib_nics[0]
    cq_a, cq_b = nic_a.create_cq(), nic_b.create_cq()
    qp_a, qp_b = nic_a.create_qp(cq_a), nic_b.create_qp(cq_b)
    qp_a.connect(1, qp_b.qpn)
    qp_b.connect(0, qp_a.qpn)
    return cluster, (nic_a, qp_a, cq_a), (nic_b, qp_b, cq_b)


def test_send_segments_at_mtu_and_reassembles():
    cluster, (nic_a, qp_a, cq_a), (nic_b, qp_b, cq_b) = _connected_pair()
    n = 5000  # 3 MTU packets at 2048
    data = np.arange(n, dtype=np.uint8) % 251
    nic_a.post_send(qp_a, WorkRequest(wr_id=1, opcode="send", nbytes=n, data=data))
    cluster.sim.run(until=10_000.0)
    cqe = cq_b.poll()
    assert cqe is not None and cqe.kind == "recv"
    assert cqe.nbytes == n
    assert np.array_equal(cqe.data, data)
    done = cq_a.poll()  # requester completion after the end-to-end ack
    assert done is not None and done.kind == "send" and done.wr_id == 1
    assert qp_a.packets_tx == 3
    assert not qp_a.unacked


def test_nak_triggers_go_back_n():
    """A dropped mid-stream packet: the gap NAKs, the window replays, the
    message still reassembles byte-exact."""
    cluster, (nic_a, qp_a, _), (_, _, cq_b) = _connected_pair()
    link = cluster.ib_fabrics[0].switches[0].ports["h1"]
    orig, state = link.deliver, {"dropped": False}

    def lossy(pkt):
        if pkt.kind == "data" and pkt.psn == 0 and not state["dropped"]:
            state["dropped"] = True  # eat the first packet exactly once
            return
        orig(pkt)

    link.deliver = lossy
    n = 5000
    data = np.arange(n, dtype=np.uint8) % 199
    nic_a.post_send(qp_a, WorkRequest(wr_id=7, opcode="send", nbytes=n, data=data))
    cluster.sim.run(until=50_000.0)
    assert state["dropped"]
    assert qp_a.retransmitted >= 1
    cqe = cq_b.poll()
    assert cqe is not None and np.array_equal(cqe.data, data)
    assert not qp_a.unacked


def test_tail_loss_recovered_by_retransmit_timer():
    """Losing the *last* packet leaves no gap to NAK — only the sender's
    retransmit timer can recover it."""
    cluster, (nic_a, qp_a, cq_a), (nic_b, _, cq_b) = _connected_pair()
    link = cluster.ib_fabrics[0].switches[0].ports["h1"]
    orig, state = link.deliver, {"dropped": False}

    def lossy(pkt):
        if pkt.kind == "data" and pkt.psn == 2 and not state["dropped"]:
            state["dropped"] = True
            return
        orig(pkt)

    link.deliver = lossy
    n = 5000
    data = np.full(n, 0x3C, dtype=np.uint8)
    nic_a.post_send(qp_a, WorkRequest(wr_id=9, opcode="send", nbytes=n, data=data))
    # well past ib_retransmit_us so the timer fires and the tail replays
    cluster.sim.run(until=20 * cluster.config.ib_retransmit_us)
    assert state["dropped"]
    assert qp_a.retransmitted >= 1
    assert nic_b.naks_tx == 0  # no gap ever became visible to the responder
    cqe = cq_b.poll()
    assert cqe is not None and np.array_equal(cqe.data, data)
    done = cq_a.poll()
    assert done is not None and done.kind == "send"


def test_retry_exhaustion_fails_the_qp():
    from repro.config import default_config

    cluster, (nic_a, qp_a, _), _ = _connected_pair(
        config=default_config().variant(ib_max_retries=2)
    )
    nic_b = cluster.ib_nics[0][1]
    nic_b.set_port_down(True)  # the peer hears nothing, forever
    errors = []
    qp_a.on_error = lambda qp, reason: errors.append(reason)
    nic_a.post_send(qp_a, WorkRequest(wr_id=1, opcode="send", nbytes=64,
                                      data=np.zeros(64, dtype=np.uint8)))
    cluster.sim.run(until=100 * cluster.config.ib_retransmit_us)
    assert qp_a.state == "error"
    assert errors and "retry limit" in errors[0]
    assert not qp_a.unacked and not qp_a.send_queue  # flushed


def test_rdma_write_lands_in_registered_mr():
    cluster, (nic_a, qp_a, cq_a), (nic_b, _, cq_b) = _connected_pair()
    n = 4096
    target = cluster.nodes[1].new_address_space("ibtest").alloc(n)
    mr = nic_b.reg_mr(target)
    data = np.arange(n, dtype=np.uint8) % 241
    nic_a.post_send(qp_a, WorkRequest(
        wr_id=3, opcode="write", nbytes=n, data=data, rkey=mr.rkey,
        remote_offset=0, imm=("done", 3),
    ))
    cluster.sim.run(until=10_000.0)
    assert np.array_equal(target.read(), data)  # one-sided: memory, not CQE
    imm = cq_b.poll()
    assert imm is not None and imm.kind == "imm" and imm.imm == ("done", 3)
    done = cq_a.poll()
    assert done is not None and done.kind == "write"


# ----------------------------------------------------------------- DCQCN
def test_cnp_cuts_rate_and_recovery_restores_it():
    cluster, (nic_a, qp_a, _), _ = _connected_pair()
    assert qp_a.rate == 1.0

    def cnp():
        return IbPacket(src_node=1, dst_node=0, nbytes=16, kind="cnp",
                        qpn=qp_a.qpn)

    nic_a.receive(cnp())
    # alpha pumped to 1, so the first cut halves the rate
    assert qp_a.rate == 0.5
    # a second CNP inside the reaction interval is ignored
    nic_a.receive(cnp())
    assert qp_a.rate == 0.5
    # quiet recovery periods add the rate back to line rate
    cluster.sim.run(until=5_000.0)
    assert qp_a.rate == 1.0
    assert qp_a.alpha < 1.0


def test_repeated_cnps_respect_min_rate_floor():
    opts = IbOptions(dcqcn_min_rate=0.25)
    cluster, (nic_a, qp_a, _), _ = _connected_pair(options=opts)
    for i in range(20):
        nic_a.receive(IbPacket(src_node=1, dst_node=0, nbytes=16, kind="cnp",
                               qpn=qp_a.qpn))
        # step past the reaction interval so every CNP is acted on
        cluster.sim.run(until=cluster.sim.now + opts.dcqcn_cnp_interval_us + 1)
    assert qp_a.rate == 0.25


def test_ack_at_the_retransmit_instant_empties_the_window_before_go_back_n():
    """The retransmit timer decides to replay, and an ACK delivered at that
    same instant (scheduled after the timer) empties the window before the
    replay starts one kernel hop later: go-back-N must find nothing to send
    instead of raising out of ``min()`` on the empty window."""
    cluster, (nic_a, qp_a, cq_a), (nic_b, _, _) = _connected_pair()
    nic_b.set_port_down(True)  # nothing is ever acknowledged by the peer
    nic_a.post_send(qp_a, WorkRequest(wr_id=5, opcode="send", nbytes=64,
                                      data=np.zeros(64, dtype=np.uint8)))
    cluster.sim.run(until=100.0)  # the packet is out and lost
    assert qp_a.unacked
    t_rtx = cluster.sim.peek()  # nothing else pending: the retransmit timer
    cluster.sim.schedule_at(t_rtx, nic_a._rx_ack, qp_a, qp_a.next_psn - 1)
    cluster.sim.run()
    assert qp_a.retransmitted == 0 and not qp_a.unacked and qp_a.state == "rts"
    done = cq_a.poll()
    assert done is not None and done.kind == "send" and done.wr_id == 5
    assert cluster.sim.peek() is None
