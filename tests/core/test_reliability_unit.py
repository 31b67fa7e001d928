"""Unit tests for the ReliableChannel mechanics (below the MPI layer)."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core.ptl.elan4.module import Elan4PtlComponent, Elan4PtlOptions
from repro.core.pml.teg import Pml


class _FakeProcess:
    def __init__(self, cluster, node_id, rank):
        self.job = type("J", (), {"cluster": cluster, "ft": None})()
        self.node = cluster.nodes[node_id]
        self.rank = rank
        self.space = self.node.new_address_space(f"r{rank}")
        self.main_thread = None


def make_pair():
    """Two wired Elan4 modules in reliability mode, raw (no MPI)."""
    cluster = Cluster(nodes=2)
    opts = Elan4PtlOptions(reliability=True, chained_fin=False)
    modules = []

    def build(node_id, rank):
        proc = _FakeProcess(cluster, node_id, rank)
        pml = Pml(proc, cluster.config)
        comp = Elan4PtlComponent(proc, cluster.config, opts)
        done = []

        def body(t):
            yield from comp.open(t)
            mods = yield from comp.init(t)
            pml.add_module(mods[0])
            done.append(mods[0])

        cluster.nodes[node_id].spawn_thread(body)
        cluster.run()
        return done[0]

    a = build(0, 0)
    b = build(1, 1)

    def wire(t):
        yield from a.add_peer(t, 1, b.local_info())
        yield from b.add_peer(t, 0, a.local_info())

    cluster.nodes[0].spawn_thread(wire)
    cluster.run()
    return cluster, a, b


def test_sequences_start_at_zero_per_peer():
    cluster, a, b = make_pair()
    ch = a.reliable
    sent = []

    def body(t):
        for _ in range(3):
            yield from ch.send(t, b.ctx.vpid, np.zeros(8, np.uint8))

    cluster.nodes[0].spawn_thread(body)
    cluster.run()
    # all acked by b's channel (b's progress is not running, but acks are
    # sent from on_receive which runs in b's progress... so run b progress)
    assert ch._tx_seq[b.ctx.vpid] == 3


def test_cumulative_ack_clears_everything_below():
    cluster, a, b = make_pair()
    ch = a.reliable

    def body(t):
        for _ in range(5):
            yield from ch.send(t, b.ctx.vpid, np.zeros(4, np.uint8))

    cluster.nodes[0].spawn_thread(body)
    # bounded run: long enough to send all 5, short of the retry budget
    # (exhaustion would hand the peer to the PML failover harvest)
    cluster.run(until=cluster.sim.now + 50.0)
    assert ch.unacked_count() == 5  # b never progressed, no acks yet
    ch._handle_ack(b.ctx.vpid, 3)  # cumulative: seqs 0,1,2 confirmed
    assert ch.unacked_count() == 2
    ch._handle_ack(b.ctx.vpid, 5)
    assert ch.unacked_count() == 0


def test_close_cancels_timers():
    cluster, a, b = make_pair()
    ch = a.reliable

    def body(t):
        yield from ch.send(t, b.ctx.vpid, np.zeros(4, np.uint8))

    cluster.nodes[0].spawn_thread(body)
    cluster.run(until=cluster.sim.now + 10.0)
    ch.close()
    before = ch.retransmissions
    cluster.run()  # any armed timer would fire here
    assert ch.retransmissions == before
    assert ch.unacked_count() == 0


def test_stash_reorders_gap():
    """Simulate a gap: deliver seqs 1,2 then 0 through on_receive."""
    from repro.elan4.qdma import QdmaMessage

    cluster, a, b = make_pair()
    ch = b.reliable
    out = []

    def msg(seq):
        return QdmaMessage(
            src_vpid=a.ctx.vpid, nbytes=4,
            data=np.full(4, seq, np.uint8),
            meta={"rel_seq": seq},
        )

    def body(t):
        out.append((yield from ch.on_receive(t, msg(1))))
        out.append((yield from ch.on_receive(t, msg(2))))
        out.append((yield from ch.on_receive(t, msg(0))))

    cluster.nodes[1].spawn_thread(body)
    cluster.run()
    assert out[0] == [] and out[1] == []
    assert [int(m.data[0]) for m in out[2]] == [0, 1, 2]


def test_duplicate_detection():
    from repro.elan4.qdma import QdmaMessage

    cluster, a, b = make_pair()
    ch = b.reliable

    def msg(seq):
        return QdmaMessage(src_vpid=a.ctx.vpid, nbytes=0,
                           data=np.empty(0, np.uint8), meta={"rel_seq": seq})

    out = []

    def body(t):
        out.append((yield from ch.on_receive(t, msg(0))))
        out.append((yield from ch.on_receive(t, msg(0))))  # dup

    cluster.nodes[1].spawn_thread(body)
    cluster.run()
    assert len(out[0]) == 1 and out[1] == []
    assert ch.duplicates_dropped == 1


def test_untracked_messages_pass_through():
    from repro.elan4.qdma import QdmaMessage

    cluster, a, b = make_pair()
    ch = b.reliable
    plain = QdmaMessage(src_vpid=a.ctx.vpid, nbytes=0,
                        data=np.empty(0, np.uint8), meta={"compl": 7})
    out = []

    def body(t):
        out.append((yield from ch.on_receive(t, plain)))

    cluster.nodes[1].spawn_thread(body)
    cluster.run()
    assert out[0] == [plain]
    assert ch.acks_sent == 0  # untracked traffic is not acknowledged
