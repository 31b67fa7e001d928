"""Tests for queue-based DMA (QDMA)."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.elan4.qdma import QdmaError
from repro.hw.memory import MemoryError_


def pair():
    cluster = Cluster(nodes=2)
    src = cluster.claim_context(0)
    dst = cluster.claim_context(1)
    return cluster, src, dst


def test_qdma_delivers_payload():
    cluster, src, dst = pair()
    q = dst.create_queue(0, nslots=4)
    payload = np.arange(256, dtype=np.uint8)

    def sender(t):
        yield from src.qdma_send(t, dst.vpid, 0, payload)

    cluster.nodes[0].spawn_thread(sender)
    cluster.run()
    cluster.assert_no_drops()
    msg = q.poll()
    assert msg is not None
    assert msg.src_vpid == src.vpid
    assert msg.nbytes == 256
    assert np.array_equal(msg.data, payload)
    assert q.poll() is None


def test_qdma_host_event_set_on_arrival_cleared_when_empty():
    cluster, src, dst = pair()
    q = dst.create_queue(0, nslots=4)

    def sender(t):
        yield from src.qdma_send(t, dst.vpid, 0, np.zeros(8, np.uint8))

    cluster.nodes[0].spawn_thread(sender)
    cluster.run()
    assert q.host_event.poll()
    assert q.poll() is not None
    assert not q.host_event.poll()


def test_qdma_rejects_oversized_message():
    cluster, src, dst = pair()
    dst.create_queue(0)
    big = np.zeros(cluster.config.qslot_bytes + 1, np.uint8)

    def sender(t):
        yield from src.qdma_send(t, dst.vpid, 0, big)

    cluster.nodes[0].spawn_thread(sender)
    with pytest.raises(QdmaError, match="QSLOT limit"):
        cluster.run()


def test_qdma_2kb_boundary_accepted():
    cluster, src, dst = pair()
    q = dst.create_queue(0)
    exact = np.full(cluster.config.qslot_bytes, 7, np.uint8)

    def sender(t):
        yield from src.qdma_send(t, dst.vpid, 0, exact)

    cluster.nodes[0].spawn_thread(sender)
    cluster.run()
    assert q.poll().nbytes == cluster.config.qslot_bytes


def test_qdma_fifo_across_many_messages():
    cluster, src, dst = pair()
    q = dst.create_queue(0, nslots=64)

    def sender(t):
        for i in range(20):
            yield from src.qdma_send(t, dst.vpid, 0, np.full(16, i, np.uint8))

    cluster.nodes[0].spawn_thread(sender)
    cluster.run()
    got = []
    while (m := q.poll()) is not None:
        got.append(int(m.data[0]))
    assert got == list(range(20))


def test_qdma_overflow_buffered_until_slot_freed():
    """More in-flight messages than QSLOTS: extras wait in the NIC and are
    delivered as the host drains the queue — no loss."""
    cluster, src, dst = pair()
    q = dst.create_queue(0, nslots=2)

    def sender(t):
        for i in range(5):
            yield from src.qdma_send(t, dst.vpid, 0, np.full(16, i, np.uint8))

    cluster.nodes[0].spawn_thread(sender)
    cluster.run()
    assert q.pending() == 2  # only two slots' worth visible
    got = [int(q.poll().data[0]), int(q.poll().data[0])]
    cluster.run()  # freed slots admit the overflow
    while (m := q.poll()) is not None:
        got.append(int(m.data[0]))
        cluster.run()
    assert got == list(range(5))
    cluster.assert_no_drops()


def test_qdma_send_completion_event_fires():
    cluster, src, dst = pair()
    dst.create_queue(0)
    fired = []

    def sender(t):
        ev = yield from src.qdma_send(t, dst.vpid, 0, np.zeros(64, np.uint8))
        word = ev.attach_host_word()
        yield from t.block_on(word)
        fired.append(cluster.sim.now)

    cluster.nodes[0].spawn_thread(sender)
    cluster.run()
    assert fired and fired[0] > 0


def test_qdma_to_unknown_queue_dropped():
    cluster, src, dst = pair()

    def sender(t):
        yield from src.qdma_send(t, dst.vpid, 9, np.zeros(8, np.uint8))

    cluster.nodes[0].spawn_thread(sender)
    cluster.run()
    assert len(cluster.nics[1].dropped) == 1


def test_qdma_meta_round_trips():
    cluster, src, dst = pair()
    q = dst.create_queue(0)

    def sender(t):
        yield from src.qdma_send(
            t, dst.vpid, 0, np.zeros(8, np.uint8), meta={"kind": "FIN", "msg": 42}
        )

    cluster.nodes[0].spawn_thread(sender)
    cluster.run()
    msg = q.poll()
    assert msg.meta == {"kind": "FIN", "msg": 42}


def test_qdma_loopback_same_node():
    cluster = Cluster(nodes=2)
    a = cluster.claim_context(0)
    b = cluster.claim_context(0)  # second process on the same node
    q = b.create_queue(0)

    def sender(t):
        yield from a.qdma_send(t, b.vpid, 0, np.full(32, 9, np.uint8))

    cluster.nodes[0].spawn_thread(sender)
    cluster.run()
    msg = q.poll()
    assert msg is not None and (msg.data == 9).all()


def test_qdma_blocking_receive_with_interrupt():
    cluster, src, dst = pair()
    cfg = cluster.config
    q = dst.create_queue(0)
    q.arm_interrupt()
    recv_times = []

    def receiver(t):
        yield from t.block_on(q.host_event)
        recv_times.append(cluster.sim.now)
        assert q.poll() is not None

    def sender(t):
        yield from t.sleep(50.0)
        yield from src.qdma_send(t, dst.vpid, 0, np.zeros(16, np.uint8))

    cluster.nodes[1].spawn_thread(receiver)
    cluster.nodes[0].spawn_thread(sender)
    cluster.run()
    # the receiver can only have woken after the ≈10 µs interrupt latency
    assert recv_times[0] > 50.0 + cfg.interrupt_us
    assert cluster.nodes[1].interrupts_delivered == 1


def test_destroy_queue_then_send_drops():
    cluster, src, dst = pair()
    dst.create_queue(0)
    cluster.nics[1].qdma.destroy_queue(dst.ctx, 0)

    def sender(t):
        yield from src.qdma_send(t, dst.vpid, 0, np.zeros(8, np.uint8))

    cluster.nodes[0].spawn_thread(sender)
    cluster.run()
    assert len(cluster.nics[1].dropped) == 1


def test_duplicate_queue_id_rejected():
    cluster, _, dst = pair()
    dst.create_queue(0)
    with pytest.raises(QdmaError):
        dst.create_queue(0)


def test_queue_slots_are_one_contiguous_slab():
    cluster, _, dst = pair()
    slot_bytes = cluster.config.qslot_bytes
    regions_before = len(dst.space._regions)
    q = dst.create_queue(0, nslots=8)
    assert len(dst.space._regions) == regions_before + 1
    base = q.slot_buffers[0].addr
    assert base in dst.space._regions
    for i, slot in enumerate(q.slot_buffers):
        assert slot.addr == base + i * slot_bytes
        assert slot.nbytes == slot_bytes


def test_full_slot_delivery_leaves_next_slot_untouched():
    cluster, src, dst = pair()
    q = dst.create_queue(0, nslots=4)
    slot_bytes = cluster.config.qslot_bytes
    q.slot_buffers[1].fill(0x5A)
    payload = np.full(slot_bytes, 0xA5, np.uint8)

    def sender(t):
        yield from src.qdma_send(t, dst.vpid, 0, payload)

    cluster.nodes[0].spawn_thread(sender)
    cluster.run()
    assert np.array_equal(q.slot_buffers[0].read(), payload)
    assert (q.slot_buffers[1].read() == 0x5A).all()


def test_oversized_slot_write_traps():
    cluster, _, dst = pair()
    q = dst.create_queue(0, nslots=4)
    with pytest.raises(MemoryError_):
        q.slot_buffers[0].write(np.ones(cluster.config.qslot_bytes + 1, np.uint8))
    assert not q.slot_buffers[1].read().any()
