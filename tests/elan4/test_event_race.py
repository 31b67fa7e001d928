"""Elan event semantics — count events, chaining, and the Fig. 5 race.

The paper's §4.3 argument: a count-1 Elan event *cannot* be safely re-armed
for the next batch of RDMA completions, because the host's reset of the
count races with NIC-side decrements; completions get lost.  The shared
completion queue (chained QDMA into a receive queue) avoids this by
construction.  These tests demonstrate both halves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.elan4.event import ChainOp, ElanEvent
from repro.elan4.rdma import RdmaDescriptor


def single():
    cluster = Cluster(nodes=2)
    return cluster, cluster.claim_context(0), cluster.claim_context(1)


# ------------------------------------------------------------- basic events
def test_event_triggers_at_zero_count():
    cluster, a, _ = single()
    ev = a.make_event(count=3)
    word = ev.attach_host_word()
    ev.fire()
    ev.fire()
    cluster.run()
    assert not word.poll()
    ev.fire()
    cluster.run()
    assert word.poll()
    assert ev.triggers == 1


def test_event_count_n_aggregates_n_completions():
    """Fig. 5b: one event with count N waits for N RDMA completions."""
    n_ops = 4
    cluster, a, b = single()
    bufs_a = [a.space.alloc(256) for _ in range(n_ops)]
    bufs_b = [b.space.alloc(256) for _ in range(n_ops)]
    agg = a.make_event(count=n_ops, name="agg")
    word = agg.attach_host_word()
    done_at = []

    def issuer(t):
        for i in range(n_ops):
            desc = RdmaDescriptor(
                op="write",
                local=a.map_buffer(bufs_a[i]),
                remote=b.map_buffer(bufs_b[i]),
                nbytes=256,
                remote_vpid=b.vpid,
                done=agg,
            )
            yield from a.rdma_issue(t, desc)
        yield from t.block_on(word)
        done_at.append(cluster.sim.now)

    cluster.nodes[0].spawn_thread(issuer)
    cluster.run()
    assert done_at and agg.fires == n_ops and agg.triggers == 1


def test_chain_runs_on_trigger():
    cluster, a, _ = single()
    ev = a.make_event(count=1)
    ran = []
    ev.chain(ChainOp("probe", lambda: ran.append(cluster.sim.now)))
    ev.fire()
    cluster.run()
    assert len(ran) == 1
    assert ran[0] == pytest.approx(cluster.config.nic_chain_us)


def test_owned_chain_is_pending_work_until_it_has_run():
    """A chained QDMA is its context's pending work from trigger until
    its send has left — so finalize's drain waits for it — and a chain
    parked by a NIC stall is counted once, not again on resume."""
    cluster, a, _ = single()
    a.create_queue(7, nslots=4)
    nic = a.nic
    op = a.chained_qdma(a.vpid, 7, np.zeros(8, np.uint8))
    assert op.ctx == a.ctx
    ev = a.make_event(count=1)
    ev.chain(op)
    nic.stall()
    ev.fire()
    assert nic.pending_ops(a.ctx) == 1
    cluster.sim.run(until=100.0)
    assert nic.pending_ops(a.ctx) == 1 and nic.chains_run == 0
    nic.resume()
    drained = nic.drain_event(a.ctx)
    cluster.run()
    assert drained.triggered and nic.pending_ops(a.ctx) == 0
    assert nic.chains_run == 1 and nic.qdma.chained_sends == 1


def test_interrupt_armed_event_pays_interrupt_latency():
    cluster, a, _ = single()
    cfg = cluster.config
    ev = a.make_event(count=1)
    word = ev.attach_host_word()
    ev.arm_interrupt()
    woke = []

    def waiter(t):
        yield from t.block_on(word)
        woke.append(cluster.sim.now)

    cluster.nodes[0].spawn_thread(waiter)
    cluster.sim.schedule(5.0, ev.fire)
    cluster.run()
    assert woke[0] >= 5.0 + cfg.interrupt_us


def test_polling_event_is_fast():
    cluster, a, _ = single()
    cfg = cluster.config
    ev = a.make_event(count=1)
    word = ev.attach_host_word()
    cluster.sim.schedule(5.0, ev.fire)
    cluster.run()
    assert word.poll()
    assert cluster.sim.now == pytest.approx(5.0 + cfg.nic_event_us)


def test_host_read_and_reset_count():
    cluster, a, _ = single()
    ev = a.make_event(count=1)
    out = []

    def body(t):
        c = yield from ev.host_read_count(t)
        out.append(c)
        yield from ev.host_reset_count(t, 1)
        out.append(ev.count)

    cluster.nodes[0].spawn_thread(body)
    cluster.run()
    assert out == [1, 1]


# ------------------------------------------------------------- the race
@pytest.mark.sanitizer_expected
def test_fig5_race_loses_completions():
    """Fig. 5c/5d: fires landing inside the host's read-modify-write window
    are obliterated; the event under-triggers and a waiter would hang."""
    cluster, a, _ = single()
    ev = a.make_event(count=1)
    ev.attach_host_word()

    def host(t):
        yield from ev.host_reset_count(t, 1)

    # first completion: normal trigger
    ev.fire()
    cluster.run()
    assert ev.triggers == 1
    # host re-arms; two more completions land inside the read-modify-write
    # window (which opens after the thread's dispatch + the read crossing)
    t0 = cluster.sim.now
    cfg = cluster.config
    window_open = t0 + cfg.context_switch_us + cfg.pio_write_us
    cluster.nodes[0].spawn_thread(host)
    cluster.sim.schedule(window_open - t0 + 0.3 * cfg.pio_write_us, ev.fire)
    cluster.sim.schedule(window_open - t0 + 0.6 * cfg.pio_write_us, ev.fire)
    cluster.run()
    # both fires were stomped by the reset write: count is back to 1 and the
    # event never re-triggered -> completions lost
    assert ev.lost_fires == 2
    assert ev.count == 1
    assert ev.triggers == 1  # still only the first trigger


def test_no_race_when_fires_outside_reset_window():
    cluster, a, _ = single()
    ev = a.make_event(count=1)
    ev.attach_host_word()
    ev.fire()
    cluster.run()

    def host(t):
        yield from ev.host_reset_count(t, 1)

    cluster.nodes[0].spawn_thread(host)
    cluster.run()
    ev.fire()  # after the reset completed
    cluster.run()
    assert ev.lost_fires == 0
    assert ev.triggers == 2


@settings(max_examples=40, deadline=None)
@given(fire_offsets=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6))
def test_property_shared_completion_queue_never_loses_completions(fire_offsets):
    """The §4.3 design: chain a QDMA to every RDMA completion; however the
    completions land in time, the queue sees exactly one message each —
    no reset, no race, nothing lost."""
    cluster, a, b = single()
    comp_q = a.create_queue(7, nslots=64)  # the shared completion queue
    events = []
    for i, off in enumerate(fire_offsets):
        ev = a.make_event(count=1, name=f"rdma{i}")
        ev.chain(
            a.chained_qdma(a.vpid, 7, np.zeros(8, np.uint8), meta={"i": i})
        )
        events.append(ev)
        cluster.sim.schedule(off, ev.fire)
    cluster.run()
    got = []
    while (m := comp_q.poll()) is not None:
        got.append(m.meta["i"])
        cluster.run()
    assert sorted(got) == list(range(len(fire_offsets)))
    cluster.assert_no_drops()


def test_shared_queue_single_thread_blocks_for_many_rdmas():
    """One thread blocks on ONE host event (the completion queue's) and
    still observes every RDMA completion — the capability Fig. 5a says
    separated per-descriptor events cannot provide."""
    n_ops = 5
    cluster, a, b = single()
    comp_q = a.create_queue(7, nslots=32)
    bufs_a = [a.space.alloc(128) for _ in range(n_ops)]
    bufs_b = [b.space.alloc(128) for _ in range(n_ops)]
    seen = []

    def issuer(t):
        for i in range(n_ops):
            desc = RdmaDescriptor(
                op="write",
                local=a.map_buffer(bufs_a[i]),
                remote=b.map_buffer(bufs_b[i]),
                nbytes=128,
                remote_vpid=b.vpid,
                done=a.make_event(name=f"w{i}"),
            )
            desc.done.chain(
                a.chained_qdma(a.vpid, 7, np.zeros(4, np.uint8), meta={"i": i})
            )
            yield from a.rdma_issue(t, desc)
        # single blocking loop over one event word
        while len(seen) < n_ops:
            yield from t.block_on(comp_q.host_event)
            while (m := comp_q.poll()) is not None:
                seen.append(m.meta["i"])

    cluster.nodes[0].spawn_thread(issuer)
    cluster.run()
    assert sorted(seen) == list(range(n_ops))
