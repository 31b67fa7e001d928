"""Kernel fast paths: pooling, compaction, peek — and the invariant that
they never change modelled behaviour (full-trace fast-vs-slowpath compare).
"""

import pytest

from repro.sim import Simulator


@pytest.fixture
def fastsim(monkeypatch):
    """A Simulator with the fast paths deterministically ON (the suite may
    be running under REPRO_SIM_SLOWPATH=1)."""
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "0")
    return Simulator()


# ------------------------------------------------------------- compaction
def test_compaction_shrinks_heap_and_preserves_live_order(fastsim):
    sim = fastsim
    out = []
    live_times = []
    handles = []
    for i in range(10_000):
        t = 1.0 + i * 0.5
        handles.append(sim.schedule(t, out.append, (i, t)))
    for i, h in enumerate(handles):
        if i % 10:  # cancel 90%
            h.cancel()
        else:
            live_times.append(1.0 + i * 0.5)
    # lazy cancellation must not keep 9000 dead placeholders around
    assert sim.pending_count < 2 * len(live_times)
    sim.run()
    assert [t for (_i, t) in out] == live_times
    assert [i for (i, _t) in out] == sorted(i for i in range(10_000) if i % 10 == 0)
    assert sim.now == live_times[-1]


def test_compaction_mid_run_keeps_future_events(fastsim):
    """Regression: compaction rebuilds the heap *in place*.  A mass-cancel
    from inside a callback triggers compaction while run() is iterating;
    events scheduled afterwards must still fire."""
    sim = fastsim
    out = []
    victims = [sim.schedule(100.0 + i, out.append, "victim") for i in range(3000)]
    survivor = sim.schedule(200.0, out.append, "survivor")  # noqa: F841

    def massacre():
        for h in victims:
            h.cancel()
        sim.schedule(5.0, out.append, "after-compact")

    sim.schedule(1.0, massacre)
    sim.run()
    assert out == ["after-compact", "survivor"]
    assert sim.now == 200.0
    assert sim.pending_count == 0


def test_cancelled_counter_survives_compaction_drift(fastsim):
    sim = fastsim
    # cancel far more handles than stay in the heap, repeatedly
    for _ in range(5):
        handles = [sim.schedule(1.0, lambda: None) for _ in range(200)]
        for h in handles:
            h.cancel()
    sim.run()
    assert sim.pending_count == 0
    assert sim._cancelled_in_heap == 0


# ---------------------------------------------------------------- pooling
def test_pooled_calls_are_recycled(fastsim):
    sim = fastsim
    sim.timeout(1.0)
    sim.run()
    assert len(sim._pool) == 1
    retired = sim._pool[0]
    sim.timeout(1.0)  # must reuse the retired call, not allocate
    assert sim._pool == []
    sim.run()
    assert sim._pool == [retired]


def test_slowpath_disables_pool(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    sim = Simulator()
    assert not sim.fastpath
    sim.timeout(1.0)
    sim.run()
    assert sim._pool == []


def test_public_handle_late_cancel_is_noop(fastsim):
    sim = fastsim
    out = []
    h = sim.schedule(1.0, out.append, "x")
    sim.run()
    h.cancel()  # already fired: must not poison the counter or any pool
    h.cancel()
    sim.timeout(1.0)
    sim.run()
    assert out == ["x"]
    assert sim._cancelled_in_heap == 0


# ------------------------------------------------------------------- peek
def test_peek_discards_dead_head_entries(fastsim):
    sim = fastsim
    doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(50)]
    sim.schedule(99.0, lambda: None)
    for h in doomed:
        h.cancel()
    assert sim.peek() == 99.0
    # the dead heads were garbage; peek is allowed to drop them
    assert sim.pending_count == 1
    assert sim.events_processed == 0


def test_events_processed_counts_only_live_callbacks(fastsim):
    sim = fastsim
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    sim.run()
    assert sim.events_processed == 1


# ----------------------------------------- determinism: fast == reference
# Each workload records the semantic trace and returns
# (trace, final clock, modelled results); the env flag is read at
# Simulator/Fabric/NIC construction, so the caller sets it first.
def _mixed_workload():
    """Sends + cancelled timeouts + one fault event on a two-rail stream."""
    from repro.cluster import Cluster
    from repro.core.ptl.elan4.module import Elan4PtlOptions
    from repro.faults import FaultInjector, FaultPlan
    from repro.mpi.world import make_mpi_stack_factory
    from repro.rte.environment import RteJob

    cluster = Cluster(nodes=2, rails=2)
    sim = cluster.sim
    sim.trace = []

    # background timer noise: most cancelled, a few live
    handles = [sim.schedule(3000.0 + i, lambda: None) for i in range(300)]
    for i, h in enumerate(handles):
        if i % 3:
            h.cancel()

    job = RteJob(cluster, stack_factory=make_mpi_stack_factory(
        elan4_options=Elan4PtlOptions(reliability=True, chained_fin=False)))
    out = {}
    nbytes, messages, window, start_us = 16384, 6, 2, 2500.0

    def sender(mpi):
        yield from mpi.thread.sleep(start_us - mpi.now)
        bufs = [mpi.alloc(nbytes) for _ in range(window)]
        t0 = mpi.now
        reqs = []
        for i in range(messages):
            if len(reqs) >= window:
                yield from mpi.wait(reqs.pop(0))
            reqs.append((yield from mpi.comm_world.isend(
                bufs[i % window], dest=1, tag=1, nbytes=nbytes)))
        yield from mpi.waitall(reqs)
        yield from mpi.comm_world.recv(source=1, tag=2, nbytes=0)
        out["bw"] = messages * nbytes / (mpi.now - t0)

    def receiver(mpi):
        buf = mpi.alloc(nbytes)
        reqs = []
        for i in range(messages):
            if len(reqs) >= window:
                yield from mpi.wait(reqs.pop(0))
            reqs.append((yield from mpi.comm_world.irecv(
                nbytes, source=0, tag=1, buffer=buf)))
        yield from mpi.waitall(reqs)
        yield from mpi.comm_world.send(b"", dest=0, tag=2, nbytes=0)

    transports = ("elan4", "elan4:1")
    job.launch(0, sender, group="world", group_count=2, transports=transports)
    job.launch(1, receiver, group="world", group_count=2, transports=transports)
    plan = FaultPlan("mixed", seed=1).rail_down(start_us + 30.0, rail=1)
    FaultInjector(cluster, plan, job=job).arm()
    job.wait()
    return list(sim.trace), sim.now, out["bw"]


def _alltoall8():
    """8-node pairwise-exchange alltoall: the dense-traffic shape."""
    from repro.cluster import Cluster
    from repro.mpi.world import make_mpi_stack_factory
    from repro.rte.environment import launch_job

    cluster = Cluster(nodes=8)
    cluster.sim.trace = []

    def app(mpi):
        chunks = [bytes([mpi.rank]) * 2048 for _ in range(8)]
        yield from mpi.comm_world.barrier()
        t0 = mpi.now
        for _ in range(2):
            yield from mpi.comm_world.alltoall(chunks)
        return mpi.now - t0

    results = launch_job(cluster, app, np=8, stack_factory=make_mpi_stack_factory())
    cluster.assert_no_drops()
    return list(cluster.sim.trace), cluster.sim.now, results


def _retransmit_storm():
    """Eager stream over the reliability substrate with 8 % seeded loss:
    retransmit timers armed per fragment, most cancelled by the ACK, the
    lost ones firing and re-arming with backoff."""
    from repro.cluster import Cluster
    from repro.core.ptl.elan4.module import Elan4PtlOptions
    from tests.conftest import run_mpi_app

    cluster = Cluster(nodes=2)
    cluster.fabric.set_loss(0.08, seed=11)
    cluster.sim.trace = []
    nbytes, messages, window = 4096, 24, 8

    def app(mpi):
        buf = mpi.alloc(nbytes)
        comm = mpi.comm_world
        t0 = mpi.now
        reqs = []
        for _ in range(messages):
            if len(reqs) >= window:
                yield from mpi.wait(reqs.pop(0))
            if mpi.rank == 0:
                req = yield from comm.isend(buf, dest=1, tag=1, nbytes=nbytes)
            else:
                req = yield from comm.irecv(nbytes, source=0, tag=1, buffer=buf)
            reqs.append(req)
        yield from mpi.waitall(reqs)
        if mpi.rank == 0:
            yield from comm.recv(source=1, tag=2, nbytes=0)
        else:
            yield from comm.send(b"", dest=0, tag=2, nbytes=0)
        return mpi.now - t0

    options = Elan4PtlOptions(reliability=True, chained_fin=False)
    results, _ = run_mpi_app(app, cluster=cluster, elan4_options=options)
    return list(cluster.sim.trace), cluster.sim.now, results


def test_fast_paths_never_change_modelled_behaviour(monkeypatch):
    """The tentpole invariant: on a mixed workload (sends, cancelled
    timers, a mid-stream rail kill), an 8-node alltoall and a lossy
    retransmit storm, the fast-path run and the REPRO_SIM_SLOWPATH=1
    reference run produce bit-identical semantic traces, clocks and
    modelled results."""
    for workload in (_mixed_workload, _alltoall8, _retransmit_storm):
        monkeypatch.setenv("REPRO_SIM_SLOWPATH", "0")
        fast = workload()
        monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
        slow = workload()
        assert fast[0], f"{workload.__name__} produced no semantic events"
        if workload is not _alltoall8:
            assert any(ev[1] != "deliver" for ev in fast[0]), (
                f"{workload.__name__} produced no loss/drop events")
        assert fast == slow, workload.__name__
