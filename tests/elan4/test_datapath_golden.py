"""Golden fingerprints of the Elan4 NIC data path, and its abort paths.

The RDMA / QDMA / fabric / PCI engines are plain callbacks (DESIGN.md §6,
"Callback-form engines"); they replaced one coroutine per packet and must
place every packet on the wire at the same instant *and in the same
same-instant order* as those coroutines did.  ``GOLDEN`` was captured on the
last coroutine-engine commit: the sha256 of the fabric's semantic trace
(``sim.trace``: every delivery, loss and drop with its time, kind, endpoints
and wire sequence number) and the final clock, per scenario.  A change that
moves one of them has moved the model.

The second half provokes each abort path of the engines and checks that the
DMA engine, the pending-operation slot, the read table and the QSLOTs all
come back.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core.ptl.elan4.module import Elan4PtlOptions
from repro.elan4.network import FabricError
from repro.elan4.rdma import CHUNK_BYTES, RdmaDescriptor
from repro.faults import FaultInjector, FaultPlan
from repro.mpi.world import make_mpi_stack_factory
from repro.rte.environment import RteJob

from tests.conftest import pingpong_app


# ------------------------------------------------------------------ scenarios
def _stream_app(nbytes, messages, window, start_us=0.0):
    """Rank 0 streams ``messages`` x ``nbytes`` to rank 1, ``window`` in
    flight, seeded payloads verified at the receiver."""
    payload = np.random.default_rng(nbytes).integers(0, 256, nbytes, dtype=np.uint8)

    def app(mpi):
        comm = mpi.comm_world
        if start_us:
            yield from mpi.thread.sleep(start_us - mpi.now)
        bufs = [mpi.alloc(nbytes) for _ in range(window)]
        reqs = []
        if mpi.rank == 0:
            for i in range(messages):
                if len(reqs) >= window:
                    yield from mpi.wait(reqs.pop(0))
                bufs[i % window].write(payload)
                reqs.append((yield from comm.isend(
                    bufs[i % window], dest=1, tag=1, nbytes=nbytes)))
            yield from mpi.waitall(reqs)
            yield from comm.recv(source=1, tag=2, nbytes=0)
            return True
        ok = True
        for i in range(messages):
            if len(reqs) >= window:
                yield from mpi.wait(reqs.pop(0))
                ok = ok and np.array_equal(bufs[(i - window) % window].read(), payload)
            reqs.append((yield from comm.irecv(
                nbytes, source=0, tag=1, buffer=bufs[i % window])))
        yield from mpi.waitall(reqs)
        yield from comm.send(b"", dest=0, tag=2, nbytes=0)
        return ok

    return app


def _fingerprint(cluster):
    h = hashlib.sha256()
    for entry in cluster.sim.trace:
        # plain Python scalars: a numpy int's repr differs between versions
        h.update(repr(tuple(x if isinstance(x, str) else float(x)
                            for x in entry)).encode())
    return h.hexdigest()[:16], round(cluster.sim.now, 6), len(cluster.sim.trace)


def _run(app, options=None, rails=1, loss=0.0, rail_down_at=None):
    cluster = Cluster(nodes=2, rails=rails)
    cluster.sim.trace = []
    if loss:
        cluster.fabric.set_loss(loss, seed=11)
    job = RteJob(cluster, stack_factory=make_mpi_stack_factory(elan4_options=options))
    transports = ("elan4",) if rails == 1 else ("elan4", "elan4:1")
    for rank in range(2):
        job.launch(rank, app, group="world", group_count=2, transports=transports)
    if rail_down_at is not None:
        FaultInjector(cluster, FaultPlan("golden-rail-kill", seed=1).rail_down(
            rail_down_at, rail=1), job=job).arm()
    results = job.wait()
    assert all(results[rank] for rank in (0, 1))
    return cluster


def _rndv(scheme, chained):
    payload = np.random.default_rng(5).integers(0, 256, 65536, dtype=np.uint8)
    return _run(pingpong_app(65536, iters=3, payload=payload),
                Elan4PtlOptions(rdma_scheme=scheme, chained_fin=chained))


RELIABLE = Elan4PtlOptions(reliability=True, chained_fin=False)
#: past MPI wire-up on the two-rail cluster; the kill lands mid-transfer
RAIL_START_US = 2500.0

SCENARIOS = {
    "rndv_read_chained": lambda: _rndv("read", True),
    "rndv_read_nochain": lambda: _rndv("read", False),
    "rndv_write_chained": lambda: _rndv("write", True),
    "rndv_write_nochain": lambda: _rndv("write", False),
    "stream_256k_window8": lambda: _run(_stream_app(262144, 12, 8)),
    "eager_pingpong": lambda: _run(pingpong_app(
        1984, iters=12,
        payload=np.random.default_rng(6).integers(0, 256, 1984, dtype=np.uint8))),
    "reliable_loss8": lambda: _run(_stream_app(4096, 96, 8), RELIABLE, loss=0.08),
    "two_rail_rail_down": lambda: _run(
        _stream_app(65536, 8, 4, start_us=RAIL_START_US), RELIABLE, rails=2,
        rail_down_at=RAIL_START_US + 100.0),
}

#: scenario -> (sha256(sim.trace)[:16], final sim.now, trace entries)
GOLDEN = {
    "eager_pingpong": ("4f27408f34f1f4f8", 715.62528, 24),
    "reliable_loss8": ("70823b9fd6162a6f", 2251.75466, 656),
    "rndv_read_chained": ("c3d95da306d0bcec", 966.9744, 114),
    "rndv_read_nochain": ("7f52a61c48d58c9f", 968.7744, 114),
    "rndv_write_chained": ("8cca3fb52cd320fb", 978.99992, 114),
    "rndv_write_nochain": ("347ff4922b8321c7", 979.29992, 114),
    "stream_256k_window8": ("289542fe9495a99f", 3964.4232, 805),
    "two_rail_rail_down": ("08382be6984c33e3", 3324.44624, 208),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_datapath_matches_coroutine_engine_golden(name):
    cluster = SCENARIOS[name]()
    assert _fingerprint(cluster) == GOLDEN[name]
    if name not in ("reliable_loss8", "two_rail_rail_down"):
        cluster.assert_no_drops()


# ---------------------------------------------------------------- abort paths
# Each callback chain keeps the try/finally meaning of the coroutine it
# replaced: whatever interrupts it, the DMA engine, the pending-operation
# slot, the read table and the QSLOTs come back.
def _assert_all_returned(cluster, contexts, queues=()):
    for nic in cluster.nics:
        assert nic.dma_engines.in_use == 0
        assert len(nic.rdma._reads) == 0
    for ctx in contexts:
        assert ctx.pending_ops() == 0
    for q in queues:
        assert q.free_slots == q.nslots - q.pending()


def _pair(nodes=2, nbytes=4 * CHUNK_BYTES):
    cluster = Cluster(nodes=nodes)
    cluster.sim.trace = []
    a, b = cluster.claim_context(0), cluster.claim_context(nodes - 1)
    buf_a, buf_b = a.space.alloc(nbytes), b.space.alloc(nbytes)
    buf_b.write(np.random.default_rng(9).integers(0, 256, nbytes, dtype=np.uint8))
    return cluster, a, b, buf_a, buf_b


def _issue(cluster, ctx, op, local, remote, nbytes, remote_vpid):
    desc = RdmaDescriptor(op=op, local=local, remote=remote, nbytes=nbytes,
                          remote_vpid=remote_vpid)

    def issuer(t):
        yield from ctx.rdma_issue(t, desc)

    cluster.nodes[ctx.entry.node_id].spawn_thread(issuer)
    return desc


def _qdma(cluster, src, dst_vpid, nbytes=256, posted=lambda: None):
    """Post one QDMA from a host thread; returns the list its source
    completion event lands in.  ``posted()`` runs the instant the doorbell
    has been written, before the NIC processes the command."""
    events = []

    def sender(t):
        events.append((yield from src.qdma_send(
            t, dst_vpid, 0, np.full(nbytes, 7, np.uint8))))
        posted()

    cluster.nodes[src.entry.node_id].spawn_thread(sender)
    return events


def test_partitioned_fabric_returns_the_qdma_pending_slot_before_raising():
    cluster, a, b, _, _ = _pair(nodes=16)
    q = b.create_queue(0, nslots=4)
    cluster.topology.fail_leaf(15)
    events = _qdma(cluster, a, b.vpid)
    with pytest.raises(FabricError, match="partitioned"):
        cluster.run()
    assert events[0].fires == 0  # the wire refused it: not a completed send
    _assert_all_returned(cluster, [a, b], [q])


def test_partitioned_fabric_returns_the_dma_engine_before_raising():
    cluster, a, b, buf_a, buf_b = _pair(nodes=16, nbytes=CHUNK_BYTES)
    cluster.topology.fail_leaf(15)
    desc = _issue(cluster, a, "write", a.map_buffer(buf_a), b.map_buffer(buf_b),
                  CHUNK_BYTES, b.vpid)
    with pytest.raises(FabricError, match="partitioned"):
        cluster.run()
    assert desc.done.fires == 0
    _assert_all_returned(cluster, [a, b])


def test_rail_down_at_wire_time_still_completes_the_send():
    cluster, a, b, _, _ = _pair()
    q = b.create_queue(0, nslots=4)
    cluster.fabric.down = True
    events = _qdma(cluster, a, b.vpid)
    cluster.run()
    assert events[0].fires == 1  # the source buffer is reusable
    assert [e[1] for e in cluster.sim.trace] == ["rail_down_drop"]
    assert q.pending() == 0 and cluster.fabric.packets_lost == 1
    _assert_all_returned(cluster, [a, b], [q])


def test_destination_released_before_nic_processing_drops_and_completes():
    cluster, a, b, _, _ = _pair()
    q = b.create_queue(0, nslots=4)
    events = _qdma(cluster, a, b.vpid,
                   posted=lambda: cluster.capability.release(b.vpid))
    cluster.run()
    assert events[0].fires == 1
    assert [reason for _, reason, _ in cluster.nics[0].dropped] == [
        f"destination vpid {b.vpid} released"]
    assert cluster.sim.trace == []  # nothing reached the wire
    _assert_all_returned(cluster, [a], [q])


@pytest.mark.parametrize("after_dma", [False, True], ids=["mid-dma", "mid-deliver"])
def test_queue_destroyed_mid_delivery_is_noticed_at_both_checks(after_dma):
    def deliver(destroy_at=None):
        cluster, a, b, _, _ = _pair()
        q = b.create_queue(0, nslots=4)
        _qdma(cluster, a, b.vpid)
        if destroy_at is not None:
            cluster.sim.schedule(destroy_at, cluster.nics[1].qdma.destroy_queue, b.ctx, 0)
        cluster.run()
        return cluster, a, b, q

    cluster, _, _, q = deliver()
    arrived, enqueued = cluster.sim.trace[0][0], q.poll().arrived_at
    landed = enqueued - cluster.config.nic_deliver_us  # QSLOT DMA done
    cluster, a, b, q = deliver((landed + enqueued) / 2 if after_dma
                               else (arrived + landed) / 2)
    assert [reason for _, reason, _ in cluster.nics[1].dropped] == [
        "queue destroyed mid-delivery"]
    # the first check is before the slot write, the second after it
    assert bool(q.slot_buffers[0].read().any()) is after_dma
    assert q.pending() == 0 and q.inflight_deliveries == 0
    _assert_all_returned(cluster, [a, b], [q])


def test_read_cancelled_while_a_chunk_lands_ignores_the_chunk():
    def read(cancel_at=None):
        cluster, a, b, buf_a, buf_b = _pair()
        desc = _issue(cluster, a, "read", a.map_buffer(buf_a), b.map_buffer(buf_b),
                      buf_a.nbytes, b.vpid)
        if cancel_at is not None:
            cluster.sim.schedule(cancel_at, cluster.nics[0].rdma.cancel, desc)
        cluster.run()
        return cluster, a, b, buf_a, desc

    cluster, *_ = read()
    first_chunk = next(e[0] for e in cluster.sim.trace if e[2] == "rdma_read_data")
    # the watchdog gives up while the first chunk is crossing the PCI bus
    cluster, a, b, buf_a, desc = read(cancel_at=first_chunk + 1.0)
    rdma = cluster.nics[0].rdma
    assert rdma.reads_cancelled == 1 and desc.done.fires == 0
    assert not buf_a.read().any()  # no chunk of the cancelled read was written
    # chunks that arrived after the cancel were dropped as unknown
    assert [reason for _, reason, _ in cluster.nics[0].dropped] == [
        "read data for unknown request"] * 3
    _assert_all_returned(cluster, [a, b])


@pytest.mark.parametrize("op", ["write", "read"])
def test_translate_trap_releases_engine_and_pending_slot(op):
    from repro.elan4.addr import MmuTrap

    cluster, a, b, buf_a, buf_b = _pair()
    e4_a, e4_b = a.map_buffer(buf_a), b.map_buffer(buf_b)
    # write: the source mapping is gone when the engine starts; read: the
    # data holder's is gone when the request is served
    (a if op == "write" else b).unmap(e4_a if op == "write" else e4_b)
    desc = _issue(cluster, a, op, e4_a, e4_b, buf_a.nbytes, b.vpid)
    with pytest.raises(MmuTrap):
        cluster.run()
    for nic in cluster.nics:
        assert nic.dma_engines.in_use == 0
    if op == "write":
        _assert_all_returned(cluster, [a, b])
    else:
        # the request left, the holder trapped: the read stays outstanding
        # for the rendezvous watchdog, which cancels it
        assert cluster.nics[0].rdma.cancel(desc)
        _assert_all_returned(cluster, [a, b])
