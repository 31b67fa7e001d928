"""Golden fingerprints of Tport and the Elan hardware collectives.

The ledger workloads never run Tport (only the MPICH-QsNetII comparator
does) nor the hardware broadcast (an un-hinted ``bcast`` takes the band
default), so ``tools/digests.json`` cannot guard them.  These scenarios do:
per case, the sha256 of the fabric's semantic trace (``sim.trace``: every
delivery and drop with its time, kind, endpoints, size and wire sequence
number), the final clock, the trace length and the per-rank results.  A
change that moves one of them has moved the model.

* MPICH-QsNetII over Tport: a ping-pong, then a window-8 stream whose
  receiver posts late, so every message lands in the NIC's unexpected
  table first — eager and rendezvous sizes, store-and-forward and
  cut-through NIC payload paths;
* an all-to-all Tport exchange with several ranks per NIC, where sends and
  landings contend for the bus and the links in the same instants;
* raw :meth:`HwBroadcastGroup.bcast` with two roots broadcasting at once;
* MPI jobs with every ``bcast`` forced onto the hardware path, an
  ``isend`` / ``irecv`` pair in flight beside it and a hardware barrier
  after it (16 ranks on 8 nodes puts two members on every NIC).
"""

import hashlib

import numpy as np
import pytest

from repro.baselines.mpich_qsnet import MpichQsnetJob
from repro.cluster import Cluster
from repro.config import default_config
from repro.elan4.hwbcast import make_group

from tests.conftest import run_mpi_app


def _fingerprint(sim, results):
    h = hashlib.sha256()
    for entry in sim.trace:
        # plain Python scalars: a numpy int's repr differs between versions
        h.update(repr(tuple(x if isinstance(x, str) else float(x)
                            for x in entry)).encode())
    return h.hexdigest()[:16], round(sim.now, 6), len(sim.trace), results


def _cluster(nodes, flit=0):
    config = default_config().variant(nic_cutthrough_flit=flit)
    cluster = Cluster(nodes=nodes, config=config)
    cluster.sim.trace = []
    return cluster


def _payload(nbytes, seed):
    return np.random.default_rng(seed).integers(0, 256, nbytes, dtype=np.uint8)


# ------------------------------------------------------------ Tport (MPICH)
def _tport_app(nbytes, iters=3, messages=8, window=8, late_us=300.0):
    payload = _payload(nbytes, nbytes)

    def app(api):
        bufs = [api.alloc(nbytes) for _ in range(window)]
        token = api.alloc(1)
        if api.rank == 0:
            bufs[0].write(payload)
            t0 = api.now
            for _ in range(iters):
                yield from api.send(bufs[0], 1, tag=1, nbytes=nbytes)
                yield from api.recv(bufs[1], source=1, tag=2)
            pingpong = (api.now - t0) / (2 * iters)
            for buf in bufs:
                buf.write(payload)
            t0 = api.now
            sends = []
            for i in range(messages):
                if len(sends) >= window:
                    yield from api.wait(sends.pop(0))
                sends.append((yield from api.isend(bufs[i % window], 1, tag=3,
                                                   nbytes=nbytes)))
            for ev in sends:
                yield from api.wait(ev)
            yield from api.recv(token, source=1, tag=4)
            return round(pingpong, 6), round(api.now - t0, 6)
        ok = True
        for _ in range(iters):
            msg = yield from api.recv(bufs[0], source=0, tag=1)
            ok = ok and msg.nbytes == nbytes
            yield from api.send(bufs[0], 0, tag=2, nbytes=nbytes)
        # post late: the whole window is already in the unexpected table
        yield from api.thread.sleep(late_us)
        recvs = []
        for i in range(messages):
            if len(recvs) >= window:
                yield from api.wait(recvs.pop(0))
            recvs.append((yield from api.irecv(bufs[i % window], source=0, tag=3)))
        for ev in recvs:
            yield from api.wait(ev)
        for buf in bufs:
            ok = ok and np.array_equal(buf.read(0, nbytes), payload)
        yield from api.send(token, 0, tag=4, nbytes=0)
        return ok

    return app


def _tport_exchange_app(sizes, messages=16, window=8):
    """Every rank streams to every other rank at once, each receive posted
    beside its send: landings and sends on a NIC ask for its PCI bus and
    injection link in the same instants, so the order of those requests
    shows in the trace."""

    def app(api):
        n = api.size
        bufs = [api.alloc(max(sizes)) for _ in range(window)]
        inboxes = [api.alloc(max(sizes)) for _ in range(window * n)]
        events = []
        for i in range(messages):
            for peer in range(n):
                if peer == api.rank:
                    continue
                inbox = inboxes[(i * n + peer) % len(inboxes)]
                events.append((yield from api.irecv(inbox, source=peer, tag=i)))
                events.append((yield from api.isend(
                    bufs[i % window], peer, tag=i, nbytes=sizes[i % len(sizes)])))
            while len(events) > 4 * window:
                yield from api.wait(events.pop(0))
        for ev in events:
            yield from api.wait(ev)
        return round(api.now, 6)

    return app


def _tport_exchange(np_, nodes, sizes, flit=0):
    cluster = _cluster(nodes, flit)
    results = MpichQsnetJob(cluster, np=np_).run(_tport_exchange_app(sizes))
    cluster.assert_no_drops()
    return _fingerprint(cluster.sim, [results[r] for r in range(np_)])


def _tport(nbytes, flit):
    cluster = _cluster(2, flit)
    job = MpichQsnetJob(cluster)
    results = job.run(_tport_app(nbytes))
    assert results[1] is True
    cluster.assert_no_drops()
    tport = cluster.nics[1].tport
    return _fingerprint(cluster.sim,
                        (*results[0], tport.matches, tport.unexpected_hits))


# -------------------------------------------------- raw hardware broadcast
def _hwbcast(nodes, nbytes, flit=0):
    cluster = _cluster(nodes, flit)
    ctxs = [cluster.claim_context(i) for i in range(nodes)]
    cluster.capability.seal_static_cohort()
    group = make_group(ctxs)
    roots = {0: ctxs[0], 1: ctxs[-1]}
    payloads = {seq: _payload(nbytes, seq) for seq in roots}
    finished = {}

    for seq, root in roots.items():
        def body(thread, seq=seq, root=root):
            yield from group.bcast(thread, root, payloads[seq], seq=seq)
            finished[seq] = round(cluster.sim.now, 6)

        cluster.nodes[root.entry.node_id].spawn_thread(body)
    arrivals = []
    got = {(ctx.vpid, seq): bytearray(nbytes) for ctx in ctxs for seq in roots}
    while True:
        cluster.run()
        polled = False
        for ctx in ctxs:
            msg = group.queue_of(ctx).poll()
            while msg is not None:
                polled = True
                seq, offset = msg.meta["seq"], msg.meta["offset"]
                got[ctx.vpid, seq][offset:offset + msg.nbytes] = msg.data.tobytes()
                arrivals.append((ctx.vpid, seq, offset, round(msg.arrived_at, 6)))
                msg = group.queue_of(ctx).poll()
        if not polled:
            break
    for (vpid, seq), data in got.items():
        assert bytes(data) == payloads[seq].tobytes(), (vpid, seq)
    cluster.assert_no_drops()
    digest = hashlib.sha256(repr(arrivals).encode()).hexdigest()[:16]
    return _fingerprint(cluster.sim, (finished[0], finished[1], len(arrivals), digest))


# ------------------------------------------------ MPI with hw collectives
BCAST_SIZES = [0, 1, 1024, 2048, 2049, 8192, 20000, 65536, 102400]


def _mpi_hw_app(mpi):
    comm = mpi.comm_world
    yield from comm.barrier()
    n, rank = comm.size, comm.rank
    ok = True
    inbox = mpi.alloc(512)
    for i, nbytes in enumerate(BCAST_SIZES):
        root = (3 * i) % n
        payload = _payload(nbytes, i).tobytes()
        # a point-to-point pair in flight beside the broadcast
        rreq = yield from comm.irecv(512, source=(rank - 1) % n, tag=i, buffer=inbox)
        out = mpi.alloc(512)
        out.write(_payload(512, 100 + rank))
        sreq = yield from comm.isend(out, dest=(rank + 1) % n, tag=i, nbytes=512)
        got = yield from comm.bcast(payload if rank == root else None, root=root,
                                    nbytes=nbytes)
        ok = ok and bytes(got) == payload
        yield from mpi.waitall([sreq, rreq])
        ok = ok and np.array_equal(inbox.read(), _payload(512, 100 + (rank - 1) % n))
        yield from comm.barrier()
    assert ok
    return round(mpi.now, 6)


def _mpi_hw(monkeypatch, np_, nodes):
    monkeypatch.setenv("REPRO_COLL_BCAST", "hw")
    monkeypatch.setenv("REPRO_COLL_BARRIER", "hw-tree")
    cluster = _cluster(nodes)
    results, _ = run_mpi_app(_mpi_hw_app, np_=np_, cluster=cluster)
    cluster.assert_no_drops()
    groups = cluster.coll_hw._shared.values()
    used = (
        cluster.coll_hw.hw_fallbacks,
        sum(s.bcast_group.broadcasts for s in groups if s.bcast_group),
        sum(s.barrier_group.barriers_completed for s in groups if s.barrier_group),
    )
    return _fingerprint(cluster.sim, (used, [results[r] for r in range(np_)]))


SCENARIOS = {
    **{f"tport_{n}B_flit{f}": (lambda n=n, f=f: _tport(n, f))
       for n in (0, 4, 1024, 4096, 4097, 16384, 262144) for f in (0, 256)},
    "tport_exchange_8r4n": lambda: _tport_exchange(8, 4, [0, 4, 1000, 4096]),
    "tport_exchange_4r2n_flit256": lambda: _tport_exchange(
        4, 2, [64, 4096, 5000, 1024], flit=256),
    **{f"hwbcast_{nodes}n_{n}B": (lambda nodes=nodes, n=n: _hwbcast(nodes, n))
       for nodes in (2, 4, 8) for n in (0, 1024, 8192, 20000)},
    "hwbcast_8n_20000B_flit256": lambda: _hwbcast(8, 20000, flit=256),
}

MPI_SCENARIOS = {"mpi_hw_8r_8n": (8, 8), "mpi_hw_16r_16n": (16, 16),
                 "mpi_hw_16r_8n": (16, 8)}

#: scenario -> (sha256(sim.trace)[:16], final sim.now, trace entries, results)
GOLDEN = {
    "hwbcast_2n_0B": ("957847c196f7c8ae", 3.206, 4,
                      (2.106, 2.106, 4, "e5676343e8b066b5")),
    "hwbcast_2n_1024B": ("ea3652d505a33eee", 7.43032, 4,
                         (4.15944, 4.15944, 4, "15f7f913f7b5f674")),
    "hwbcast_2n_20000B": ("6952a98b2028e68d", 90.16, 40,
                          (85.73584, 85.73584, 40, "f332c66b529fbed7")),
    "hwbcast_2n_8192B": ("dbea756eae35f322", 38.31856, 16,
                         (32.8768, 32.8768, 16, "efb19d96fdfc4895")),
    "hwbcast_4n_0B": ("5e966712d9d216e4", 3.256, 8,
                      (2.106, 2.106, 8, "f53ab713b28b605e")),
    "hwbcast_4n_1024B": ("6a21eefde5d1e322", 7.48032, 8,
                         (4.15944, 4.15944, 8, "1f4b4eb1b9b62b85")),
    "hwbcast_4n_20000B": ("85043ee0fac1e365", 90.21, 80,
                          (85.73584, 85.73584, 80, "2e151b8801af181f")),
    "hwbcast_4n_8192B": ("956f4e4e889acbe5", 38.36856, 32,
                         (32.8768, 32.8768, 32, "e4569c440a803b4e")),
    "hwbcast_8n_0B": ("2d4bd3c87783e1e7", 3.256, 16,
                      (2.106, 2.106, 16, "2051427e5de499ab")),
    "hwbcast_8n_1024B": ("4defbbf5fe55e0f7", 7.48032, 16,
                         (4.15944, 4.15944, 16, "926342e7652535d6")),
    "hwbcast_8n_20000B": ("525df294b3020244", 90.21, 160,
                          (85.73584, 85.73584, 160, "f2d1c7c8b02594e7")),
    "hwbcast_8n_20000B_flit256": ("eacea2172971931f", 80.4, 160,
                                  (73.7676, 73.7676, 160, "898e8f94cc83dfb0")),
    "hwbcast_8n_8192B": ("52aec5a9eafd2731", 38.36856, 64,
                         (32.8768, 32.8768, 64, "2427e81eaceb538f")),
    "mpi_hw_16r_16n": ("d76100b57c460880", 1793.31482, 2086,
                       ((0, 9, 10),
                        [1486.18602, 1486.23602, 1486.23602, 1486.23602, 1486.33602,
                         1486.33602, 1486.33602, 1486.33602, 1486.33602, 1486.33602,
                         1486.33602, 1486.33602, 1486.33602, 1486.33602, 1486.33602,
                         1486.33602])),
    "mpi_hw_16r_8n": ("54845ebb7bb97a7e", 2055.27401, 1180,
                      ((0, 9, 10),
                       [1748.14521, 1748.19521, 1748.19521, 1748.19521, 1748.19521,
                        1748.19521, 1748.19521, 1748.19521, 1748.14521, 1748.19521,
                        1748.19521, 1748.19521, 1748.19521, 1748.19521, 1748.19521,
                        1748.19521])),
    "mpi_hw_8r_8n": ("9bdda5a64ce61d87", 1372.29882, 1038,
                     ((0, 9, 10),
                      [1168.26482, 1168.31482, 1168.31482, 1168.31482, 1168.31482,
                       1168.31482, 1168.31482, 1168.31482])),
    "tport_exchange_4r2n_flit256": ("7b985ef79c21d537", 644.41192, 384,
                                    [639.3368, 639.2388, 640.18152, 643.22376]),
    "tport_exchange_8r4n": ("9fb189de0edbfc36", 821.89752, 896,
                            [802.68048, 798.13872, 784.51344, 775.42992,
                             811.764, 811.764, 809.362, 821.89752]),
    "tport_0B_flit0": ("76cf5c2629231640", 325.88, 15, (2.37, 310.46, 3, 8)),
    "tport_0B_flit256": ("76cf5c2629231640", 325.88, 15, (2.37, 310.46, 3, 8)),
    "tport_1024B_flit0": ("2f7494587ab05e04", 352.76136, 15,
                          (5.70888, 317.30808, 3, 8)),
    "tport_1024B_flit256": ("43d26fb185c3514f", 344.3924, 15,
                            (4.08072, 318.70808, 3, 8)),
    "tport_16384B_flit0": ("cbd2258fb41db0b7", 631.17488, 99,
                           (28.2068, 460.73408, 3, 8)),
    "tport_16384B_flit256": ("cbd2258fb41db0b7", 631.17488, 99,
                             (28.2068, 460.73408, 3, 8)),
    "tport_262144B_flit0": ("5cf9298e2e9397a6", 4446.25328, 939,
                            (300.7124, 2640.77888, 3, 8)),
    "tport_262144B_flit256": ("5cf9298e2e9397a6", 4446.25328, 939,
                              (300.7124, 2640.77888, 3, 8)),
    "tport_4096B_flit0": ("0e9d798c30960f1f", 428.45544, 15,
                          (14.52552, 340.10232, 3, 8)),
    "tport_4096B_flit256": ("8a186113b90b1a6e", 400.09304, 15,
                            (9.035053, 344.68272, 3, 8)),
    "tport_4097B_flit0": ("a9e3baa57e56bd2b", 452.03369, 71,
                          (14.78258, 362.13821, 3, 8)),
    "tport_4097B_flit256": ("a9e3baa57e56bd2b", 452.03369, 71,
                            (14.78258, 362.13821, 3, 8)),
    "tport_4B_flit0": ("87c74ee13b3c54a0", 328.34888, 15, (2.78148, 310.46, 3, 8)),
    "tport_4B_flit256": ("87c74ee13b3c54a0", 328.34888, 15, (2.78148, 310.46, 3, 8)),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_tport_and_hwbcast_match_golden(name):
    assert SCENARIOS[name]() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(MPI_SCENARIOS))
def test_mpi_hw_collectives_match_golden(name, monkeypatch):
    assert _mpi_hw(monkeypatch, *MPI_SCENARIOS[name]) == GOLDEN[name]
