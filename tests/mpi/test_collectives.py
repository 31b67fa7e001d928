"""Tests for the collective component (software algorithms over p2p)."""

import numpy as np
import pytest

from tests.conftest import run_mpi_app


@pytest.mark.parametrize("np_", [1, 2, 3, 4, 8])
def test_barrier_synchronizes(np_):
    """After a barrier, every rank has passed the point where the slowest
    rank entered it."""
    entered = {}
    exited = {}

    def app(mpi):
        yield from mpi.thread.sleep(mpi.rank * 50.0)  # staggered arrival
        entered[mpi.rank] = mpi.now
        yield from mpi.comm_world.barrier()
        exited[mpi.rank] = mpi.now

    run_mpi_app(app, nodes=min(np_, 8), np_=np_)
    latest_entry = max(entered.values())
    for r, t in exited.items():
        assert t >= latest_entry


@pytest.mark.parametrize("np_", [2, 3, 4, 7, 8])
@pytest.mark.parametrize("root", [0, 1])
def test_bcast_delivers_payload(np_, root):
    payload = bytes(range(256)) * 4

    def app(mpi):
        data = yield from mpi.comm_world.bcast(
            payload if mpi.rank == root else None, root=root
        )
        return data == payload

    results, _ = run_mpi_app(app, nodes=min(np_, 8), np_=np_)
    assert all(results.values())


def test_bcast_large_message():
    payload = np.random.default_rng(0).integers(0, 256, 300_000, dtype=np.uint8).tobytes()

    def app(mpi):
        data = yield from mpi.comm_world.bcast(payload if mpi.rank == 0 else None)
        return data == payload

    results, _ = run_mpi_app(app, nodes=4, np_=4)
    assert all(results.values())


@pytest.mark.parametrize("op,expect", [("sum", 0 + 1 + 2 + 3), ("max", 3), ("min", 0), ("prod", 0)])
def test_reduce_ops(op, expect):
    def app(mpi):
        arr = np.full(16, mpi.rank, dtype=np.int64)
        out = yield from mpi.comm_world.reduce(arr, op=op, root=0)
        if mpi.rank == 0:
            return int(out[0])
        assert out is None

    results, _ = run_mpi_app(app, nodes=4, np_=4)
    assert results[0] == expect


@pytest.mark.parametrize("np_", [2, 4, 8])  # powers of two: recursive doubling
def test_allreduce_power_of_two(np_):
    def app(mpi):
        arr = np.full(8, mpi.rank + 1, dtype=np.float64)
        out = yield from mpi.comm_world.allreduce(arr, op="sum")
        return float(out[0])

    results, _ = run_mpi_app(app, nodes=min(np_, 8), np_=np_)
    expect = sum(range(1, np_ + 1))
    assert all(v == expect for v in results.values())


def test_allreduce_non_power_of_two_falls_back():
    def app(mpi):
        arr = np.array([mpi.rank], dtype=np.int64)
        out = yield from mpi.comm_world.allreduce(arr, op="max")
        return int(out[0])

    results, _ = run_mpi_app(app, nodes=3, np_=3)
    assert all(v == 2 for v in results.values())


def test_gather_collects_in_rank_order():
    def app(mpi):
        out = yield from mpi.comm_world.gather(bytes([mpi.rank] * (mpi.rank + 1)), root=0)
        if mpi.rank == 0:
            return [list(b) for b in out]

    results, _ = run_mpi_app(app, nodes=4, np_=4)
    assert results[0] == [[0], [1, 1], [2, 2, 2], [3, 3, 3, 3]]


def test_scatter_distributes():
    def app(mpi):
        chunks = [bytes([10 + r]) for r in range(mpi.size)] if mpi.rank == 0 else None
        mine = yield from mpi.comm_world.scatter(chunks, root=0)
        return list(mine)

    results, _ = run_mpi_app(app, nodes=4, np_=4)
    assert results == {r: [10 + r] for r in range(4)}


def test_scatter_requires_chunks_at_root():
    from repro.mpi import MpiError

    def app(mpi):
        if mpi.rank == 0:
            with pytest.raises(MpiError):
                yield from mpi.comm_world.scatter([b"x"], root=0)  # wrong count
        yield mpi.sim.timeout(0)

    run_mpi_app(app)


@pytest.mark.parametrize("np_", [2, 3, 4, 8])
def test_allgather_everyone_sees_everything(np_):
    def app(mpi):
        blocks = yield from mpi.comm_world.allgather(bytes([mpi.rank]))
        return [b[0] for b in blocks]

    results, _ = run_mpi_app(app, nodes=min(np_, 8), np_=np_)
    assert all(v == list(range(np_)) for v in results.values())


@pytest.mark.parametrize("np_", [2, 3, 4])
def test_alltoall_personalized_exchange(np_):
    def app(mpi):
        chunks = [bytes([mpi.rank * 10 + dst]) for dst in range(mpi.size)]
        out = yield from mpi.comm_world.alltoall(chunks)
        return [b[0] for b in out]

    results, _ = run_mpi_app(app, nodes=min(np_, 8), np_=np_)
    for r, got in results.items():
        assert got == [src * 10 + r for src in range(np_)]


def test_collectives_compose_with_p2p_traffic():
    """Collective tags must not collide with user tags."""

    def app(mpi):
        other = 1 - mpi.rank
        req = yield from mpi.comm_world.irecv(8, source=other, tag=5)
        sbuf = mpi.alloc(8)
        sbuf.fill(mpi.rank)
        sreq = yield from mpi.comm_world.isend(sbuf, dest=other, tag=5)
        yield from mpi.comm_world.barrier()
        yield from mpi.waitall([req, sreq])
        return int(req.buffer.read()[0])

    results, _ = run_mpi_app(app)
    assert results == {0: 1, 1: 0}
