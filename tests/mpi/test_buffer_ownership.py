"""Buffer ownership: the MPI layer frees every buffer it staged a message
in, and never a buffer the caller passed in."""

import numpy as np

from tests.conftest import run_mpi_app


def _footprint(space):
    return space.allocated_bytes, len(space._regions)


def test_staged_buffers_are_freed():
    def app(mpi):
        space = mpi.process.space
        start = _footprint(space)
        comm = mpi.comm_world
        for _ in range(1000):
            yield from comm.barrier()
        for i in range(1000):
            if mpi.rank == 0:
                yield from comm.send(np.full(8, i % 256, np.uint8), dest=1, tag=5)
            else:
                data, _ = yield from comm.recv(source=0, tag=5, nbytes=8)
                assert (data == i % 256).all()
        for i in range(100):
            body = yield from comm.bcast(
                bytes([i]) * 8 if mpi.rank == 0 else None, root=0
            )
            assert bytes(body) == bytes([i]) * 8
        return start, _footprint(space)

    results, _ = run_mpi_app(app)
    for rank in (0, 1):
        start, end = results[rank]
        assert end == start, f"rank {rank}: {start} -> {end}"


def test_caller_buffers_are_never_freed():
    def app(mpi):
        comm = mpi.comm_world
        buf = mpi.alloc(64)
        if mpi.rank == 0:
            buf.fill(9)
            req = yield from comm.isend(buf, dest=1, tag=1)
            yield from comm.wait(req)
        else:
            data, _ = yield from comm.recv(source=0, tag=1, nbytes=64, buffer=buf)
            assert (data == 9).all()
        return bool(mpi.process.space.is_mapped(buf.addr, 64))

    results, _ = run_mpi_app(app)
    assert results == {0: True, 1: True}
