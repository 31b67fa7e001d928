"""MPI point-to-point semantics: wildcards, status, ordering, truncation."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG
from tests.conftest import run_mpi_app


def test_status_reports_source_tag_length():
    def app(mpi):
        if mpi.rank == 0:
            buf = mpi.alloc(10)
            yield from mpi.comm_world.send(buf, dest=1, tag=42)
        else:
            data, st = yield from mpi.comm_world.recv(
                source=ANY_SOURCE, tag=ANY_TAG, nbytes=100
            )
            return (st.source, st.tag, st.nbytes)

    results, _ = run_mpi_app(app)
    assert results[1] == (0, 42, 10)


def test_any_source_matches_first_arrival():
    def app(mpi):
        if mpi.rank == 2:
            sources = []
            for _ in range(2):
                data, st = yield from mpi.comm_world.recv(
                    source=ANY_SOURCE, tag=1, nbytes=16
                )
                sources.append(st.source)
            return sorted(sources)
        else:
            if mpi.rank == 1:
                yield from mpi.thread.sleep(100.0)
            buf = mpi.alloc(16)
            yield from mpi.comm_world.send(buf, dest=2, tag=1)

    results, _ = run_mpi_app(app, nodes=3, np_=3)
    assert results[2] == [0, 1]


def test_tag_selectivity():
    """A receive for tag B must not consume an earlier tag-A message."""

    def app(mpi):
        if mpi.rank == 0:
            a = mpi.alloc(8); a.fill(1)
            b = mpi.alloc(8); b.fill(2)
            yield from mpi.comm_world.send(a, dest=1, tag=100)
            yield from mpi.comm_world.send(b, dest=1, tag=200)
        else:
            data_b, _ = yield from mpi.comm_world.recv(source=0, tag=200, nbytes=8)
            data_a, _ = yield from mpi.comm_world.recv(source=0, tag=100, nbytes=8)
            return (int(data_a[0]), int(data_b[0]))

    results, _ = run_mpi_app(app)
    assert results[1] == (1, 2)


def test_same_tag_messages_arrive_in_send_order():
    def app(mpi):
        if mpi.rank == 0:
            for i in range(8):
                buf = mpi.alloc(8)
                buf.fill(i)
                yield from mpi.comm_world.send(buf, dest=1, tag=0)
        else:
            out = []
            for _ in range(8):
                data, _ = yield from mpi.comm_world.recv(source=0, tag=0, nbytes=8)
                out.append(int(data[0]))
            return out

    results, _ = run_mpi_app(app)
    assert results[1] == list(range(8))


def test_truncation_shorter_recv_buffer():
    """An incoming message longer than the posted buffer delivers only the
    posted length (our model truncates rather than erroring)."""

    def app(mpi):
        if mpi.rank == 0:
            buf = mpi.alloc(100)
            buf.fill(7)
            yield from mpi.comm_world.send(buf, dest=1, tag=1)
        else:
            data, st = yield from mpi.comm_world.recv(source=0, tag=1, nbytes=40)
            return (st.nbytes, int(data[-1]))

    results, _ = run_mpi_app(app)
    assert results[1] == (40, 7)


def test_isend_irecv_overlap():
    """Both sides post nonblocking ops first, then wait — no deadlock even
    when both send large (rendezvous) messages simultaneously."""
    n = 100_000

    def app(mpi):
        other = 1 - mpi.rank
        sbuf = mpi.alloc(n)
        sbuf.fill(mpi.rank + 1)
        space = mpi.process.space
        before = space.allocated_bytes
        rreq = yield from mpi.comm_world.irecv(n, source=other, tag=0)
        sreq = yield from mpi.comm_world.isend(sbuf, dest=other, tag=0)
        yield from mpi.waitall([sreq, rreq])
        got = rreq.buffer.read()
        # the buffer irecv staged is the caller's after the wait
        space.free(rreq.buffer)
        assert space.allocated_bytes == before
        return int(got[0])

    results, _ = run_mpi_app(app)
    assert results == {0: 2, 1: 1}


def test_sends_from_bytes_and_ndarray():
    def app(mpi):
        if mpi.rank == 0:
            yield from mpi.comm_world.send(b"hello-bytes", dest=1, tag=1)
            yield from mpi.comm_world.send(np.arange(5, dtype=np.uint8), dest=1, tag=2)
        else:
            d1, _ = yield from mpi.comm_world.recv(source=0, tag=1, nbytes=64)
            d2, _ = yield from mpi.comm_world.recv(source=0, tag=2, nbytes=64)
            return (bytes(d1), list(d2))

    results, _ = run_mpi_app(app)
    assert results[1] == (b"hello-bytes", [0, 1, 2, 3, 4])


def test_test_polls_without_blocking():
    def app(mpi):
        if mpi.rank == 0:
            yield from mpi.thread.sleep(100.0)
            buf = mpi.alloc(8)
            yield from mpi.comm_world.send(buf, dest=1, tag=1)
        else:
            req = yield from mpi.comm_world.irecv(8, source=0, tag=1)
            polls = 0
            while not mpi.test(req):
                polls += 1
                yield from mpi.progress()
                yield from mpi.thread.sleep(10.0)
            return polls > 0

    results, _ = run_mpi_app(app)
    assert results[1] is True


def test_invalid_rank_rejected():
    from repro.mpi import MpiError

    def app(mpi):
        if mpi.rank == 0:
            with pytest.raises(MpiError):
                yield from mpi.comm_world.send(b"x", dest=99, tag=0)
        yield mpi.sim.timeout(0)

    run_mpi_app(app)
