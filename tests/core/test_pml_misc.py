"""PML odds and ends: request registry, error paths, mode validation."""

import pytest

from repro.cluster import Cluster
from repro.core.pml.teg import Pml, PmlError
from repro.core.request import Request
from tests.conftest import run_mpi_app


class _FakeProcess:
    def __init__(self, cluster):
        self.job = type("J", (), {"cluster": cluster, "ft": None})()
        self.node = cluster.nodes[0]
        self.rank = 0
        self.space = self.node.new_address_space("p")
        self.main_thread = None


def make_pml(**kwargs):
    cluster = Cluster(nodes=1)
    return cluster, Pml(_FakeProcess(cluster), cluster.config, **kwargs)


def test_unknown_progress_mode_rejected():
    cluster = Cluster(nodes=1)
    with pytest.raises(PmlError, match="progress mode"):
        Pml(_FakeProcess(cluster), cluster.config, progress_mode="clairvoyant")


def test_lookup_unknown_request():
    _, pml = make_pml()
    with pytest.raises(PmlError, match="unknown request"):
        pml.lookup_request(424242)


def test_register_retire_cycle():
    cluster, pml = make_pml()
    req = Request(cluster.sim, 10)
    pml.register(req)
    assert pml.lookup_request(req.req_id) is req
    pml.retire(req)
    with pytest.raises(PmlError):
        pml.lookup_request(req.req_id)
    pml.retire(req)  # idempotent


def test_module_for_unreachable_rank():
    _, pml = make_pml()
    with pytest.raises(PmlError, match="no PTL reaches"):
        pml.module_for(7)


def test_wait_on_completed_request_is_immediate():
    def app(mpi):
        other = 1 - mpi.rank
        buf = mpi.alloc(16)
        req = yield from mpi.comm_world.isend(buf, dest=other, tag=1)
        yield from mpi.wait(req)
        t = mpi.now
        yield from mpi.wait(req)  # second wait: no time passes
        assert mpi.now == t
        yield from mpi.comm_world.recv(source=other, tag=1, nbytes=16)
        return True

    results, _ = run_mpi_app(app)
    assert all(results.values())


def test_wait_reraises_failed_request():
    cluster, pml = make_pml()
    req = Request(cluster.sim, 10)
    pml.register(req)
    req.fail(ConnectionError("injected"))
    seen = []

    def body(t):
        try:
            yield from pml.wait(t, req)
        except ConnectionError as e:
            seen.append(str(e))

    cluster.nodes[0].spawn_thread(body)
    cluster.run()
    assert seen == ["injected"]


def test_pending_requests_counter():
    cluster, pml = make_pml()
    a = Request(cluster.sim, 10)
    b = Request(cluster.sim, 10)
    pml.register(a)
    pml.register(b)
    assert pml.pending_requests() == 2
    a.add_progress(10)
    assert pml.pending_requests() == 1


def test_iprobe_does_not_consume():
    def app(mpi):
        if mpi.rank == 0:
            buf = mpi.alloc(32)
            yield from mpi.comm_world.send(buf, dest=1, tag=9)
        else:
            yield from mpi.thread.sleep(200.0)
            st1 = yield from mpi.comm_world.iprobe(source=0, tag=9)
            st2 = yield from mpi.comm_world.iprobe(source=0, tag=9)
            assert st1 is not None and st2 is not None  # still there
            yield from mpi.comm_world.recv(source=0, tag=9, nbytes=32)
            st3 = yield from mpi.comm_world.iprobe(source=0, tag=9)
            assert st3 is None  # consumed by the receive
            return True

    results, _ = run_mpi_app(app)
    assert results[1] is True


def test_rail_round_robin_cursor_skips_lower_priority():
    """The multirail round robin must never rotate onto the TCP module."""

    def app(mpi):
        if mpi.rank == 0:
            mods = {m.name: m for m in mpi.stack.pml.modules}
            buf = mpi.alloc(16)
            for i in range(6):
                yield from mpi.comm_world.send(buf, dest=1, tag=i)
            return (mods["elan4"].eager_sends, mods["tcp"].eager_sends)
        else:
            for i in range(6):
                yield from mpi.comm_world.recv(source=0, tag=i, nbytes=16)

    results, _ = run_mpi_app(app, transports=("elan4", "tcp"))
    assert results[0] == (6, 0)
