"""Integration tests of the full stack over PTL/Elan4: correctness of every
protocol path (eager, rendezvous read/write, inline/no-inline, chained/host
FIN, all completion-queue modes), data integrity, and the latency relations
the paper reports."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ptl.elan4.module import Elan4PtlOptions
from tests.conftest import pingpong_app, pingpong_latency, run_mpi_app


def transfer_ok(n, opts=None, **kwargs):
    payload = np.random.default_rng(n + 1).integers(0, 256, max(n, 1), dtype=np.uint8)[:n]
    results, cluster = run_mpi_app(
        pingpong_app(n, iters=2, payload=payload), elan4_options=opts, **kwargs
    )
    cluster.assert_no_drops()
    return results[1] is True


# ------------------------------------------------------------- correctness
@pytest.mark.parametrize("n", [0, 1, 4, 64, 1024, 1984, 1985, 4096, 65536])
def test_default_stack_all_sizes(n):
    assert transfer_ok(n)


@pytest.mark.parametrize(
    "scheme,inline,chained,cq",
    list(
        itertools.product(
            ["read", "write"], [False, True], [True, False],
            ["none", "one-queue", "two-queue"],
        )
    ),
)
def test_every_option_combination_is_lossless(scheme, inline, chained, cq):
    opts = Elan4PtlOptions(
        rdma_scheme=scheme,
        inline_rndv_data=inline,
        chained_fin=chained,
        completion_queue=cq,
    )
    assert transfer_ok(100_000, opts)


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(0, 200_000),
    scheme=st.sampled_from(["read", "write"]),
    inline=st.booleans(),
)
def test_property_any_size_any_scheme_lossless(n, scheme, inline):
    opts = Elan4PtlOptions(rdma_scheme=scheme, inline_rndv_data=inline)
    assert transfer_ok(n, opts)


def test_unexpected_rendezvous_matched_late():
    """RNDV arriving before the receive is posted must wait on the
    unexpected queue and complete once posted."""
    n = 50_000
    payload = np.random.default_rng(7).integers(0, 256, n, dtype=np.uint8)

    def app(mpi):
        if mpi.rank == 0:
            buf = mpi.alloc(n)
            buf.write(payload)
            yield from mpi.comm_world.send(buf, dest=1, tag=1)
            return "sent"
        else:
            # dawdle so the RNDV is long unexpected
            yield from mpi.thread.sleep(200.0)
            data, st = yield from mpi.comm_world.recv(source=0, tag=1, nbytes=n)
            return bool(np.array_equal(data, payload))

    results, cluster = run_mpi_app(app)
    assert results[1] is True


def test_many_outstanding_messages_same_pair():
    """A window of isends against preposted irecvs — exercises send-buffer
    recycling and per-peer ordering."""
    window, n = 24, 512

    def app(mpi):
        if mpi.rank == 0:
            reqs = []
            for i in range(window):
                buf = mpi.alloc(n)
                buf.fill(i)
                reqs.append((yield from mpi.comm_world.isend(buf, dest=1, tag=i)))
            yield from mpi.waitall(reqs)
            return "sent"
        else:
            reqs = []
            for i in range(window):
                reqs.append((yield from mpi.comm_world.irecv(n, source=0, tag=i)))
            yield from mpi.waitall(reqs)
            vals = [int(r.buffer.read()[0]) for r in reqs]
            return vals

    results, cluster = run_mpi_app(app)
    assert results[1] == list(range(window))
    cluster.assert_no_drops()


def test_messages_to_many_peers():
    def app(mpi):
        me = mpi.rank
        reqs = []
        for peer in range(mpi.size):
            if peer == me:
                continue
            buf = mpi.alloc(128)
            buf.fill(me)
            reqs.append((yield from mpi.comm_world.isend(buf, dest=peer, tag=me)))
        got = {}
        for peer in range(mpi.size):
            if peer == me:
                continue
            data, st = yield from mpi.comm_world.recv(source=peer, tag=peer, nbytes=128)
            got[peer] = int(data[0])
        yield from mpi.waitall(reqs)
        return got

    results, cluster = run_mpi_app(app, nodes=4, np_=4)
    for me, got in results.items():
        assert got == {p: p for p in range(4) if p != me}


def test_send_to_self():
    def app(mpi):
        buf = mpi.alloc(256)
        buf.fill(9)
        req = yield from mpi.comm_world.isend(buf, dest=mpi.rank, tag=1)
        data, st = yield from mpi.comm_world.recv(source=mpi.rank, tag=1, nbytes=256)
        yield from mpi.wait(req)
        return int(data[0])

    results, _ = run_mpi_app(app, nodes=1, np_=1)
    assert results[0] == 9


# --------------------------------------------------------- paper relations
def test_read_beats_write_above_threshold():
    """§6.1: "RDMA read is able to deliver better performance compared to
    RDMA write ... saves a control packet"."""
    n = 4096
    lat_read = pingpong_latency(n, elan4_options=Elan4PtlOptions(rdma_scheme="read"))
    lat_write = pingpong_latency(n, elan4_options=Elan4PtlOptions(rdma_scheme="write"))
    assert lat_read < lat_write


def test_no_inline_beats_inline():
    """§6.1: transmitting the rendezvous without inlined data improves all
    sizes (saves the pack copy; RDMA places data directly)."""
    n = 8192
    lat_no = pingpong_latency(n, elan4_options=Elan4PtlOptions(inline_rndv_data=False))
    lat_in = pingpong_latency(n, elan4_options=Elan4PtlOptions(inline_rndv_data=True))
    assert lat_no < lat_in


def test_dtp_costs_about_0_4us():
    """§6.1: the datatype engine adds ≈0.4 µs per one-way transfer."""
    lat_memcpy = pingpong_latency(64, datatype_mode="memcpy")
    lat_dtp = pingpong_latency(64, datatype_mode="dtp")
    assert 0.2 < lat_dtp - lat_memcpy < 0.7


def test_chained_fin_helps_long_messages():
    """Fig. 8: chaining the FIN_ACK gives a (marginal) improvement."""
    n = 16384
    lat_chain = pingpong_latency(n, elan4_options=Elan4PtlOptions(chained_fin=True))
    lat_host = pingpong_latency(n, elan4_options=Elan4PtlOptions(chained_fin=False))
    assert lat_chain < lat_host


def test_completion_queue_costs_something():
    """Fig. 8: the shared completion queue's chained QDMA is measurable."""
    n = 16384
    lat_none = pingpong_latency(n, elan4_options=Elan4PtlOptions(completion_queue="none"))
    lat_one = pingpong_latency(
        n, elan4_options=Elan4PtlOptions(completion_queue="one-queue")
    )
    lat_two = pingpong_latency(
        n, elan4_options=Elan4PtlOptions(completion_queue="two-queue")
    )
    assert lat_none < lat_one
    assert lat_none < lat_two
    # §6.2: one-queue ≈ two-queue under polling
    assert abs(lat_one - lat_two) < 1.0


def test_eager_threshold_switches_protocol():
    """Crossing 1984 B switches eager → rendezvous (verified structurally;
    latency stays comparable at the boundary because the read scheme's
    zero-copy path offsets the extra handshake — the §6.1 no-inline story)."""

    def run(n):
        counts = {}

        def app(mpi):
            buf = mpi.alloc(n)
            if mpi.rank == 0:
                yield from mpi.comm_world.send(buf, dest=1, tag=1, nbytes=n)
            else:
                yield from mpi.comm_world.recv(source=0, tag=1, nbytes=n)
            m = mpi.stack.pml.modules[0]
            counts[mpi.rank] = (m.eager_sends, m.rndv_sends)

        run_mpi_app(app)
        return counts[0]

    assert run(1984) == (1, 0)  # at the threshold: still eager
    assert run(1985) == (0, 1)  # one byte over: rendezvous
    # and the latencies stay in the same regime (no cliff in either direction)
    assert abs(pingpong_latency(1985) - pingpong_latency(1984)) < 3.0
