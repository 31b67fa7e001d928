"""Whole-stack property tests: randomized traffic schedules through the
full MPI/PML/PTL/NIC/fabric pipeline, checked for integrity, matching
order, and clean teardown."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.ptl.elan4.module import Elan4PtlOptions
from tests.conftest import run_mpi_app

# sizes straddling every protocol boundary
SIZE = st.sampled_from([0, 1, 63, 64, 1983, 1984, 1985, 4000, 4096, 20_000])


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    msgs=st.lists(
        st.tuples(SIZE, st.integers(0, 3)),  # (size, tag)
        min_size=1,
        max_size=10,
    ),
    scheme=st.sampled_from(["read", "write"]),
    prepost=st.booleans(),
)
# a chained FIN_ACK still queued on the event engine when the sender's
# last send completed: finalize used to release its VPID under it
@example(msgs=[(1985, 0), (1983, 0)], scheme="read", prepost=True)
def test_property_random_schedule_is_lossless_and_ordered(msgs, scheme, prepost):
    """Any mix of sizes/tags between two ranks: every byte arrives intact,
    same-tag messages match in send order, and the job tears down clean."""
    rng = np.random.default_rng(hash(tuple(msgs)) % (2**32))
    payloads = [rng.integers(0, 256, max(n, 1), dtype=np.uint8)[:n] for n, _ in msgs]

    def app(mpi):
        if mpi.rank == 0:
            reqs = []
            for (n, tag), payload in zip(msgs, payloads):
                buf = mpi.alloc(max(n, 1))
                if n:
                    buf.write(payload)
                reqs.append(
                    (yield from mpi.comm_world.isend(buf, dest=1, tag=tag, nbytes=n))
                )
            yield from mpi.waitall(reqs)
            return "sent"
        else:
            # receive per tag, in order within each tag
            by_tag = {}
            for i, (n, tag) in enumerate(msgs):
                by_tag.setdefault(tag, []).append(i)
            reqs = {}
            if prepost:
                for tag, idxs in by_tag.items():
                    for i in idxs:
                        n = msgs[i][0]
                        reqs[i] = (
                            yield from mpi.comm_world.irecv(n, source=0, tag=tag)
                        )
                for i in sorted(reqs):
                    yield from mpi.wait(reqs[i])
            else:
                for tag, idxs in by_tag.items():
                    for i in idxs:
                        n = msgs[i][0]
                        reqs[i] = (
                            yield from mpi.comm_world.irecv(n, source=0, tag=tag)
                        )
                        yield from mpi.wait(reqs[i])
            ok = True
            for i, (n, tag) in enumerate(msgs):
                got = reqs[i].buffer.read(0, n)
                if n and not np.array_equal(got, payloads[i]):
                    ok = False
            return ok

    results, cluster = run_mpi_app(
        app, elan4_options=Elan4PtlOptions(rdma_scheme=scheme)
    )
    assert results[0] == "sent"
    assert results[1] is True
    cluster.assert_no_drops()
    # teardown is clean: every context returned, nothing pending anywhere
    assert cluster.capability.live_vpids == []
    for nic in cluster.nics:
        assert not nic._pending or all(v == 0 for v in nic._pending.values())


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    np_=st.integers(2, 5),
    op=st.sampled_from(["sum", "max", "min"]),
    count=st.integers(1, 64),
    seed=st.integers(0, 1000),
)
def test_property_allreduce_matches_numpy(np_, op, count, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.integers(-1000, 1000, count).astype(np.int64) for _ in range(np_)]
    fn = {"sum": np.sum, "max": np.max, "min": np.min}[op]
    expected = fn(np.stack(arrays), axis=0)

    def app(mpi):
        out = yield from mpi.comm_world.allreduce(arrays[mpi.rank], op=op)
        return np.array_equal(out, expected)

    results, _ = run_mpi_app(app, nodes=min(np_, 8), np_=np_)
    assert all(results.values())


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    np_=st.integers(2, 4),
    chunk_sizes=st.lists(st.integers(0, 500), min_size=4, max_size=4),
    seed=st.integers(0, 100),
)
# rank 0 holds only empty chunks, ranks 1-2 hold 1 B ones: a size key taken
# from local chunks split the algorithm choice and deadlocked
@example(np_=3, chunk_sizes=[0, 0, 0, 1], seed=0)
def test_property_alltoall_permutes_correctly(np_, chunk_sizes, seed):
    rng = np.random.default_rng(seed)
    # chunks[src][dst] of varying sizes
    blobs = {
        (s, d): rng.integers(0, 256, max(chunk_sizes[(s + d) % 4], 1), dtype=np.uint8)[
            : chunk_sizes[(s + d) % 4]
        ].tobytes()
        for s in range(np_)
        for d in range(np_)
    }

    def app(mpi):
        chunks = [blobs[(mpi.rank, d)] for d in range(mpi.size)]
        out = yield from mpi.comm_world.alltoall(chunks)
        return all(out[s] == blobs[(s, mpi.rank)] for s in range(mpi.size))

    results, _ = run_mpi_app(app, nodes=min(np_, 8), np_=np_)
    assert all(results.values())
