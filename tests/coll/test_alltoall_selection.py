"""Alltoall algorithm selection must agree across ranks.

The decision table keys on message size, so the size it is given has to be
the same at every rank.  Ranks whose local chunks differ in size (rank 0
holding only empty chunks while ranks 1-2 hold 1 B ones) once keyed on
their own largest chunk, picked different algorithms, and deadlocked.
"""

from repro.coll import framework  # noqa: F401 - populates the registry
from repro.coll.decision import active_table
from repro.config import default_config
from tests.conftest import run_mpi_app

NP = 3


def _picks(chunk_of, nbytes=None):
    """Run one alltoall; returns ``{algorithm: ranks that ran it}``."""

    def app(mpi):
        chunks = [chunk_of(mpi.rank, dst) for dst in range(mpi.size)]
        out = yield from mpi.comm_world.alltoall(chunks, nbytes=nbytes)
        return all(out[src] == chunk_of(src, mpi.rank) for src in range(mpi.size))

    results, cluster = run_mpi_app(app, nodes=NP, np_=NP)
    assert results == {r: True for r in range(NP)}
    prefix = "coll.alltoall."
    return {
        k[len(prefix):]: len(v)
        for k, v in cluster.tracer.samples.items()
        if k.startswith(prefix)
    }


def _table_pick(nbytes):
    return active_table(default_config()).lookup(
        "alltoall", NP, nbytes, backend="elan4"
    )


def test_unequal_chunks_select_one_algorithm_and_complete():
    def chunk_of(src, dst):
        return b"" if src == 0 else bytes([src * 16 + dst])

    assert _picks(chunk_of) == {_table_pick(None): NP}


def test_size_hint_selects_the_band_at_every_rank():
    # the 3-rank row bands 0 B and 1 B differently, so the hint is visible
    assert _table_pick(0) != _table_pick(1)
    for hint in (0, 1):
        def chunk_of(src, dst, n=hint):
            return bytes([src * 16 + dst]) * n

        assert _picks(chunk_of, nbytes=hint) == {_table_pick(hint): NP}
