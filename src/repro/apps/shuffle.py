"""The all-to-all shuffle job — bandwidth-hungry repartitioning rounds.

Each round every rank repartitions a seeded block of int64 records to
every other rank (the map→reduce shuffle of a dataflow engine).  The
payload per pair is ``block_per_pair`` records, so one round moves
``np * (np-1) * block_per_pair * 8`` bytes across the fabric — the
fleet's designated bandwidth bully, built to congest the links the
latency-sensitive tenants also cross.

Every round self-verifies: the records rank ``d`` receives from rank
``s`` are a deterministic function of ``(s, d, round)``, so corruption
or cross-tenant bleed is detected at the first wrong byte.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

import numpy as np

__all__ = ["shuffle_app"]


def _block(src: int, dst: int, rnd: int, n_records: int) -> np.ndarray:
    """The deterministic record block ``src`` owes ``dst`` in ``rnd``."""
    base = (src * 1_000_003 + dst * 7919 + rnd * 104729) % (1 << 31)
    return np.arange(base, base + n_records, dtype=np.int64)


def shuffle_app(
    rounds: int = 5,
    block_per_pair: int = 512,
    verbose: bool = False,
    on_step: Optional[Callable[[int, float], None]] = None,
) -> Callable[[Any], Generator]:
    """Build the per-rank shuffle coroutine.

    Every rank returns the number of verified rounds.  ``on_step`` fires
    once per shuffle round with ``(rank, round_latency_us)``.
    """

    def app(mpi: Any) -> Generator:
        n = mpi.size
        t0 = mpi.now
        verified = 0
        for rnd in range(rounds):
            t_round = mpi.now
            chunks = [
                _block(mpi.rank, dst, rnd, block_per_pair).tobytes()
                for dst in range(n)
            ]
            received = yield from mpi.comm_world.alltoall(
                chunks, nbytes=block_per_pair * 8
            )
            for src, raw in enumerate(received):
                got = np.frombuffer(raw, dtype=np.int64)
                assert np.array_equal(
                    got, _block(src, mpi.rank, rnd, block_per_pair)
                ), f"shuffle round {rnd}: bad block from rank {src}"
            verified += 1
            if on_step is not None:
                on_step(mpi.rank, mpi.now - t_round)
        if verbose and mpi.rank == 0:
            elapsed = mpi.now - t0
            moved = rounds * n * n * block_per_pair * 8
            print(f"{n} ranks x {rounds} shuffle rounds moved {moved} B "
                  f"in {elapsed:.0f} us")
        return verified

    return app
