"""Parallel sample sort — the irregular-communication workload.

Every rank holds seeded random keys, splitters are agreed via
gather+bcast, and an all-to-all personalized exchange (per-pair payload
sizes unknown in advance) redistributes the keys so rank i ends up with
the i-th quantile, locally sorted.  Verifies against a serial sort of
the same seeded data at rank 0.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

import numpy as np

__all__ = ["sample_sort_app"]


def sample_sort_app(
    keys_per_rank: int = 4096,
    seed_base: int = 1000,
    verbose: bool = False,
    on_step: Optional[Callable[[int, float], None]] = None,
) -> Callable[[Any], Generator]:
    """Build the per-rank sample-sort coroutine.

    Each rank returns the size of its sorted quantile (ints summing to
    ``np * keys_per_rank``).  ``on_step`` fires once per phase
    (splitter agreement, exchange, verification gather).
    """

    def app(mpi: Any) -> Generator:
        n = mpi.size
        rng = np.random.default_rng(seed_base + mpi.rank)
        keys = rng.integers(0, 1 << 30, keys_per_rank, dtype=np.int64)
        t0 = mpi.now

        # 1. sample local keys; gather samples; root picks splitters
        local_sample = np.sort(rng.choice(keys, size=min(n, keys_per_rank),
                                          replace=False))
        samples = yield from mpi.comm_world.gather(local_sample.tobytes(), root=0)
        if mpi.rank == 0:
            pool = np.sort(np.concatenate(
                [np.frombuffer(s, dtype=np.int64) for s in samples]))
            splitters = pool[n - 1 :: n][: n - 1]
            payload = splitters.tobytes()
        else:
            payload = None
        payload = yield from mpi.comm_world.bcast(payload, root=0)
        splitters = np.frombuffer(payload, dtype=np.int64)
        if on_step is not None:
            on_step(mpi.rank, mpi.now - t0)

        # 2. partition local keys by splitter, exchange all-to-all
        t_phase = mpi.now
        buckets = np.searchsorted(splitters, keys, side="right")
        chunks = [keys[buckets == dst].tobytes() for dst in range(n)]
        # no size hint: bucket sizes differ by rank, so no common one exists
        received = yield from mpi.comm_world.alltoall(chunks)
        if on_step is not None:
            on_step(mpi.rank, mpi.now - t_phase)

        # 3. local sort of my quantile
        mine = np.sort(np.concatenate(
            [np.frombuffer(r, dtype=np.int64) for r in received]))
        elapsed = mpi.now - t0

        # 4. verification: gather everything back at root
        t_phase = mpi.now
        parts = yield from mpi.comm_world.gather(mine.tobytes(), root=0)
        if on_step is not None:
            on_step(mpi.rank, mpi.now - t_phase)
        if mpi.rank == 0:
            sorted_parallel = np.concatenate(
                [np.frombuffer(p, dtype=np.int64) for p in parts])
            all_keys = np.concatenate(
                [np.random.default_rng(seed_base + r).integers(
                    0, 1 << 30, keys_per_rank, dtype=np.int64)
                 for r in range(n)]
            )
            reference = np.sort(all_keys)
            assert np.array_equal(sorted_parallel, reference)
            if verbose:
                sizes = [len(p) // 8 for p in parts]
                print(f"sorted {n * keys_per_rank} keys on {n} ranks "
                      f"in {elapsed:.0f} simulated us")
                print(f"bucket sizes: {sizes} "
                      f"(imbalance {max(sizes) / (sum(sizes) / n):.2f}x)")
                print("parallel result matches serial sort")
        return int(mine.size)

    return app
