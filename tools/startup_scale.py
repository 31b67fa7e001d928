#!/usr/bin/env python3
"""Job start-up cost as the rank count grows.

    python tools/startup_scale.py [--ranks 8,32,128,256] [--runs 3]

For each rank count N it launches an N-rank Elan4 job, one rank per node
(the ``coll_wide`` shape), and stops the simulation the moment rank 0
leaves its first ``MPI_Barrier``: that barrier ends start-up (launch, OOB
registration, the modex table, PTL open/init and wire-up).  It prints,
per N:

* ``events``: kernel events processed up to that moment;
* ``events/rank``: the same divided by N, flat when start-up is linear;
* ``sim.now``: the modelled time of that moment, in µs;
* ``ms/rank``: the median, over ``--runs`` runs, of the wall-clock time
  from before ``Cluster(...)`` to that moment, divided by N.

The first three columns are deterministic (``tests/rte/test_startup_scaling.py``
pins them); the last is host time and moves with the machine.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.cluster import Cluster  # noqa: E402
from repro.rte.environment import RteJob  # noqa: E402

SEED = 20050404


def startup(ranks: int, seed: int = SEED) -> Dict[str, float]:
    """One start-up of an N-rank Elan4 job, to rank 0's first barrier."""
    t0 = time.perf_counter()
    cluster = Cluster(nodes=ranks, seed=seed)
    sim = cluster.sim
    ready: Dict[str, float] = {}

    def app(mpi):
        yield from mpi.comm_world.barrier()
        if mpi.rank == 0:
            ready["wall_s"] = time.perf_counter() - t0
            ready["sim_now"] = mpi.now
            sim.stop()

    job = RteJob(cluster)
    for rank in range(ranks):
        job.launch(rank, app, group="world", group_count=ranks)
    sim.run()
    if "sim_now" not in ready:
        raise RuntimeError(f"{ranks} ranks: rank 0 never left its first barrier")
    events = sim.events_processed
    job.wait()  # the rest of the job: finalize, and re-raise any failure
    return {"events": events, "events_per_rank": events / ranks,
            "sim_now": ready["sim_now"], "wall_ms_per_rank": 1e3 * ready["wall_s"] / ranks}


def measure(ranks: int, runs: int = 3) -> Dict[str, float]:
    """``startup`` ``runs`` times; the deterministic columns must agree and
    the wall column is their median."""
    samples = [startup(ranks) for _ in range(runs)]
    first = samples[0]
    for s in samples[1:]:
        if (s["events"], s["sim_now"]) != (first["events"], first["sim_now"]):
            raise RuntimeError(f"{ranks} ranks: start-up is not deterministic")
    return dict(first, wall_ms_per_rank=statistics.median(
        s["wall_ms_per_rank"] for s in samples))


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ranks", default="8,32,128,256",
                    help="comma-separated rank counts (default: %(default)s)")
    ap.add_argument("--runs", type=int, default=3,
                    help="runs per rank count for the wall median (default: %(default)s)")
    args = ap.parse_args(argv)
    print(f"{'ranks':>6} {'events':>9} {'events/rank':>12} {'sim.now us':>11} {'ms/rank':>8}")
    for n in (int(x) for x in args.ranks.split(",")):
        m = measure(n, args.runs)
        print(f"{n:6d} {m['events']:9d} {m['events_per_rank']:12.1f} "
              f"{m['sim_now']:11.1f} {m['wall_ms_per_rank']:8.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
