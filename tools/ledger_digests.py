#!/usr/bin/env python3
"""The model-clock gate in ~20 s: one repetition per ledger workload, printing
``model_digest[:16]``, ``sim.events`` and the error count (exit 1 on errors).

    PYTHONHASHSEED=0 python tools/ledger_digests.py [--seed N] [--scale S]

``--scale 1.0`` gives the digests of ``run.py --trace 0``, ``--scale 0.5`` those of
``--trace 1``.  Run it on the parent commit and on the change: they must be equal.
"""
import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20050404)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]
    import workloads  # read-only: nothing under benchmarks/perf changes
    failed = 0
    for name in workloads.WORKLOADS:
        plan = workloads.make_plan(name, args.seed, args.scale)
        if name == "fleet_faults":  # its first repetition is the clean run the
            workloads.run_repetition(plan)  # switch-death window is derived from
        rec = workloads.run_repetition(plan)
        failed += len(rec.errors)
        print(f"{name:13s} {rec.digest()[:16]}  events={rec.events:<8d} "
              f"errors={len(rec.errors)}" + "".join(f"\n    {e}" for e in rec.errors))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
