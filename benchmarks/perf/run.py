#!/usr/bin/env python3
"""The performance ledger: six workloads, both clocks, end to end and per layer.

    PYTHONPATH=src python benchmarks/perf/run.py [--seed N] [--out FILE]
        every workload, untraced then traced; prints every metric by name
        with its unit and clock, verifies outputs, writes the result file
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
        one workload, as the benchmark driver calls it: the last line of
        standard output is one JSON object (--trace 0: the end-to-end
        metrics, --trace 1: the per-layer metrics)
    python benchmarks/perf/run.py --smoke
        tiny sizes, two repetitions: checks the plumbing, not the numbers
    python benchmarks/perf/run.py --compare A.json B.json
        apply the bounds of BENCHMARK.json to two result files

Each workload runs in its own fresh single-threaded subprocess under an
8 GiB address-space limit, one at a time.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    CLOCK, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, SCHEMA, UNIT, WORKLOADS,
)

#: the host has 16 GB; coll_wide alone maps ~3.4 GB of mostly untouched
#: address space, so a blow-up becomes a counted failure, not an OOM kill
ADDRESS_SPACE_CAP = 8 << 30
#: one driver invocation must end within 180 s
DEADLINE_S = 170.0
PROBE_RANKS = (64, 256)
SMOKE_PROBE_RANKS = (8, 16)


class ChildDied(RuntimeError):
    """The measuring subprocess was killed, timed out or hit its memory cap."""


def _confine() -> None:
    """Runs in the child before exec: cap its address space and pin it to
    the last CPU it may use (the first takes most interrupts), so the
    scheduler cannot migrate a single-threaded measurement between caches."""
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spawn(mode: str, seed: int, deadline: float, workload: Optional[str] = None,
          seconds: float = 0.0, smoke: bool = False, ranks: int = 0) -> Dict[str, Any]:
    """Run ``child.py`` to completion and return the JSON it printed."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--seed", str(seed),
           "--seconds", str(seconds), "--ranks", str(ranks)]
    if workload:
        cmd += ["--workload", workload]
    if smoke:
        cmd.append("--smoke")
    # A fixed mmap threshold switches off glibc's dynamic one.  With it on,
    # freeing the first repetition's 4 MiB regions teaches malloc to carve
    # the next repetition's out of the heap, where calloc must zero them by
    # hand: coll_wide's third repetition then holds 2.9 GB resident instead
    # of 0.25 GB and pays for the memset.  Every repetition should see the
    # allocator a fresh process sees.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True, preexec_fn=_confine)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildDied(f"{mode} {workload or ranks}: timed out") from None
    if proc.returncode != 0:
        raise ChildDied(f"{mode} {workload or ranks}: exit code {proc.returncode}"
                        " (a MemoryError under the 8 GiB cap exits 1)")
    return json.loads(out.splitlines()[-1])


# ------------------------------------------------------------ one workload
def trace(workload: str, seed: int, smoke: bool, deadline: float) -> Dict[str, Any]:
    """The traced run: every per-layer metric this workload has."""
    result = spawn("trace", seed, deadline, workload, smoke=smoke)
    if workload == "coll_wide":
        m = result["metrics"]
        for label, ranks in zip(PROBE_RANKS, SMOKE_PROBE_RANKS if smoke else PROBE_RANKS):
            rep = spawn("probe", seed, deadline, ranks=ranks)
            result["attempted"] += rep["attempted"]
            result["failed"] += rep["failed"]
            result["errors"] += [f"probe {ranks}: {e}" for e in rep["errors"]]
            m[f"scale.events_per_rank_{label}"] = {"value": rep["events"] / ranks}
            if label == PROBE_RANKS[-1]:
                m[f"scale.setup_ms_per_rank_{label}"] = {
                    "value": 1e3 * rep["setup_s"] / ranks}
                m[f"scale.rss_kb_per_rank_{label}"] = {
                    "value": rep["ru_maxrss_kb"] / ranks}
    return result


def driver_line(result: Dict[str, Any], declared: List[tuple]) -> Dict[str, Any]:
    """The contract's result object: every declared metric, by name.  A
    per-layer metric the workload does not have (no IB rail, no tracemalloc
    pass, no probe) reads 0: that layer did no work here."""
    metrics = {}
    for row in declared:
        name = row[0]
        value = result["metrics"].get(name, {"value": 0})["value"]
        metrics[name] = {"value": value, "unit": UNIT[name]}
    return {
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def show(workload: str, result: Dict[str, Any]) -> None:
    print(f"== {workload}  model_digest {result['model_digest'][:16]}  "
          f"ops {result['attempted']} failed {result['failed']}  "
          f"op_fail_share {result['failed'] / max(1, result['attempted']):g}")
    for name, m in result["metrics"].items():
        spread = (f"  q1 {m['q1']:.6g} q3 {m['q3']:.6g} n {m['n']}" if "q1" in m else "")
        print(f"  {name:30s} {m['value']:>16.6g} {UNIT[name]:6s} [{CLOCK[name]}]{spread}")
    for error in result["errors"]:
        print(f"  FAIL: {error}")


def run_driver(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        result = trace(args.workload, args.seed, args.smoke, deadline)
        declared = PER_LAYER
    else:
        result = spawn("measure", args.seed, deadline, args.workload, args.seconds,
                       args.smoke)
        declared = END_TO_END
    show(args.workload, result)
    line = driver_line(result, declared)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# --------------------------------------------------------------- every one
def run_all(args: argparse.Namespace) -> int:
    records: Dict[str, Any] = {}
    failed = False
    for workload in WORKLOADS:
        deadline = time.monotonic() + 600.0
        try:
            untraced = spawn("measure", args.seed, deadline, workload, args.seconds,
                             args.smoke)
            traced = trace(workload, args.seed, args.smoke, deadline)
        except ChildDied as death:
            # a killed subprocess is a counted failure, not a crash of the run
            print(f"== {workload}  FAIL: {death}")
            records[workload] = {"attempted": 1, "failed": 1, "errors": [str(death)]}
            failed = True
            continue
        show(workload, untraced)
        show(workload, traced)
        attempted = untraced["attempted"] + traced["attempted"]
        n_failed = untraced["failed"] + traced["failed"]
        errors = untraced["errors"] + traced["errors"]
        records[workload] = {
            "sizes": untraced["sizes"],
            "traced_sizes": traced["sizes"],
            "validated": traced["metrics"]["model.paper_points"]["value"] > 0,
            "model_digest": untraced["model_digest"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "attempted": attempted,
            "failed": n_failed,
            "op_fail_share": n_failed / max(1, attempted),
            "errors": errors,
        }
        if not records[workload]["validated"]:
            # no paper point to check against: give no error figure
            del records[workload]["per_layer"]["model.paper_err_pct"]
        failed = failed or n_failed > 0 or bool(errors)
    report = {
        "schema": SCHEMA,
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "workloads": records,
    }
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if args.append_history and not failed:
        line = {
            "commit": args.append_history,
            "date": datetime.date.today().isoformat(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "medians": {w: {k: m["value"] for k, m in r["end_to_end"].items()}
                        for w, r in records.items()},
        }
        with open(HERE / "history.jsonl", "a") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    print("perf ledger: " + ("FAIL" if failed else "OK"))
    return 1 if failed else 0


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload and end with the driver's JSON line")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="drives payloads, message sizes, Cluster(seed=), the "
                         "loss, fault-plan and recovery seeds and fleet arrivals "
                         "(default: %(default)s)")
    ap.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                    help="measure for at least this long, and never fewer than "
                         "7 repetitions (default: %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, 2 repetitions")
    ap.add_argument("--out", default=str(HERE / "last_run.json"),
                    help="result file of a run over every workload")
    ap.add_argument("--append-history", metavar="COMMIT",
                    help="after a clean full run, append its end-to-end medians "
                         "to history.jsonl under this commit id")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, manifest=ROOT / "BENCHMARK.json")
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0.0
    try:
        return run_driver(args) if args.workload else run_all(args)
    except ChildDied as death:
        print(f"run.py: {death}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
