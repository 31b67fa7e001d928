"""The measuring subprocess: one workload, one mode, one JSON line out.

``run.py`` starts this file in a fresh interpreter under an address-space
limit, one at a time.  Modes:

* ``measure`` — the untraced repetitions the end-to-end metrics come from;
* ``trace``   — one repetition each under cProfile, ``repro.obs.capture()``
  and (where memory matters) tracemalloc, plus the layer ladder;
* ``probe``   — one unprofiled repetition of the ``coll_wide`` shape at
  another rank count.

Observation happens from here, outside the program: by timing calls into
public functions, by a profiler started from this file, and by reading the
counters the model already keeps.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
import time
import tracemalloc
from typing import Any, Dict, List

_T_IMPORT = time.perf_counter()
import ladder  # noqa: E402
import workloads  # noqa: E402
from metrics import LAYERS, LIVE_LAYERS, LIVE_WORKLOADS, layer_of, percentile  # noqa: E402
from repro.obs import capture  # noqa: E402

IMPORT_S = time.perf_counter() - _T_IMPORT

#: measured repetitions: at least this many, more while --seconds lasts
MIN_REPS, MAX_REPS = 7, 15
SMOKE_SCALE = 0.04
#: the traced passes run at half size: only shares, per-flight means and
#: exact counts are read from them, and a profiled repetition costs 4-6x
TRACE_SCALE = 0.5


def summarize(plan: workloads.Plan, rec: workloads.Recorder) -> Dict[str, Any]:
    """One repetition as plain data (the Recorder and its clusters go)."""
    attempted = max(plan.expected_ops, len(rec.op_us))
    failed = attempted - rec.ok if not rec.errors else attempted
    makespan = rec.makespan_us
    return {
        "setup_s": rec.setup_s,
        "host_s": rec.host_s,
        "model_makespan_us": makespan,
        "model_op_p50_us": percentile(rec.op_us, 50),
        "model_op_p95_us": percentile(rec.op_us, 95),
        "model_goodput_mbs": rec.bytes_ok / makespan if makespan else 0.0,
        "attempted": attempted,
        "failed": failed,
        "ops": len(rec.op_us),
        "digest": rec.digest(),
        "errors": rec.errors,
        "events": rec.events,
        "ranks": rec.ranks,
        "mapped_mb_per_rank": rec.mapped_bytes / max(1, rec.ranks) / 1e6,
        "points": rec.points,
        "counters": rec.counters,
    }


def repetition(plan: workloads.Plan) -> Dict[str, Any]:
    gc.collect()
    return summarize(plan, workloads.run_repetition(plan))


def check_digests(reps: List[Dict[str, Any]], reference: str) -> List[str]:
    """A repetition whose modelled series differ from the reference fails
    whole: the model must repeat exactly for a seed, observed or not."""
    errors = []
    for i, rep in enumerate(reps):
        errors += [f"rep {i}: {e}" for e in rep["errors"]]
        if rep["digest"] != reference:
            rep["failed"] = rep["attempted"]
            errors.append(f"rep {i}: model_digest {rep['digest'][:16]} differs "
                          f"from {reference[:16]}")
    return errors


def quartiles(values: List[float]) -> Dict[str, Any]:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else [values[0]] * 3)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


# --------------------------------------------------------------------- modes
def measure(args: argparse.Namespace) -> Dict[str, Any]:
    plan = workloads.make_plan(args.workload, args.seed, args.scale)
    # discarded: fills caches and lazy imports (on fleet_faults: the clean
    # run the switch-death window is derived from)
    warmup = repetition(plan)
    # the footprint of one job in a fresh process; later repetitions only
    # add allocator fragmentation, which differs from run to run
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reps: List[Dict[str, Any]] = []
    t0 = time.perf_counter()
    floor = 2 if args.smoke else MIN_REPS
    while len(reps) < floor or (
            time.perf_counter() - t0 < args.seconds and len(reps) < MAX_REPS):
        reps.append(repetition(plan))
    errors = [f"warm-up: {e}" for e in warmup["errors"]]
    errors += check_digests(reps, reps[0]["digest"])
    first = reps[0]
    metrics = {
        "setup_s": quartiles([r["setup_s"] for r in reps]),
        "host_s": quartiles([r["host_s"] for r in reps]),
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0},
    }
    for name in ("model_makespan_us", "model_op_p50_us", "model_op_p95_us",
                 "model_goodput_mbs"):
        metrics[name] = {"value": first[name]}
    return {
        "sizes": plan.sizes,
        "metrics": metrics,
        "model_digest": first["digest"],
        "ops_per_repetition": first["ops"],
        "attempted": warmup["attempted"] + sum(r["attempted"] for r in reps),
        "failed": warmup["failed"] + sum(r["failed"] for r in reps),
        "errors": errors,
    }


def _profile(plan: workloads.Plan) -> tuple:
    profiler = cProfile.Profile()
    gc.collect()
    profiler.enable()
    rec = workloads.run_repetition(plan)
    profiler.disable()
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for entry in profiler.getstats():
        code = entry.code
        layer = "other" if isinstance(code, str) else layer_of(code.co_filename)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
    return summarize(plan, rec), self_s, calls


def _observe(plan: workloads.Plan) -> tuple:
    gc.collect()
    with capture() as session:
        rec = workloads.run_repetition(plan)
    sums = {"pml": 0.0, "ptl": 0.0, "nic": 0.0, "switch": 0.0,
            "unattributed": 0.0, "total": 0.0}
    flights = 0
    for observer in session.observers:
        for flight in observer.flights.completed():
            if flight.kind == "recovery":  # a rank's respawn, not a message
                continue
            flights += 1
            for layer, us in flight.layer_breakdown().items():
                sums[layer] = sums.get(layer, 0.0) + us
    n = max(1, flights)
    breakdown = {
        "core.pml.model_us": sums["pml"] / n,
        "core.ptl.model_us": sums["ptl"] / n,
        "elan4.nic_model_us": sums["nic"] / n,
        "elan4.wire_model_us": sums["switch"] / n,
        "model.unattributed_share":
            sums["unattributed"] / sums["total"] if sums["total"] else 0.0,
    }
    return summarize(plan, rec), breakdown


def _live_heap(plan: workloads.Plan) -> tuple:
    gc.collect()
    tracemalloc.start()
    try:
        rec = workloads.run_repetition(plan)  # keeps its clusters and jobs alive
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    live = dict.fromkeys(LIVE_LAYERS, 0.0)
    for stat in snapshot.statistics("filename"):
        layer = layer_of(stat.traceback[0].filename)
        if layer in live:
            live[layer] += stat.size / 1e6
    return summarize(plan, rec), {f"{k}.live_mb": v for k, v in live.items()}


def paper_error(workload: str, points: Dict[str, float]) -> Dict[str, float]:
    refs = workloads.PAPER.get(workload, {})
    errs = [abs(points[k] - ref) / ref * 100.0 for k, ref in refs.items()]
    return {"model.paper_points": len(errs),
            "model.paper_err_pct": sum(errs) / len(errs) if errs else 0.0}


def trace(args: argparse.Namespace) -> Dict[str, Any]:
    plan = workloads.make_plan(args.workload, args.seed, args.scale)
    warmup = repetition(plan)
    plain = repetition(plan)  # the untraced reference: times, digest, counters
    profiled, self_s, calls = _profile(plan)
    observed, breakdown = _observe(plan)
    reps = [plain, profiled, observed]
    m: Dict[str, float] = {}
    if args.workload in LIVE_WORKLOADS:
        heaped, live = _live_heap(plan)
        reps.append(heaped)
        m.update(live)
    errors = [f"warm-up: {e}" for e in warmup["errors"]]
    errors += check_digests(reps, plain["digest"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.calls"] = calls[layer]
    m.update(ladder.measure(round_trips=60 if args.smoke else 600))
    m.update(breakdown)
    m.update(paper_error(args.workload, plain["points"]))
    m.update(plain["counters"])
    m.update({k: v for k, v in plain["points"].items() if k.startswith("ft.")})
    m["sim.events"] = plain["events"]
    m["sim.host_us_per_event"] = (
        1e6 * (plain["setup_s"] + plain["host_s"]) / max(1, plain["events"]))
    m["hw.mapped_mb_per_rank"] = plain["mapped_mb_per_rank"]
    m["rte.import_s"] = IMPORT_S
    m["rte.wireup_ms_per_rank"] = 1e3 * plain["setup_s"] / max(1, plain["ranks"])
    m["trace.overhead_x"] = profiled["host_s"] / plain["host_s"]
    m["obs.overhead_x"] = observed["host_s"] / plain["host_s"]
    return {
        "sizes": plan.sizes,
        "metrics": {k: {"value": v} for k, v in m.items()},
        "model_digest": plain["digest"],
        "attempted": warmup["attempted"] + sum(r["attempted"] for r in reps),
        "failed": warmup["failed"] + sum(r["failed"] for r in reps),
        "errors": errors,
    }


def probe(args: argparse.Namespace) -> Dict[str, Any]:
    plan = workloads.make_scale_plan(args.seed, args.ranks)
    rep = repetition(plan)
    rep["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rep


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("measure", "trace", "probe"))
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ranks", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    args.scale = (SMOKE_SCALE if args.smoke
                  else TRACE_SCALE if args.mode == "trace" else 1.0)
    result = {"measure": measure, "trace": trace, "probe": probe}[args.mode](args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
