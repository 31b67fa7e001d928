"""Metric definitions of the performance ledger: names, units, clocks.

One table for the end-to-end metrics, one for the per-layer metrics;
``BENCHMARK.json`` at the repository root is :func:`manifest` written out
(the smoke test holds the two equal).  Every metric is tagged with its
clock: ``host`` (wall seconds of the simulator, noisy) or ``model``
(simulated microseconds and exact counts: repeat exactly for a seed).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

#: this repo's packages, as the profiler and tracemalloc bucket them
LAYERS = (
    "sim", "hw", "elan4", "ib", "tcpip", "core.pml", "core.ptl", "core.base",
    "coll", "mpi", "rte", "ft", "faults", "sched", "apps", "obs", "cluster",
    "other",
)
_PACKAGES = frozenset(LAYERS) - {"core.pml", "core.ptl", "core.base", "cluster", "other"}
#: layers whose live heap the tracemalloc pass reports
LIVE_LAYERS = ("sim", "hw", "elan4", "ib", "core.pml", "core.ptl", "mpi", "rte")
#: workloads that get the tracemalloc pass (rank count and memory matter)
LIVE_WORKLOADS = ("coll_wide", "fleet_faults")

DEFAULT_SEED = 20050404
#: schema of the result file of a run over every workload
SCHEMA = "repro.perf/v1"

WORKLOADS = (
    "p2p_eager",
    "p2p_rndv",
    "coll_wide",
    "ib_incast",
    "lossy_stream",
    "fleet_faults",
)

#: why each workload exists (the ``why`` of BENCHMARK.json)
WHY = {
    "p2p_eager": "2-rank Elan4 eager ping-pong, 4 B-1984 B: per-message cost "
                 "of mpi + core.pml + core.ptl; ib, coll and sched do nothing",
    "p2p_rndv": "2-rank Elan4 rendezvous ping-pong and window-8 streams, "
                "4 KB-1 MB: per-fragment cost of sim + elan4 + hw; the eager "
                "path's Elan4 code used the other way",
    "coll_wide": "128 ranks of barrier + allreduce + bcast: the only workload "
                 "where wire-up, rank count and per-rank memory dominate",
    "ib_incast": "15-to-1 incast over the IB rail in ib and roce+pfc+ecn "
                 "modes: all transport work in ib + core.ptl.ib, Elan4 bypassed",
    "lossy_stream": "Elan4 reliability path: 8 % seeded loss, retransmit "
                    "timers, then a two-rail stream with rail 1 killed",
    "fleet_faults": "three co-resident 16-rank tenants under a spine-switch "
                    "death, then a proc_kill + respawn: sched, apps, ft, "
                    "faults, rte OOB and the collective fallback",
}

RUN_SECONDS = 16


def layer_of(filename: str) -> str:
    """Bucket a source path: ``core.base`` is ``core/{request,datatype,
    header}.py``, ``cluster`` is everything else directly under ``repro/``
    (``cluster.py``, ``config.py``, ...), ``other`` is everything outside
    ``repro/`` (builtins, numpy, stdlib, the benchmark's own app code)."""
    marker = filename.rfind("/repro/")
    if marker < 0:
        return "other"
    parts = filename[marker + 7:].split("/")
    if parts[0] == "core":
        return f"core.{parts[1]}" if parts[1] in ("pml", "ptl") else "core.base"
    return parts[0] if parts[0] in _PACKAGES else "cluster"


# name, unit, clock, better, bound (share of the parent's median), source.
# The bounds are for runs at different seeds on a shared 2-core VM, which is
# how the benchmark driver measures: about three times the widest run-to-run
# spread seen on any workload.  At one seed the model clock repeats exactly,
# and --compare demands equality there.
END_TO_END = [
    ("setup_s", "s", "host", "lower", 0.25,
     "perf_counter from just before Cluster(...) until rank 0 leaves its "
     "first barrier, summed over the repetition's clusters"),
    ("host_s", "s", "host", "lower", 0.25,
     "perf_counter from that barrier until job.wait() returns"),
    ("peak_rss_mb", "MB", "host", "lower", 0.10,
     "ru_maxrss of the workload's subprocess after its first repetition"),
    ("model_makespan_us", "us", "model", "lower", 0.08,
     "Simulator.now from that barrier until the last rank's last operation"),
    ("model_op_p50_us", "us", "model", "lower", 0.12,
     "nearest-rank median of the workload's operation latencies"),
    ("model_op_p95_us", "us", "model", "lower", 0.05,
     "nearest-rank 95th percentile of the same"),
    ("model_goodput_mbs", "MB/s", "model", "higher", 0.10,
     "byte-verified payload delivered per simulated microsecond"),
]


def _per_layer() -> List[tuple]:
    # name, unit, clock, better, source, the end-to-end metric it should move
    rows: List[tuple] = []
    for layer in LAYERS:
        rows.append((f"{layer}.self_s", "s", "host", "lower",
                     "cProfile inlinetime bucketed by layer_of()", "host_s"))
        rows.append((f"{layer}.calls", "count", "model", "lower",
                     "cProfile callcount bucketed by layer_of()", "host_s"))
    rows += [
        ("sim.kernel_events_per_s", "1/s", "host", "higher",
         "ladder: bare Simulator processes and timeouts", "host_s"),
        ("elan4.host_us_per_msg", "us", "host", "lower",
         "ladder: native QDMA 64 B ping-pong (claim_context/qdma_send)", "host_s"),
        ("ib.host_us_per_msg", "us", "host", "lower",
         "ladder: verbs RDMA-write 64 B ping-pong on a connected QP", "host_s"),
        ("core.host_us_per_msg", "us", "host", "lower",
         "ladder: MPI 64 B ping-pong minus the Elan4 rung", "host_s"),
        ("sim.events", "count", "model", "lower",
         "Simulator.events_processed", "host_s"),
        ("sim.host_us_per_event", "us", "host", "lower",
         "(setup_s + host_s) / sim.events", "host_s"),
        ("hw.mapped_mb_per_rank", "MB", "model", "lower",
         "AddressSpace.allocated_bytes per rank after the run", "peak_rss_mb"),
        ("hw.pci_mb", "MB", "model", "lower",
         "PciBus.stats()['bytes_moved'] of every NIC's bus", "model_makespan_us"),
        ("hw.cpu_busy_us", "us", "model", "lower",
         "CpuScheduler.stats()['busy_time_us']", "model_makespan_us"),
    ]
    rows += [(f"{layer}.live_mb", "MB", "host", "lower",
              "tracemalloc snapshot bucketed by layer_of()", "peak_rss_mb")
             for layer in LIVE_LAYERS]
    rows += [(f"elan4.{name}", "count", "model", "lower", source, "model_makespan_us")
             for name, source in (
                 ("packets", "Fabric.packets_delivered"),
                 ("packets_lost", "Fabric.packets_lost"),
                 ("hop_transits", "Fabric.hop_transits"),
                 ("reroutes", "topology.reroutes"),
                 ("qdma_sends", "nic.qdma.sends"),
                 ("rdma_reads", "nic.rdma.reads_issued"),
                 ("rdma_writes", "nic.rdma.writes_issued"))]
    rows += [(f"ib.{name}", "count", "model", "lower", source, "model_op_p95_us")
             for name, source in (
                 ("pkts", "IbFabric.stats()['packets_tx']"),
                 ("retransmits", "IbNic.stats()['retransmits']"),
                 ("drops", "IbFabric.stats()['drops']"),
                 ("ecn_marks", "IbFabric.stats()['ecn_marks']"),
                 ("pauses_sent", "IbFabric.stats()['pauses_sent']"),
                 ("max_queue_depth", "IbFabric.stats()['max_queue_depth']"))]
    flight = "mean FlightRecord.layer_breakdown() per completed flight"
    rows += [
        ("core.pml.model_us", "us", "model", "lower", flight + ": pml", "model_op_p50_us"),
        ("core.ptl.model_us", "us", "model", "lower", flight + ": ptl", "model_op_p50_us"),
        ("elan4.nic_model_us", "us", "model", "lower", flight + ": nic", "model_op_p50_us"),
        ("elan4.wire_model_us", "us", "model", "lower", flight + ": switch", "model_op_p50_us"),
        ("model.unattributed_share", "share", "model", "lower",
         "unattributed / total over the same flights", "model_op_p50_us"),
        ("model.paper_points", "count", "model", "higher",
         "paper-stated points this workload is checked against (0: unvalidated)",
         "model_op_p50_us"),
        ("model.paper_err_pct", "%", "model", "lower",
         "mean absolute % error against those points", "model_op_p50_us"),
        ("coll.hw_fallbacks", "count", "model", "lower",
         "HwCollRegistry.hw_fallbacks over the tenants' leases", "model_op_p95_us"),
        ("ft.detect_latency_us", "us", "model", "lower",
         "cluster.tracer.samples['ft.detect_latency_us']", "model_op_p95_us"),
        ("ft.mttr_us", "us", "model", "lower",
         "cluster.tracer.samples['ft.mttr_us']", "model_op_p95_us"),
        ("sched.queue_wait_p95_us", "us", "model", "lower",
         "TenantStats.queue_wait_us, nearest-rank p95", "model_op_p95_us"),
        ("sched.slo_violation_share", "share", "model", "lower",
         "tenant steps over the 1500 us target / steps", "model_op_p95_us"),
        ("rte.import_s", "s", "host", "lower",
         "importing the repro packages the workloads use", "setup_s"),
        ("rte.wireup_ms_per_rank", "ms", "host", "lower",
         "setup_s / ranks launched", "setup_s"),
        ("scale.events_per_rank_64", "count", "model", "lower",
         "coll_wide shape at 64 ranks, 2 rounds: events / ranks", "host_s"),
        ("scale.events_per_rank_256", "count", "model", "lower",
         "the same at 256 ranks", "host_s"),
        ("scale.setup_ms_per_rank_256", "ms", "host", "lower",
         "the same: setup_s / ranks", "setup_s"),
        ("scale.rss_kb_per_rank_256", "kB", "host", "lower",
         "the same: ru_maxrss of the probe's subprocess / ranks", "peak_rss_mb"),
        ("trace.overhead_x", "x", "host", "lower",
         "host_s under cProfile / host_s untraced", "host_s"),
        ("obs.overhead_x", "x", "host", "lower",
         "host_s under repro.obs.capture() / host_s untraced", "host_s"),
    ]
    return rows


PER_LAYER = _per_layer()

UNIT = {row[0]: row[1] for row in END_TO_END + PER_LAYER}
CLOCK = {row[0]: row[2] for row in END_TO_END + PER_LAYER}
BETTER = {row[0]: row[3] for row in END_TO_END + PER_LAYER}
BOUND = {row[0]: row[4] for row in END_TO_END}


def manifest() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WHY[n]} for n in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, _c, b, bound, _s in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, _c, b, _s, _m in PER_LAYER],
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: no interpolation, so a modelled percentile
    is one of the modelled samples and repeats exactly."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]
