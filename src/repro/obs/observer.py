"""The :class:`Observer` — the single object every instrumentation hook
talks to.

Model code never imports the flight recorder or metrics registry
directly; it holds an ``obs`` attribute that is ``None`` when
observability is disabled (the default) and an :class:`Observer` when
enabled.  Every hook site is therefore one attribute check in the
disabled case — the same pattern the sanitizer uses — which is what
keeps default runs bit-identical and the ledger's ``host_s`` honest.
The cluster's :class:`~repro.obs.tracer.Tracer` forwards into it too.

The Observer owns:

* a :class:`~repro.obs.flight.FlightRecorder` for per-message timelines;
* a :class:`~repro.obs.metrics.MetricsRegistry` for scoped counters,
  gauges, and fixed-bucket histograms;
* a list of global instant *marks* (fault injections, reroutes) that are
  not tied to any one message but belong on the exported timeline.

All hook methods tolerate ``tid=None`` so call sites never need to guard
on whether a particular message was recorded.
"""

from __future__ import annotations

from typing import Any

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_US, MetricsRegistry

__all__ = ["Observer", "Mark"]


class Mark:
    """A global instant event (not tied to one message)."""

    __slots__ = ("layer", "name", "ts", "node", "fields")

    def __init__(
        self,
        layer: str,
        name: str,
        ts: float,
        node: int | None,
        fields: dict[str, Any] | None,
    ):
        self.layer = layer
        self.name = name
        self.ts = ts
        self.node = node
        self.fields = fields

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"layer": self.layer, "name": self.name, "ts": self.ts}
        if self.node is not None:
            out["node"] = self.node
        if self.fields:
            out["fields"] = dict(self.fields)
        return out


class Observer:
    """One observed run: flight records + metrics + global marks."""

    def __init__(self, sim: Any, keep_flights: int | None = None):
        self.sim = sim
        self.flights = FlightRecorder(keep_flights=keep_flights)
        self.metrics = MetricsRegistry()
        self.marks: list[Mark] = []
        #: free-form run labels copied into exported trace metadata
        self.labels: dict[str, Any] = {}

    @property
    def now(self) -> float:
        return float(self.sim.now)

    # -- flight recorder hooks ---------------------------------------------
    def flight_begin(
        self,
        kind: str,
        src_rank: int,
        dst_rank: int,
        tag: int,
        ctx_id: int,
        nbytes: int,
    ) -> int:
        self.metrics.count("pml", "sends_started")
        return self.flights.begin(
            kind, src_rank, dst_rank, tag, ctx_id, nbytes, self.now
        )

    def flight_kind(self, tid: int | None, kind: str) -> None:
        self.flights.set_kind(tid, kind)

    def flight_span(
        self,
        tid: int | None,
        layer: str,
        name: str,
        t0: float,
        node: int | None = None,
        **fields: Any,
    ) -> None:
        """Record a span from ``t0`` (caller-captured start time) to now."""
        now = self.now
        self.flights.span(tid, layer, name, t0, now - t0, node, fields or None)

    def flight_instant(
        self,
        tid: int | None,
        layer: str,
        name: str,
        node: int | None = None,
        **fields: Any,
    ) -> None:
        self.flights.instant(tid, layer, name, self.now, node, fields or None)

    def flight_complete(self, tid: int | None) -> None:
        rec = self.flights.complete(tid, self.now)
        if rec is not None:
            self.metrics.count("pml", "sends_completed")
            latency = rec.t_end - rec.t_begin  # type: ignore[operator]
            self.metrics.sample("pml", "message_latency_us", latency)

    def flight_abandon(self, tid: int | None, reason: str) -> None:
        """A message destroyed mid-flight (peer death, revoke): close the
        record without a delivery time so it is not reported as leaked."""
        rec = self.flights.abandon(tid, self.now, reason)
        if rec is not None:
            self.metrics.count("pml", "sends_abandoned")

    def flight_abandon_involving(self, rank: int, reason: str) -> int:
        n = self.flights.abandon_involving(rank, self.now, reason)
        if n:
            self.metrics.count("pml", "sends_abandoned", n)
        return n

    # -- metrics hooks -------------------------------------------------------
    def count(self, scope: str, name: str, n: int = 1) -> None:
        self.metrics.count(scope, name, n)

    def gauge(self, scope: str, name: str, value: float) -> None:
        self.metrics.gauge_set(scope, name, value)

    def sample(
        self,
        scope: str,
        name: str,
        value: float,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_US,
    ) -> None:
        self.metrics.sample(scope, name, value, bounds)

    # -- global instants (faults, reroutes, rail events) ---------------------
    def instant(
        self, layer: str, name: str, node: int | None = None, **fields: Any
    ) -> None:
        self.marks.append(Mark(layer, name, self.now, node, fields or None))

    # -- end-of-run collection ----------------------------------------------
    def summarize_cluster(self, cluster: Any) -> None:
        """Pull end-state gauges from hardware that has no hot-path hooks.

        PCI buses, CPU schedulers, switches, and topologies keep their own
        cheap counters; rather than branch in ``dma()``/``route()`` we read
        them once at export time.  Iteration orders are structural (list
        index, sorted switch names), never set order.
        """
        m = self.metrics
        for node in cluster.nodes:
            nid = node.node_id
            cpu = node.scheduler.stats()
            pci = node.pci.stats()
            m.gauge_set("hw", f"node{nid}.cpu_busy_us", cpu["busy_time_us"])
            m.gauge_set("hw", f"node{nid}.cpu_threads", cpu["threads"])
            m.gauge_set("hw", f"node{nid}.pci_bytes", pci["bytes_moved"])
            m.gauge_set("hw", f"node{nid}.pci_pio", pci["pio_count"])
            m.gauge_set("hw", f"node{nid}.interrupts", node.interrupts_delivered)
        for rail, nics in enumerate(cluster.rail_nics):
            prefix = f"rail{rail}." if rail else ""
            for nic in nics:
                nid = nic.node_id
                key = f"{prefix}nic{nid}"
                m.gauge_set("nic", f"{key}.chains_run", nic.chains_run)
                m.gauge_set("nic", f"{key}.dropped", len(nic.dropped))
                m.gauge_set("nic", f"{key}.pci_bytes", nic.pci.stats()["bytes_moved"])
                m.gauge_set("nic", f"{key}.qdma_sends", nic.qdma.sends)
                m.gauge_set("nic", f"{key}.qdma_chained_sends", nic.qdma.chained_sends)
                m.gauge_set("nic", f"{key}.rdma_writes", nic.rdma.writes_issued)
                m.gauge_set("nic", f"{key}.rdma_reads", nic.rdma.reads_issued)
                m.gauge_set("nic", f"{key}.rdma_bytes_written", nic.rdma.bytes_written)
                m.gauge_set("nic", f"{key}.rdma_bytes_read", nic.rdma.bytes_read)
                m.gauge_set("nic", f"{key}.tport_matches", nic.tport.matches)
        for rail, fabric in enumerate(cluster.rail_fabrics):
            prefix = f"rail{rail}." if rail else ""
            m.gauge_set("switch", f"{prefix}packets_delivered", fabric.packets_delivered)
            m.gauge_set("switch", f"{prefix}bytes_delivered", fabric.bytes_delivered)
            m.gauge_set("switch", f"{prefix}packets_lost", fabric.packets_lost)
            m.gauge_set("switch", f"{prefix}packets_corrupted", fabric.packets_corrupted)
            m.gauge_set(
                "switch", f"{prefix}packets_unroutable", fabric.packets_unroutable
            )
            m.gauge_set("switch", f"{prefix}hop_transits", fabric.hop_transits)
        for rail, topology in enumerate(cluster.rail_topologies):
            prefix = f"rail{rail}." if rail else ""
            m.gauge_set("switch", f"{prefix}reroutes", topology.reroutes)
            m.gauge_set("switch", f"{prefix}dead_switches", len(topology.dead_switches))
            m.gauge_set("switch", f"{prefix}dead_links", len(topology.dead_links))
            for name in sorted(topology.switches):
                m.gauge_set(
                    "switch",
                    f"{prefix}{name}.packets_routed",
                    topology.switches[name].packets_routed,
                )
        for rail, nics in enumerate(cluster.ib_nics):
            prefix = f"ibrail{rail}." if rail else "ib."
            for nic in nics:
                key = f"{prefix}hca{nic.node_id}"
                for name, value in sorted(nic.stats().items()):
                    m.gauge_set("ib", f"{key}.{name}", value)
        for rail, fabric in enumerate(cluster.ib_fabrics):
            prefix = f"ibrail{rail}." if rail else "ib."
            for name, value in sorted(fabric.stats().items()):
                m.gauge_set("ib", f"{prefix}{name}", value)
            for sw in fabric.switches:
                m.gauge_set(
                    "ib", f"{prefix}{sw.name}.packets_routed", sw.packets_routed
                )
                for port, depth in sorted(sw.queue_depths().items()):
                    m.gauge_set("ib", f"{prefix}{sw.name}.{port}.depth", depth)

    def snapshot(self) -> dict[str, Any]:
        return self.metrics.snapshot(at_us=self.now)
