"""Arms a :class:`~repro.faults.plan.FaultPlan` against a live cluster.

The injector schedules one simulator callback per fault event, applies
the fault against the right layer (topology, fabric, NIC, or PML), and
records an append-only ``trace`` of ``(time, kind, description)`` tuples.
Because the simulator is deterministic and all randomness is seeded, two
runs of the same plan against the same workload produce identical traces
— the determinism contract the campaign tests assert.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.ptl.base import PtlError
from repro.faults.plan import FaultEvent, FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a campaign's events to ``cluster`` (and, for PML-visible
    faults such as ``rail_down``, to the processes of ``job``)."""

    def __init__(self, cluster, plan: FaultPlan, job=None):
        self.cluster = cluster
        self.plan = plan
        self.job = job
        self.sim = cluster.sim
        self.trace: List[Tuple[float, str, str]] = []
        self.armed = False

    # -- scheduling ----------------------------------------------------------
    def arm(self) -> None:
        """Schedule every event of the plan; call once, before ``sim.run``
        (events already in the past raise, as they would in hardware)."""
        if self.armed:
            raise RuntimeError("campaign already armed")
        self.armed = True
        for i, event in enumerate(self.plan.events):
            self.sim.schedule(event.at_us - self.sim.now, self._apply, event, i)

    # -- application ---------------------------------------------------------
    def _apply(self, event: FaultEvent, index: int) -> None:
        # kept probe: dispatch on the plan's event kind (``_do_{kind}``)
        handler = getattr(self, f"_do_{event.kind}")
        handler(event, index)
        self._note(event.kind, event.describe())

    def _note(self, kind: str, text: str) -> None:
        self.trace.append((self.sim.now, kind, text))
        self.cluster.tracer.event(f"fault.{kind}", detail=text)

    def _topology(self, event: FaultEvent):
        return self.cluster.rail_topologies[event.rail]

    def _fabric(self, event: FaultEvent):
        return self.cluster.rail_fabrics[event.rail]

    def _do_switch_death(self, event: FaultEvent, index: int) -> None:
        topo = self._topology(event)
        topo.fail_switch(event.target)
        if event.duration_us > 0:
            def restore() -> None:
                topo.restore_switch(event.target)
                self._note("switch_restore", f"switch_restore target={event.target}")
            self.sim.schedule(event.duration_us, restore)

    def _do_link_flap(self, event: FaultEvent, index: int) -> None:
        topo = self._topology(event)
        a, b = event.target
        topo.fail_link(a, b)
        if event.duration_us > 0:
            def restore() -> None:
                topo.restore_link(a, b)
                self._note("link_restore", f"link_restore target=({a}, {b})")
            self.sim.schedule(event.duration_us, restore)

    def _do_partition_node(self, event: FaultEvent, index: int) -> None:
        topo = self._topology(event)
        topo.fail_leaf(event.target)
        if event.duration_us > 0:
            def restore() -> None:
                topo.restore_leaf(event.target)
                self._note("node_rejoin", f"node_rejoin target={event.target}")
            self.sim.schedule(event.duration_us, restore)

    def _do_nic_stall(self, event: FaultEvent, index: int) -> None:
        nic = self.cluster.rail_nics[event.rail][event.target]
        nic.stall()
        if event.duration_us > 0:
            def resume() -> None:
                nic.resume()
                self._note("nic_resume", f"nic_resume target={event.target}")
            self.sim.schedule(event.duration_us, resume)

    def _do_rail_down(self, event: FaultEvent, index: int) -> None:
        fabric = self._fabric(event)
        fabric.down = True
        if self.job is None:
            return
        # the NIC driver diagnoses the dead rail; the PML reroutes traffic
        error = PtlError(f"elan4 rail {event.rail} is down (fabric fault)")
        for proc in self.job.processes.values():
            self._fail_rail(proc, self.cluster.rail_nics[event.rail], error)

    def _do_proc_kill(self, event: FaultEvent, index: int) -> None:
        if self.job is None:
            raise RuntimeError("proc_kill requires an injector armed with a job")
        rank = event.target
        proc = self.job.processes.get(rank)
        if proc is None or proc.finished:
            return  # already gone — killing a corpse is a no-op
        ft = self.job.ft
        if ft is not None:
            # ground truth for the detection-latency metric: the daemon can
            # only *observe* the death later, via heartbeat silence
            ft.note_kill(rank, self.sim.now)
        proc.kill(cause=f"fault campaign {self.plan.name!r}")

    def _ib_fabric(self, event: FaultEvent):
        fabrics = self.cluster.ib_fabrics
        if event.rail >= len(fabrics):
            raise RuntimeError(f"no ib rail {event.rail} on this cluster")
        return fabrics[event.rail]

    def _do_ib_port_down(self, event: FaultEvent, index: int) -> None:
        nics = self.cluster.ib_nics[event.rail]
        nic = nics[event.target]
        nic.set_port_down(True)
        if event.duration_us > 0:
            def restore() -> None:
                nic.set_port_down(False)
                self._note("ib_port_up", f"ib_port_up target={event.target}")
            self.sim.schedule(event.duration_us, restore)
        if self.job is None:
            return
        # the HCA driver on that node sees the dead port; its PML reroutes
        error = PtlError(f"ib port on node {event.target} is down")
        for proc in self.job.processes.values():
            if proc.node.node_id == event.target:
                self._fail_rail(proc, nics, error)

    def _fail_rail(self, proc, nics, error: PtlError) -> None:
        """Fail over every module of ``proc`` that drives its node's NIC in
        ``nics`` (one rail's NICs, indexed by node id)."""
        pml = proc.stack.pml
        nic = nics[proc.node.node_id]
        for module in pml.modules:
            if module.nic is nic:
                pml.rail_failed(module, error)

    def _do_pfc_storm(self, event: FaultEvent, index: int) -> None:
        fabric = self._ib_fabric(event)
        for sw in fabric.switches:
            if sw.name == event.target:
                sw.force_pause(event.duration_us or 100.0)
                return
        raise RuntimeError(f"no IB switch {event.target!r} on rail {event.rail}")

    def _do_packet_loss(self, event: FaultEvent, index: int) -> None:
        self._fabric(event).set_loss(event.param, seed=self.plan.seed * 1000 + index)

    def _do_packet_corruption(self, event: FaultEvent, index: int) -> None:
        self._fabric(event).set_corruption(
            event.param, seed=self.plan.seed * 1000 + index
        )

    # -- reporting -----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Recovery-path counters aggregated across rails and processes —
        the campaign's evidence of *how* the run survived."""
        out: Dict[str, Any] = {
            "faults_applied": len(self.trace),
            "reroutes": sum(t.reroutes for t in self.cluster.rail_topologies),
            "packets_lost": sum(f.packets_lost for f in self.cluster.rail_fabrics),
            "packets_corrupted": sum(
                f.packets_corrupted for f in self.cluster.rail_fabrics
            ),
            "packets_unroutable": sum(
                f.packets_unroutable for f in self.cluster.rail_fabrics
            ),
            "retransmissions": 0,
            "duplicates_dropped": 0,
            "window_drops": 0,
            "abandoned_fragments": 0,
            "rdma_retries": 0,
            "stale_controls": 0,
            "failovers": 0,
            "dead_peers": 0,
        }
        if self.job is not None:
            for proc in self.job.processes.values():
                pml = proc.stack.pml
                out["failovers"] += pml.failovers
                out["dead_peers"] += len(pml.dead_peers)
                out["duplicates_dropped"] += pml.matching.duplicates_dropped
                for module in pml.modules:
                    for key, value in module.recovery_stats().items():
                        out[key] += value
        out["tracer"] = {
            k: v
            for k, v in sorted(self.cluster.tracer.counters.items())
            if k.startswith(("fault.", "fabric.", "pml.", "ptl."))
        }
        return out
