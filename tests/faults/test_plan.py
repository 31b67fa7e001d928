"""Fault-plan DSL and injector mechanics (no MPI stack involved)."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.elan4.network import Packet
from repro.faults import FaultEvent, FaultInjector, FaultPlan, random_campaign


# ---------------------------------------------------------------- the DSL
def test_builders_chain_and_sort_by_time():
    plan = (
        FaultPlan("p")
        .rail_down(300.0, rail=1)
        .switch_death(100.0, "sw1.0")
        .nic_stall(200.0, 3, duration_us=50.0)
    )
    assert [e.kind for e in plan] == ["switch_death", "nic_stall", "rail_down"]
    assert [e.at_us for e in plan] == [100.0, 200.0, 300.0]
    assert len(plan) == 3


def test_equal_times_keep_append_order():
    plan = FaultPlan().packet_loss(50.0, 0.1).packet_corruption(50.0, 0.2)
    assert [e.kind for e in plan] == ["packet_loss", "packet_corruption"]


def test_bad_events_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        FaultPlan().switch_death(-1.0, "sw0.0")
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan()._add(FaultEvent(0.0, "gremlins"))


def test_describe_mentions_the_essentials():
    e = FaultEvent(10.0, "switch_death", "sw1.0", rail=1, duration_us=25.0)
    text = e.describe()
    assert "switch_death" in text and "sw1.0" in text
    assert "rail=1" in text and "25" in text


def test_random_campaign_is_seed_deterministic():
    kwargs = dict(
        duration_us=1000.0,
        n_faults=6,
        switches=["sw1.0", "sw1.0p1"],
        nodes=[0, 1, 2],
        rails=2,
    )
    a = random_campaign(seed=3, **kwargs)
    b = random_campaign(seed=3, **kwargs)
    c = random_campaign(seed=4, **kwargs)
    assert a.events == b.events
    assert a.events != c.events
    assert len(a) == 6


# ------------------------------------------------------------- the injector
def test_injector_arms_once():
    cluster = Cluster(nodes=2)
    inj = FaultInjector(cluster, FaultPlan().packet_loss(10.0, 0.5))
    inj.arm()
    with pytest.raises(RuntimeError, match="armed"):
        inj.arm()


def test_switch_death_and_restore_appear_in_trace():
    cluster = Cluster(nodes=16)
    plan = FaultPlan().switch_death(10.0, "sw1.0", duration_us=40.0)
    inj = FaultInjector(cluster, plan)
    inj.arm()
    cluster.sim.run(until=100.0)
    assert [k for _, k, _ in inj.trace] == ["switch_death", "switch_restore"]
    assert "sw1.0" not in cluster.topology.dead_switches
    assert cluster.tracer.counters["fault.switch_death"] == 1


def test_nic_stall_delays_but_delivers():
    """A stalled NIC parks arriving work and replays it on resume: the
    packet lands late, intact."""
    cluster = Cluster(nodes=2)
    times = []
    cluster.nics[1]._dispatch["test"] = lambda pkt: times.append(cluster.sim.now)
    plan = FaultPlan().nic_stall(0.0, 1, duration_us=500.0)
    inj = FaultInjector(cluster, plan)
    inj.arm()
    pkt = Packet(0, 1, 64, "test", data=np.arange(64, dtype=np.uint8))
    cluster.fabric.inject(pkt)
    cluster.run()
    assert len(times) == 1
    assert times[0] >= 500.0  # held for the stall, then replayed
    assert [k for _, k, _ in inj.trace] == ["nic_stall", "nic_resume"]


def test_packet_loss_event_sets_fabric_rate():
    cluster = Cluster(nodes=2)
    plan = FaultPlan(seed=9).packet_loss(5.0, 0.25)
    FaultInjector(cluster, plan).arm()
    cluster.sim.run(until=10.0)
    assert cluster.fabric._loss_rate == 0.25


def test_stats_without_job_cover_fabric_counters():
    cluster = Cluster(nodes=16)
    plan = FaultPlan().switch_death(1.0, "sw1.0")
    inj = FaultInjector(cluster, plan)
    inj.arm()
    cluster.sim.run(until=5.0)
    stats = inj.stats()
    assert stats["faults_applied"] == 1
    assert stats["failovers"] == 0
    assert stats["tracer"]["fault.switch_death"] == 1
