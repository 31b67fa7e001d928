"""Unit tests for the tracer and seeded random streams."""

import pytest

from repro.obs.observer import Observer
from repro.obs.tracer import Tracer
from repro.sim import RandomStreams, Simulator


def test_tracer_records_and_counts():
    """Counts and events land in the tracer; with an observer attached
    they are forwarded as ``<scope>/<name>`` metrics, and an event also
    puts one timeline mark."""
    sim = Simulator()
    ob = Observer(sim)
    tr = Tracer(sim, ob)
    sim.schedule(2.0, lambda: tr.event("fault.link_flap", node=3, detail="x"))
    sim.schedule(4.0, lambda: tr.event("ft.rank_dead", layer="ft", rank=1))
    sim.schedule(5.0, lambda: tr.count("pml.failover", 2))
    sim.run()
    assert tr.counters == {"fault.link_flap": 1, "ft.rank_dead": 1, "pml.failover": 2}
    assert [m.as_dict() for m in ob.marks] == [
        {"layer": "faults", "name": "link_flap", "ts": 2.0, "node": 3,
         "fields": {"detail": "x"}},
        {"layer": "ft", "name": "rank_dead", "ts": 4.0, "fields": {"rank": 1}},
    ]
    scopes = ob.snapshot()["scopes"]
    assert scopes["fault"]["link_flap"]["value"] == 1
    assert scopes["ft"]["rank_dead"]["value"] == 1
    assert scopes["pml"]["failover"]["value"] == 2


def test_tracer_disabled_is_inert():
    """Without an observer attached the tracer keeps its own counters and
    samples and forwards nothing: observation stays opt-in."""
    sim = Simulator()
    ob = Observer(sim)
    tr = Tracer(sim)
    tr.count("y")
    tr.event("fault.x", detail="d")
    tr.sample("z.w", 1.0)
    tr.span_begin("k", "span.s")
    assert tr.span_end("k") == 0.0
    assert tr.counters == {"y": 1, "fault.x": 1}
    assert tr.samples == {"z.w": [1.0], "span.s": [0.0]}
    assert not ob.marks and ob.snapshot()["scopes"] == {}


def test_tracer_spans_measure_durations():
    sim = Simulator()
    ob = Observer(sim)
    tr = Tracer(sim, ob)

    def proc():
        tr.span_begin("msg1", "coll.bcast.chain")
        yield sim.timeout(7.5)
        tr.span_end("msg1")

    sim.spawn(proc())
    sim.run()
    assert tr.samples["coll.bcast.chain"] == [7.5]
    hist = ob.snapshot()["scopes"]["coll"]["bcast.chain"]
    assert hist["type"] == "histogram"
    assert (hist["count"], hist["total"]) == (1, 7.5)


def test_tracer_span_end_unknown_key():
    sim = Simulator()
    tr = Tracer(sim)
    assert tr.span_end("nope") is None


def test_tracer_mean_requires_samples():
    """A category has samples to average only once one was taken: an
    abandoned span adds none, to the tracer or to the observer."""
    sim = Simulator()
    ob = Observer(sim)
    tr = Tracer(sim, ob)
    tr.span_begin("k", "coll.barrier.hw")
    tr.abandon("k")
    assert "coll.barrier.hw" not in tr.samples
    assert "coll" not in ob.snapshot()["scopes"]


def test_rng_streams_are_deterministic():
    a = RandomStreams(seed=7)
    b = RandomStreams(seed=7)
    assert a.stream("nic").random() == b.stream("nic").random()


def test_rng_streams_independent_of_access_order():
    a = RandomStreams(seed=7)
    b = RandomStreams(seed=7)
    a.stream("x")
    va = a.stream("y").random()
    vb = b.stream("y").random()  # accessed first in b
    assert va == vb


def test_rng_different_names_differ():
    r = RandomStreams(seed=7)
    assert r.stream("p").random() != r.stream("q").random()


def test_rng_helpers():
    r = RandomStreams(seed=1)
    u = r.uniform("u", 2.0, 3.0)
    assert 2.0 <= u < 3.0
    e = r.exponential("e", mean=5.0)
    assert e >= 0.0
    i = r.integers("i", 0, 10)
    assert 0 <= i < 10
    assert r.choice("c", ["only"]) == "only"
