"""Tracer satellites: span abandon/leak accounting and the sanitizer's
open-span probe."""

from repro.analysis.sanitize import Sanitizer
from repro.obs.tracer import Tracer
from repro.sim.core import Simulator


def test_abandon_discards_span_without_sampling():
    sim = Simulator()
    tr = Tracer(sim)
    tr.span_begin("k1", "op")
    assert tr.abandon("k1") is True
    assert tr.abandon("k1") is False  # already closed
    assert tr.span_end("k1") is None
    assert "op" not in tr.samples
    assert tr.counters["span_abandoned:op"] == 1


def test_open_spans_reports_leaks():
    sim = Simulator()
    tr = Tracer(sim)
    tr.span_begin("a", "x")
    tr.span_begin("b", "y")
    tr.span_end("a")
    assert set(tr.open_spans()) == {"b"}
    tr.abandon("b")
    assert tr.open_spans() == {}


def test_sanitizer_flags_open_spans_at_teardown():
    sim = Simulator()
    sim.sanitizer = Sanitizer(sim)
    tr = Tracer(sim)  # registers itself with the sanitizer
    tr.span_begin("leaky", "op")
    findings = sim.sanitizer.teardown()
    leaks = [f for f in findings if f.kind == "open-span"]
    assert leaks and "leaky" in leaks[0].message


def test_sanitizer_quiet_when_spans_closed():
    sim = Simulator()
    sim.sanitizer = Sanitizer(sim)
    tr = Tracer(sim)
    tr.span_begin("k", "op")
    tr.span_end("k")
    assert not [f for f in sim.sanitizer.teardown() if f.kind == "open-span"]
