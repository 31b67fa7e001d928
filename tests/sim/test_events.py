"""Unit tests for SimEvent, Timeout, AnyOf, AllOf."""

import pytest

from repro.sim import AllOf, AnyOf, SimError, SimEvent, Simulator, Timeout


def test_event_lifecycle():
    sim = Simulator()
    ev = SimEvent(sim)
    assert not ev.triggered and not ev.processed
    ev.succeed(42)
    assert ev.triggered and not ev.processed
    sim.run()
    assert ev.processed
    assert ev.value == 42
    assert ev.ok


def test_event_double_completion_is_error():
    sim = Simulator()
    ev = SimEvent(sim)
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)
    with pytest.raises(SimError):
        ev.fail(ValueError("x"))


def test_value_before_trigger_is_error():
    sim = Simulator()
    ev = SimEvent(sim)
    with pytest.raises(SimError):
        _ = ev.value


def test_failed_event_raises_on_value():
    sim = Simulator()
    ev = SimEvent(sim)
    ev.fail(ValueError("boom"))
    sim.run()
    assert not ev.ok
    with pytest.raises(ValueError):
        _ = ev.value


def test_fail_requires_exception():
    sim = Simulator()
    ev = SimEvent(sim)
    with pytest.raises(SimError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_callbacks_run_at_processing_time():
    sim = Simulator()
    ev = SimEvent(sim)
    seen = []
    ev.add_callback(lambda e: seen.append(sim.now))
    ev.succeed(delay=7.0)
    sim.run()
    assert seen == [7.0]


def test_succeed_now_resumes_the_waiter_inside_the_callers_event():
    """No zero-delay hop: the waiting process runs before the completing
    callback returns, and the run costs no extra kernel event."""
    sim = Simulator()
    ev = SimEvent(sim)
    log = []

    def waiter():
        log.append((yield ev))

    sim.spawn(waiter())
    sim.schedule(1.0, lambda: (ev.succeed_now("v"), log.append("after")))
    sim.run()
    assert log == ["v", "after"] and ev.processed
    # spawn hop, the scheduled call, the waiter's finish: no completion hop
    assert sim.events_processed == 3
    with pytest.raises(SimError):
        ev.succeed_now()


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = SimEvent(sim)
    ev.succeed("v")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_discard_callback():
    sim = Simulator()
    ev = SimEvent(sim)
    seen = []
    cb = lambda e: seen.append(1)
    ev.add_callback(cb)
    ev.discard_callback(cb)
    ev.succeed()
    sim.run()
    assert seen == []


def test_timeout_fires_after_delay():
    sim = Simulator()
    t = Timeout(sim, 12.5, value="done")
    sim.run()
    assert sim.now == 12.5
    assert t.value == "done"


def test_anyof_completes_on_first():
    sim = Simulator()
    a = Timeout(sim, 5.0, "a")
    b = Timeout(sim, 2.0, "b")
    any_ev = AnyOf(sim, [a, b])
    sim.run()
    winner, value = any_ev.value
    assert winner is b
    assert value == "b"


def test_anyof_propagates_failure():
    sim = Simulator()
    a = SimEvent(sim)
    b = SimEvent(sim)
    any_ev = AnyOf(sim, [a, b])
    a.fail(RuntimeError("dead"))
    sim.run()
    assert isinstance(any_ev.exception, RuntimeError)


def test_allof_waits_for_every_child():
    sim = Simulator()
    events = [Timeout(sim, d, d) for d in (3.0, 1.0, 2.0)]
    all_ev = AllOf(sim, events)
    sim.run()
    assert sim.now == 3.0
    assert all_ev.value == [3.0, 1.0, 2.0]


def test_allof_empty_completes_immediately():
    sim = Simulator()
    all_ev = AllOf(sim, [])
    sim.run()
    assert all_ev.value == []


def test_allof_fails_if_any_child_fails():
    sim = Simulator()
    ok = Timeout(sim, 1.0)
    bad = SimEvent(sim)
    all_ev = AllOf(sim, [ok, bad])
    bad.fail(KeyError("k"), delay=0.5)
    sim.run()
    assert isinstance(all_ev.exception, KeyError)


def test_anyof_after_completion_ignores_later_children():
    sim = Simulator()
    a = Timeout(sim, 1.0, "a")
    b = Timeout(sim, 2.0, "b")
    any_ev = AnyOf(sim, [a, b])
    sim.run()
    # b completing later must not re-trigger the AnyOf
    assert any_ev.value[1] == "a"
