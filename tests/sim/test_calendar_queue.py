"""Differential tests for the kernel's dispatch fast paths.

The fast kernel keeps the reference kernel's binary heap and adds a
zero-delay ready deque, a ``ScheduledCall`` pool, same-timestamp batch
dispatch, the fused wake and lazy-cancellation compaction.  Together they
must pop in exactly the order the plain heap of ``(time, priority, seq)``
keys does — that is the contract every determinism guarantee in this repo
rests on.  These tests feed identical seeded, randomized schedules (mixed
delays, priorities, exact same-time ties, cancellations, a cancel storm
that forces compaction mid-run, ``schedule_at``, ``until`` boundaries,
``step`` interleavings) to the fast kernel and to the plain-heap reference
(``REPRO_SIM_SLOWPATH=1``) and assert the fire sequences are identical.

Randomness is driven by one ``random.Random(seed)`` whose draws happen in
callback order — so as long as the kernels agree, both runs see the same
draw sequence; the moment they disagree, the logs diverge and the test
fails (which is the point).
"""

import itertools
import random

import pytest

from repro.sim.core import Simulator

SEEDS = [1, 7, 23, 99, 1234, 20260808]

#: far timers the cancel storm plants, and how many of them survive it
STORM_TIMERS = 200
STORM_SURVIVORS = 8


def _run_schedule(seed: int, slowpath: bool, monkeypatch) -> dict:
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1" if slowpath else "0")
    sim = Simulator()
    assert sim.fastpath is (not slowpath)
    rng = random.Random(seed)
    log = []
    labels = itertools.count()
    handles = []

    def plant(depth: int) -> None:
        for _ in range(rng.randrange(1, 4)):
            label = next(labels)
            # Delay mix: zero-delay bursts, sub-µs jitter, mid-range, far
            # future, and integral times that produce exact same-timestamp
            # ties across independent plants.
            delay = rng.choice(
                (
                    0.0,
                    0.0,
                    rng.uniform(0.0, 1.0),
                    rng.uniform(0.0, 40.0),
                    rng.uniform(0.0, 5000.0),
                    float(rng.randrange(0, 25)),
                )
            )
            priority = rng.choice((-1, 0, 0, 0, 0, 2))
            if rng.random() < 0.25:
                h = sim.schedule_at(sim.now + delay, fire, label, depth, priority=priority)
            else:
                h = sim.schedule(delay, fire, label, depth, priority=priority)
            if rng.random() < 0.35:
                handles.append(h)

    def fire(label: int, depth: int) -> None:
        log.append((label, sim.now))
        r = rng.random()
        if depth < 6 and r < 0.55:
            plant(depth + 1)
        if handles and r > 0.75:
            # Cancel a random pending handle (a no-op if it already fired).
            handles.pop(rng.randrange(len(handles))).cancel()

    storm = {}

    def cancel_storm(victims: list) -> None:
        # Leaves far more dead entries than live ones, from inside a
        # callback: the fast kernel compacts under a running run().
        survivors = set(rng.sample(range(len(victims)), STORM_SURVIVORS))
        for i, h in enumerate(victims):
            if i not in survivors:
                h.cancel()
        storm["cancelled"] = len(victims) - STORM_SURVIVORS
        storm["pending"] = sim.pending_count

    for _ in range(40):
        plant(0)
    victims = [
        sim.schedule(rng.uniform(1000.0, 5000.0), fire, next(labels), 6)
        for _ in range(STORM_TIMERS)
    ]
    sim.schedule(rng.uniform(0.0, 40.0), cancel_storm, victims)
    while True:
        nxt = sim.peek()
        if nxt is None:
            break
        mode = rng.random()
        if mode < 0.30:
            # `until` boundaries: exactly on an event time (it must fire;
            # only strictly-later events stop the run) and between events.
            until = nxt if mode < 0.10 else nxt + rng.uniform(0.0, 25.0)
            sim.run(until=until)
            log.append(("until", sim.now))
        elif mode < 0.42:
            for _ in range(rng.randrange(1, 6)):
                if not sim.step():
                    break
            log.append(("step", sim.now))
        elif mode < 0.50:
            sim.run(max_events=rng.randrange(1, 30))
            log.append(("max", sim.now))
        else:
            sim.run()
    return {
        "log": log,
        "final_now": sim.now,
        "events_processed": sim.events_processed,
        "storm": storm,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_calendar_queue_matches_plain_heap_reference(seed, monkeypatch):
    fast = _run_schedule(seed, slowpath=False, monkeypatch=monkeypatch)
    slow = _run_schedule(seed, slowpath=True, monkeypatch=monkeypatch)
    assert fast["log"] == slow["log"]
    assert fast["final_now"] == slow["final_now"]
    assert fast["events_processed"] == slow["events_processed"]
    # The schedule must actually have exercised the structure, and the
    # storm must have compacted the heap on the fast kernel.
    assert fast["events_processed"] > 100
    assert fast["storm"]["pending"] < fast["storm"]["cancelled"]


def test_far_future_timers_migrate_through_ring(monkeypatch):
    """Far timers inserted in descending time order are all pending and
    fire in key order."""
    monkeypatch.delenv("REPRO_SIM_SLOWPATH", raising=False)
    sim = Simulator()
    fired = []
    times = [float(t) for t in range(1000, 0, -7)]  # descending inserts
    for t in times:
        sim.schedule_at(t, fired.append, t)
    assert sim.pending_count == len(times)
    sim.run()
    assert fired == sorted(times)


def test_cancellations_are_dropped_at_promotion(monkeypatch):
    """Cancelled entries never surface and the cancelled counter returns
    to zero once they are popped or swept."""
    monkeypatch.delenv("REPRO_SIM_SLOWPATH", raising=False)
    sim = Simulator()
    fired = []
    handles = [sim.schedule(10.0 + i, fired.append, i) for i in range(200)]
    for h in handles[::2]:
        h.cancel()
    sim.run()
    assert fired == list(range(1, 200, 2))
    assert sim._cancelled_in_heap == 0


def test_rebuild_spans_single_timestamp(monkeypatch):
    """A pile-up of far timers at one timestamp fires in insertion
    order."""
    monkeypatch.delenv("REPRO_SIM_SLOWPATH", raising=False)
    sim = Simulator()
    fired = []
    for i in range(384):
        sim.schedule_at(1000.0, fired.append, i)
    sim.run()
    assert fired == list(range(384))
    assert sim.now == 1000.0


def test_step_honours_until(monkeypatch):
    """step() shares run()'s arbitration: an event beyond ``until`` is left
    queued and the clock advances exactly to ``until``."""
    monkeypatch.delenv("REPRO_SIM_SLOWPATH", raising=False)
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "a")
    sim.schedule(15.0, fired.append, "b")
    assert sim.step(until=10.0) is True
    assert fired == ["a"]
    assert sim.step(until=10.0) is False
    assert sim.now == 10.0
    assert sim.pending_count == 1
    assert sim.step() is True
    assert fired == ["a", "b"]
    assert sim.now == 15.0


def test_step_consumes_pending_stop(monkeypatch):
    """A stop() request outstanding when step() is called is consumed:
    that step returns False without processing, the next one proceeds."""
    monkeypatch.delenv("REPRO_SIM_SLOWPATH", raising=False)
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "x")
    sim.stop()
    assert sim.step() is False
    assert fired == []
    assert sim.step() is True
    assert fired == ["x"]
