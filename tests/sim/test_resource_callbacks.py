"""Differential tests for the callback forms of :class:`Resource`.

``grant(fn, *args)`` and ``hold(duration, fn, *args)`` exist so the NIC
engines need no generator per DMA burst or packet.  They must arbitrate
*exactly* like the coroutine form they replace — same grant instants and,
at one instant, the same order — because same-timestamp order on the PCI bus
and the injection links is what the modelled series hang on.  Each seeded
random schedule below runs twice: once with a mix of coroutine, ``hold`` and
``grant`` clients plus cancelled requests, once with every ``hold`` /
``grant`` client replaced by the coroutine it stands for; the completion
sequences must be identical, on the fast kernel and on the plain-heap
reference (``REPRO_SIM_SLOWPATH=1``).
"""

import random

import pytest

from repro.sim import Resource, Simulator

SCHEDULES = 120  # per capacity: 240 schedules, each on both kernels
KINDS = ("coro", "hold", "grant", "cancel")


def _schedule(seed: int):
    """``(start, kind, duration, cancel_after)`` per client.  Times come
    from small grids so that requests, grants and releases collide at one
    timestamp all the time — the ties are the point."""
    rng = random.Random(seed)
    clients = []
    for _ in range(rng.randrange(6, 22)):
        clients.append((
            rng.choice((0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5)),
            rng.choice(KINDS),
            rng.choice((0.0, 0.5, 0.5, 1.0, 1.5)),
            rng.choice((0.0, 0.5, 1.0, 2.5)),
        ))
    return clients


def _run(seed: int, capacity: int, mixed: bool, spawn_hop: bool = True):
    """Run one schedule; ``mixed=False`` is the all-coroutine reference.
    ``spawn_hop=False`` starts the callback clients without the zero-delay
    hop a spawned coroutine takes (the rejected variant)."""
    sim = Simulator()
    res = Resource(sim, capacity, name="bus")
    log = []

    def done(i):
        log.append((sim.now, i))

    def coroutine(i, duration):
        yield res.request()
        yield sim.timeout(duration)
        res.release()
        done(i)

    def granted(i, duration):
        sim.schedule_pooled(duration, finish, (i,))

    def finish(i):
        res.release()
        done(i)

    def cancellable(i, duration, cancel_after):
        # a bare request() withdrawn if it is still queued when its
        # canceller runs; identical in both runs
        ev = res.request()
        ev.add_callback(lambda _ev: granted(i, duration))

        def canceller():
            if res.cancel(ev):
                log.append((sim.now, i, "cancelled"))

        sim.schedule(cancel_after, canceller)

    def launch(i, kind, duration, cancel_after):
        if kind == "cancel":
            cancellable(i, duration, cancel_after)
        elif kind == "coro" or not mixed:
            sim.spawn(coroutine(i, duration))
        else:
            call = ((res.hold, (duration, done, i)) if kind == "hold"
                    else (res.grant, (granted, i, duration)))
            if spawn_hop:
                sim.schedule_pooled(0.0, *call)
            else:
                call[0](*call[1])

    for i, (start, kind, duration, cancel_after) in enumerate(_schedule(seed)):
        sim.schedule(start, launch, i, kind, duration, cancel_after)
    sim.run()
    assert res.in_use == 0 and res.queue_length == 0
    return log, sim.now


@pytest.mark.parametrize("slowpath", [False, True], ids=["fast", "reference"])
@pytest.mark.parametrize("capacity", [1, 2])
def test_callback_clients_arbitrate_like_coroutines(capacity, slowpath, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1" if slowpath else "0")
    assert Simulator().fastpath is (not slowpath)
    ties = queued_cancels = 0
    for seed in range(SCHEDULES):
        mixed = _run(seed, capacity, mixed=True)
        assert mixed == _run(seed, capacity, mixed=False), f"seed {seed}"
        times = [entry[0] for entry in mixed[0]]
        ties += len(times) - len(set(times))
        queued_cancels += sum(1 for entry in mixed[0] if len(entry) == 3)
    # the schedules must really have exercised ties and queued cancels
    assert ties > SCHEDULES and queued_cancels > SCHEDULES // 4


def test_fast_and_reference_kernels_agree(monkeypatch):
    for seed in range(40):
        runs = []
        for slow in ("0", "1"):
            monkeypatch.setenv("REPRO_SIM_SLOWPATH", slow)
            runs.append(_run(seed, 1, mixed=True))
        assert runs[0] == runs[1], f"seed {seed}"


def test_dropping_the_spawn_hop_reorders_same_instant_completions(monkeypatch):
    """The counter-example behind the hop-preservation rule: a callback
    client that asks for the resource one kernel hop earlier than the
    coroutine it replaces overtakes a coroutine that asked at the same
    instant."""
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "0")
    moved = sum(
        _run(seed, 1, mixed=True, spawn_hop=False) != _run(seed, 1, mixed=False)
        for seed in range(SCHEDULES)
    )
    assert moved > 0


def test_cancel_between_queued_holds():
    """A queued request() withdrawn from between two queued holds: the
    holds behind it move up, the FIFO order of the rest is untouched."""
    sim = Simulator()
    res = Resource(sim, 1, name="bus")
    log = []
    res.hold(1.0, log.append, "a")
    res.hold(1.0, log.append, "b")
    ev = res.request()
    res.hold(1.0, log.append, "c")
    assert res.queue_length == 3
    assert res.cancel(ev) and not res.cancel(ev)
    sim.run()
    assert log == ["a", "b", "c"] and sim.now == 3.0
    assert not ev.triggered and res.in_use == 0


def test_hold_releases_before_the_continuation_runs():
    sim = Simulator()
    res = Resource(sim, 1)
    seen = []
    res.hold(2.0, lambda: seen.append((sim.now, res.in_use)))
    sim.run()
    assert seen == [(2.0, 0)]
