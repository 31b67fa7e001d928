"""``Store.put_nowait``: ``put`` without the completion event nobody waits on."""

import pytest

from repro.annotations import registered_sites
from repro.sim import PriorityStore, SimError, Simulator, Store


def _wake_trace(method: str):
    """Two getters wait; at t=5 one callback deposits two items and then
    schedules a same-instant marker.  Returns who ran, with what, when."""
    sim = Simulator()
    store = Store(sim)
    trace = []

    def getter(name):
        item = yield store.get()
        trace.append((name, item, sim.now))

    def deposit():
        put = store.put if method == "put" else store.put_nowait
        put("x")
        put("y")
        sim.schedule(0.0, lambda: trace.append(("marker", None, sim.now)))

    sim.spawn(getter("g0"))
    sim.spawn(getter("g1"))
    sim.schedule(5.0, deposit)
    sim.run()
    return trace, sim.events_processed


def test_waiting_getter_wakes_in_the_same_order_and_instant_as_put():
    with_put, events_put = _wake_trace("put")
    with_nowait, events_nowait = _wake_trace("put_nowait")
    assert with_put == [("g0", "x", 5.0), ("g1", "y", 5.0), ("marker", None, 5.0)]
    assert with_nowait == with_put
    # the two put-completion events nobody waited on are gone
    assert events_nowait == events_put - 2


def test_put_nowait_queues_in_fifo_order_without_a_getter():
    sim = Simulator()
    store = Store(sim)
    for item in "abc":
        store.put_nowait(item)
    assert len(store) == 3 and sim.peek() is None  # nothing scheduled
    assert [store.try_get() for _ in range(4)] == [
        (True, "a"), (True, "b"), (True, "c"), (False, None)]


def test_put_nowait_refuses_a_full_bounded_store():
    sim = Simulator()
    store = Store(sim, capacity=1, name="tiny")
    store.put_nowait(1)
    with pytest.raises(SimError, match="full store 'tiny'"):
        store.put_nowait(2)
    assert store.peek_all() == [1]


def test_priority_store_put_nowait_hands_the_smallest_to_a_getter():
    sim = Simulator()
    ps = PriorityStore(sim)
    got = []

    def consumer():
        got.append((yield ps.get()))
        got.append((yield ps.get()))

    ps.put_nowait(5)
    sim.spawn(consumer())
    sim.schedule(1.0, lambda: (ps.put_nowait(9), ps.put_nowait(2)))
    sim.run()
    assert got == [5, 9] and ps.try_get() == (True, 2)


def test_recycled_pool_balances_under_the_sanitizer(monkeypatch):
    """A fixed pool recycled through ``put_nowait``, as the PTL's send
    buffers are: every ``get`` is matched by a ``put_nowait``, the pool
    ends full, and the runtime sanitizer reports nothing."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = Simulator()
    assert sim.sanitizer is not None
    pool = Store(sim, name="pool")
    counts = {"acquire": 0, "release": 0}
    for i in range(3):
        pool.put_nowait(i)
        counts["release"] += 1

    def worker(hold):
        for _ in range(4):
            buf = yield pool.get()
            counts["acquire"] += 1
            yield sim.timeout(hold)
            pool.put_nowait(buf)
            counts["release"] += 1

    for hold in (1.0, 2.5, 0.5, 4.0, 3.0):  # more workers than buffers
        sim.spawn(worker(hold))
    sim.run()
    assert counts == {"acquire": 20, "release": 23}
    assert len(pool) == counts["release"] - counts["acquire"] == 3
    assert [f.format() for f in sim.sanitizer.teardown()] == []
    released_by = [site[0] for site in registered_sites("store-item", "release")]
    assert "Store.put_nowait" in released_by and "Store.put" in released_by
