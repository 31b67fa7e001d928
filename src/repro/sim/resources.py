"""Shared-resource primitives: counted resources and message stores.

These are the generic building blocks; cost-bearing synchronization (locks
with context-switch latency, condition variables with wakeup cost) lives in
:mod:`repro.hw.cpu` because those costs are properties of the simulated
hardware, not of the kernel.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, List, Optional, TYPE_CHECKING

from repro.annotations import acquires, releases
from repro.sim.core import SimError
from repro.sim.events import TRIGGERED, SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Resource", "Store", "PriorityStore"]


class Resource:
    """A counted resource with FIFO waiters (e.g. a DMA engine with N
    concurrent descriptors, or the PCI-X bus with one outstanding burst).

    Two client forms share the one FIFO queue, so they arbitrate exactly as
    if every client were a coroutine:

    * **coroutine** — ``yield res.request()``: an event that fires when a
      unit is granted; the holder calls ``release()`` once per grant.  Host
      threads use it (a CPU, a socket lock, a PIO doorbell on the bus);
    * **callback** — ``res.grant(fn, *args)`` runs ``fn(*args)`` when a unit
      is granted (the holder still calls ``release()``), and
      ``res.hold(duration, fn, *args)`` is the whole
      request -> timeout -> release cycle, then ``fn(*args)``.  The NIC and
      HCA engines use it: a DMA burst or a packet serialisation needs no
      generator to suspend.

    A grant is always one zero-delay kernel hop after the request or the
    ``release()`` that handed the unit over, in either form: that hop
    decides same-timestamp order on a contended resource, so the callback
    form keeps it (DESIGN.md, "Callback-form engines").
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimError("Resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        #: queued clients in arrival order: a ``SimEvent`` for a coroutine
        #: ``request()``, a ``(fn, args)`` tuple for a ``grant`` / ``hold``
        self._waiters: Deque[Any] = deque()
        self._req_name = f"req:{name}"  # request() runs per DMA burst

    def request(self) -> SimEvent:
        ev = SimEvent(self.sim, name=self._req_name)
        if self.in_use < self.capacity:
            self.in_use += 1
            # succeed(self) inlined: a fresh event cannot have completed.
            ev._state = TRIGGERED
            ev._value = self
            ev._call = self.sim.schedule_pooled(0.0, ev._process)
        else:
            self._waiters.append(ev)
        return ev

    def grant(self, fn: Callable[..., Any], *args: Any) -> None:
        """Callback form of ``yield request()``: run ``fn(*args)`` once a
        unit is granted; whoever finishes the work calls ``release()``."""
        if self.in_use < self.capacity:
            self.in_use += 1
            self.sim.schedule_pooled(0.0, fn, args)
        else:
            self._waiters.append((fn, args))

    def hold(self, duration: float, fn: Callable[..., Any], *args: Any) -> None:
        """Callback form of request -> ``timeout(duration)`` -> release:
        occupy one unit for ``duration`` µs from the grant, release it, then
        run ``fn(*args)`` — in that order, as a coroutine's statements after
        its ``release()`` would."""
        self.grant(self._hold_begin, duration, fn, args)

    def _hold_begin(self, duration: float, fn: Callable[..., Any], args: tuple) -> None:
        self.sim.schedule_pooled(duration, self._hold_end, (fn, args))

    def _hold_end(self, fn: Callable[..., Any], args: tuple) -> None:
        self.release()
        fn(*args)

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # unit handed over: in_use stays constant
            waiter = self._waiters.popleft()
            if type(waiter) is tuple:
                self.sim.schedule_pooled(0.0, waiter[0], waiter[1])
            else:
                waiter._state = TRIGGERED  # a queued request cannot have fired
                waiter._value = self
                waiter._call = self.sim.schedule_pooled(0.0, waiter._process)
        else:
            self.in_use -= 1

    def cancel(self, ev: SimEvent) -> bool:
        """Withdraw a queued ``request()`` that has not been granted yet.

        Returns True if the event was still waiting (now removed); False if
        the grant already happened — the caller owns a unit and must
        ``release()`` it instead.  Needed when a waiter is killed: leaving
        a dead waiter queued would leak a capacity unit on grant.

        Queued ``grant`` / ``hold`` jobs are not cancellable: they return no
        handle.  Only a coroutine can be killed while it waits (a host
        thread interrupted, a process reaped); the NIC engines that use the
        callback form are never torn down mid-operation — a destroyed queue
        or a cancelled read is noticed by the callback when it runs, which
        then gives its unit straight back.
        """
        try:
            self._waiters.remove(ev)
            return True
        except ValueError:
            return False

    @property
    def queue_length(self) -> int:
        return len(self._waiters)


class Store:
    """An unbounded (or bounded) FIFO of items with event-based ``get``.

    This is the shape of every queue in the reproduction: QDMA receive
    queues, PML unexpected-message lists, socket buffers, OOB mailboxes.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: Optional[int] = None,
        name: str = "",
    ):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()
        self._putters: Deque[tuple[SimEvent, Any]] = deque()
        self._put_name = f"put:{name}"
        self._get_name = f"get:{name}"

    @releases("store-item")
    def put(self, item: Any) -> SimEvent:
        """Deposit ``item``; returns an event that fires once it is stored
        (immediately unless the store is bounded and full)."""
        ev = SimEvent(self.sim, name=self._put_name)
        if self._getters or not self._full():
            self.put_nowait(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    @releases("store-item")
    def put_nowait(self, item: Any) -> None:
        """``put`` without its completion event, for a caller that would
        never wait on it: hand ``item`` to the oldest waiting getter, or
        queue it.  A bounded store must have room."""
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self._full():
            raise SimError(f"put_nowait on full store {self.name!r}")
        else:
            self._items.append(item)

    def _full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    @acquires("store-item")
    def get(self) -> SimEvent:
        """Returns an event yielding the next item (waits if empty)."""
        ev = SimEvent(self.sim, name=self._get_name)
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking poll: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters:
            ev, item = self._putters.popleft()
            self._items.append(item)
            ev.succeed(None)

    def __len__(self) -> int:
        return len(self._items)

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (for matching scans, not consumption)."""
        return list(self._items)

    def remove(self, predicate: Callable[[Any], bool]) -> Optional[Any]:
        """Remove and return the first item satisfying ``predicate``."""
        for i, item in enumerate(self._items):
            if predicate(item):
                del self._items[i]
                self._admit_putter()
                return item
        return None


def _identity_key(item: Any) -> Any:
    return item


class PriorityStore(Store):
    """A Store that yields the smallest item first (heap ordering).

    ``key`` extracts the sort key from an item (default: the item itself,
    which must then be totally ordered).  The heap entry is
    ``(key(item), counter, item)`` — the insertion counter breaks key ties
    deterministically *before* the item is ever compared, so payloads never
    need to be orderable.  Pass ``key=lambda it: it[0]`` for the classic
    ``(priority, payload)`` shape with unorderable payloads.
    """

    def __init__(self, sim: "Simulator", name: str = "", key: Callable[[Any], Any] = _identity_key):
        super().__init__(sim, capacity=None, name=name)
        self._heap: list[tuple[Any, int, Any]] = []
        self._counter = itertools.count()
        self._key = key

    def put_nowait(self, item: Any) -> None:
        # Even with waiters, route through the heap so priorities hold.
        heapq.heappush(self._heap, (self._key(item), next(self._counter), item))
        if self._getters:
            self._getters.popleft().succeed(heapq.heappop(self._heap)[2])

    def get(self) -> SimEvent:
        ev = SimEvent(self.sim, name=self._get_name)
        if self._heap:
            ev.succeed(heapq.heappop(self._heap)[2])
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        if self._heap:
            return True, heapq.heappop(self._heap)[2]
        return False, None

    def __len__(self) -> int:
        return len(self._heap)
