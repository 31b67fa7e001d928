"""Simulation events.

A :class:`SimEvent` is a one-shot future living inside a
:class:`~repro.sim.core.Simulator`.  Coroutine processes suspend on events by
``yield``-ing them; hardware models complete them from callbacks.

State machine::

    PENDING --succeed()/fail()--> TRIGGERED --(loop)--> PROCESSED

``TRIGGERED`` means the completion has been scheduled at the current
simulated time; callbacks run when the loop reaches it.  Completing an event
twice is an error (the kernel is strict so that protocol bugs — e.g. the
Fig. 5 double-completion race — surface as exceptions rather than silent
corruption, unless a model deliberately opts into racy semantics as the Elan
count-event model does).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional, Sequence, TYPE_CHECKING

from repro.sim.core import ScheduledCall, SimError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["SimEvent", "Timeout", "AnyOf", "AllOf", "EventFailed"]

PENDING = 0
TRIGGERED = 1
PROCESSED = 2


class EventFailed(Exception):
    """Wraps a failure value propagated through an event chain."""

    def __init__(self, cause: BaseException):
        super().__init__(repr(cause))
        self.cause = cause


class SimEvent:
    """A one-shot completion signal with a value or an exception."""

    __slots__ = ("sim", "_state", "_value", "_exc", "_callbacks", "name", "_call")

    def __init__(self, sim: "Simulator", name: Optional[str] = None):
        self.sim = sim
        self._state = PENDING
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: List[Callable[["SimEvent"], None]] = []
        self.name = name
        #: the pending completion ScheduledCall while TRIGGERED; lets a sole
        #: waiter fuse its resume into the call in place (same heap slot, so
        #: ordering is untouched).  Never valid once PROCESSED.
        self._call = None

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event completed successfully."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimError(f"value of untriggered event {self!r}")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- completion ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Complete successfully, with callbacks run ``delay`` µs later."""
        # _trigger and the kernel's zero-delay push are inlined: this is the
        # hottest completion path of any run.
        if self._state != PENDING:
            raise SimError(f"event {self!r} completed twice")
        self._state = TRIGGERED
        self._value = value
        sim = self.sim
        ready = sim._ready
        if delay == 0.0 and ready is not None:
            pool = sim._pool
            if pool:
                call = pool.pop()
                call.time = sim.now
                call.fn = self._process
                call.args = ()
                call.cancelled = False
            else:
                call = ScheduledCall(sim.now, self._process, ())
                call._pooled = True
            ready.append((next(sim._seq), call))
            self._call = call
        else:
            self._call = sim.schedule_pooled(delay, self._process)
        return self

    def succeed_now(self, value: Any = None) -> "SimEvent":
        """Complete successfully and run the callbacks at once, inside the
        caller's kernel event: a NIC callback resumes the host thread that
        waits on it exactly where an inlined ``yield from`` would have."""
        if self._state != PENDING:
            raise SimError(f"event {self!r} completed twice")
        self._value = value
        self._process()
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "SimEvent":
        """Complete with an exception; waiters see it re-raised."""
        if not isinstance(exc, BaseException):
            raise SimError(f"fail() requires an exception, got {exc!r}")
        self._trigger(None, exc, delay)
        return self

    def _trigger(self, value: Any, exc: Optional[BaseException], delay: float) -> None:
        if self._state != PENDING:
            raise SimError(f"event {self!r} completed twice")
        self._state = TRIGGERED
        self._value = value
        self._exc = exc
        # Completion handles never escape, so the pooled fast path applies.
        self._call = self.sim.schedule_pooled(delay, self._process)

    def _process(self) -> None:
        self._state = PROCESSED
        self._call = None
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for cb in callbacks:
                cb(self)

    # -- waiting -------------------------------------------------------
    def add_callback(self, cb: Callable[["SimEvent"], None]) -> None:
        """Register ``cb(event)``.  If already processed, runs it now."""
        if self._state == PROCESSED:
            cb(self)
        else:
            self._callbacks.append(cb)

    def discard_callback(self, cb: Callable[["SimEvent"], None]) -> None:
        try:
            self._callbacks.remove(cb)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}[
            self._state
        ]
        label = self.name or type(self).__name__
        return f"<{label} {state} at t={self.sim.now}>"


class Timeout(SimEvent):
    """An event that fires ``delay`` µs after construction.

    Timeouts are the single most-constructed object of any run (every
    modelled cost is one), so the constructor sets the event slots directly
    — equivalent to ``succeed(value, delay=delay)`` on a fresh event, minus
    three call frames and a per-instance name string.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        self.sim = sim
        self._state = TRIGGERED
        self._value = value
        self._exc = None
        self._callbacks = []
        self.name = None
        self.delay = delay
        # sim.schedule_pooled inlined for both the ready and the heap path:
        # a Timeout per modelled cost makes this the busiest constructor.
        ready = sim._ready
        if delay == 0.0 and ready is not None:
            pool = sim._pool
            if pool:
                call = pool.pop()
                call.time = sim.now
                call.fn = self._process
                call.args = ()
                call.cancelled = False
            else:
                call = ScheduledCall(sim.now, self._process, ())
                call._pooled = True
            ready.append((next(sim._seq), call))
            self._call = call
        else:
            if delay < 0:
                raise SimError(f"negative delay {delay!r}")
            time = sim.now + delay
            pool = sim._pool
            if pool:
                call = pool.pop()
                call.time = time
                call.fn = self._process
                call.args = ()
                call.cancelled = False
            else:
                call = ScheduledCall(time, self._process, ())
                call._pooled = True
            heappush(sim._heap, (time, 0, next(sim._seq), call))
            self._call = call


class _CompoundEvent(SimEvent):
    """Base for AnyOf/AllOf: completes based on child completions."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Sequence[SimEvent]):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._result())
        else:
            for ev in self.events:
                ev.add_callback(self._child_done)

    def _result(self) -> Any:
        raise NotImplementedError

    def _child_done(self, ev: SimEvent) -> None:
        raise NotImplementedError


class AnyOf(_CompoundEvent):
    """Completes when the first child completes; value is ``(event, value)``.

    A failed child fails the compound event.  This mirrors poll/select over
    multiple file descriptors — available in the TCP substrate, and exactly
    what Quadrics *lacks* (motivating the shared completion queue design of
    Section 4.3).
    """

    __slots__ = ()

    def _result(self) -> Any:
        return (None, None)

    def _child_done(self, ev: SimEvent) -> None:
        if self.triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
        else:
            self.succeed((ev, ev._value))


class AllOf(_CompoundEvent):
    """Completes when every child has completed; value is the list of values."""

    __slots__ = ()

    def _result(self) -> Any:
        return []

    def _child_done(self, ev: SimEvent) -> None:
        if self.triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self.events])
