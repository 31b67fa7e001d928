"""Coroutine processes.

A :class:`Process` drives a generator inside the simulator: every value the
generator yields must be a :class:`~repro.sim.events.SimEvent`; the process
suspends until the event completes, then resumes with the event's value (or
with its exception re-raised at the yield point).

A Process is itself a SimEvent: it completes with the generator's return
value, so processes compose — ``yield child_process`` joins a child, and
``yield from subroutine()`` inlines a sub-protocol.  The entire Open MPI
stack is written this way (an ``MPI_Send`` coroutine yields from the PML,
which yields on PTL fragment events, which are completed by NIC callbacks).

The flattened trampoline
------------------------

The dominant suspend/resume pattern is a process waiting on an event that is
already TRIGGERED with no other waiter (a Timeout, or a completion the
hardware just signalled).  Instead of the generic path — the event's pooled
``ScheduledCall`` fires ``_process``, which walks the callback list into
``_on_event``, which calls ``_resume`` — the process *fuses* into the
pending call: the call is rewritten in place (same ``(time, priority, seq)``
slot, so ordering is untouched) to invoke :meth:`Process._fused_wake`, which
finalizes the event and steps the generator in one frame, re-fusing onto the
next yielded event when it can.  Two steady-state coroutines ping-ponging on
timeouts thus run the whole suspend/resume cycle in a single argument-free
bound-method call per event, with no intermediate dispatch hops and no
``args`` tuple allocation.  Fusion is fast-path only (``sim.fastpath``); the
slow path keeps the generic callback chain.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.sim.core import SimError
from repro.sim.events import PENDING, PROCESSED, TRIGGERED, SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Used by the CPU model to preempt simulated threads and by fault-injection
    tests to kill in-flight transfers.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(SimEvent):
    """A generator-driven coroutine that is also an awaitable event."""

    __slots__ = ("gen", "_waiting_on", "_cb", "_fused", "_fused_ev", "_fuse", "daemon")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator,
        name: Optional[str] = None,
        daemon: bool = False,
    ):
        # kept probes: ``gen`` is the caller's object, checked before use
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        if not hasattr(gen, "send"):
            raise SimError(f"Process requires a generator, got {gen!r}")
        self.gen = gen
        #: daemon processes (accept loops, connection servers) legitimately
        #: outlive the workload blocked on external input; the deadlock
        #: sanitizer excludes them from blocked-at-drain dumps
        self.daemon = daemon
        self._waiting_on: Optional[SimEvent] = None
        self._cb = self._on_event  # bound once; registered on every wait
        self._fused = self._fused_wake
        #: the event whose pending call currently points at _fused_wake;
        #: carried here instead of in call.args so fusing allocates nothing
        self._fused_ev: Optional[SimEvent] = None
        self._fuse = sim.fastpath
        if sim.sanitizer is not None:
            sim.sanitizer.on_process(self)
        sim.schedule_pooled(0.0, self._resume, (None, None))

    # -- driving -------------------------------------------------------
    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        self._waiting_on = None
        try:
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except BaseException as err:
            self._finish(err)
            return
        if not isinstance(target, SimEvent):
            self._reject_yield(target)
        self._waiting_on = target
        if self._fuse and target._state == TRIGGERED and not target._callbacks:
            call = target._call
            if call is not None:
                # Sole-waiter fusion: the event's completion is already
                # scheduled; rewrite that pending call in place to resume
                # this process directly.  The (time, priority, seq) slot is
                # unchanged, so event ordering is untouched.
                call.fn = self._fused
                call.args = ()
                self._fused_ev = target
                return
        target.add_callback(self._cb)

    def _finish(self, err: BaseException) -> None:
        """The generator raised out of send/throw — finish the process.

        Cold path shared by :meth:`_resume` and :meth:`_fused_wake`:
        StopIteration is a normal return, an escaping Interrupt terminates
        quietly, anything else fails the process (and surfaces when nobody
        is joining, so protocol bugs cannot vanish silently).
        """
        if isinstance(err, StopIteration):
            self.succeed(err.value)
        elif isinstance(err, Interrupt):
            self.succeed(None)
        else:
            self.fail(err)
            if not self._callbacks:
                raise err

    def _reject_yield(self, target: Any) -> None:
        self.gen.close()
        self.fail(SimError(f"process {self.name!r} yielded non-event {target!r}"))
        raise SimError(
            f"process {self.name!r} yielded {target!r}; processes must "
            "yield SimEvent instances (use sim.timeout(...) to sleep)"
        )

    def _fused_wake(self) -> None:
        """Fire a fused completion (see :meth:`_resume`): finalize the
        event, step the generator, re-fuse onto the next yielded event when
        possible, then run any callbacks registered after the fusion —
        exactly the order the generic dispatch path produces."""
        ev = self._fused_ev
        self._fused_ev = None
        ev._state = PROCESSED
        ev._call = None
        if self._state == PENDING:
            exc = ev._exc
            if exc is not None:
                self._resume(None, exc)
            else:
                # Inlined hot continuation of _resume(ev._value, None); the
                # fusion guard drops the self._fuse test (fusion only ever
                # installs on the fast path).
                self._waiting_on = None
                try:
                    target = self.gen.send(ev._value)
                except BaseException as err:
                    self._finish(err)
                else:
                    if not isinstance(target, SimEvent):
                        self._reject_yield(target)
                    self._waiting_on = target
                    if target._state == TRIGGERED and not target._callbacks:
                        call = target._call
                        if call is not None:
                            call.fn = self._fused
                            call.args = ()
                            self._fused_ev = target
                        else:
                            target.add_callback(self._cb)
                    else:
                        target.add_callback(self._cb)
        late = ev._callbacks
        if late:
            ev._callbacks = []
            for cb in late:
                cb(ev)

    def _on_event(self, ev: SimEvent) -> None:
        if self._state != PENDING:
            return  # interrupted while waiting; stale wakeup
        exc = ev._exc
        if exc is not None:
            self._resume(None, exc)
        else:
            self._resume(ev._value, None)

    # -- control -------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        The event it was waiting on is detached (its completion will be
        ignored by this process).  Interrupting a finished process is a
        no-op, matching thread-cancellation semantics.
        """
        if self.triggered:
            return
        waiting = self._waiting_on
        if waiting is not None:
            call = waiting._call
            if call is not None and call.fn is self._fused:
                # Un-fuse: restore the event's own completion so a stale
                # wakeup cannot resume this (re-waiting) process.
                call.fn = waiting._process
                call.args = ()
                self._fused_ev = None
            else:
                waiting.discard_callback(self._cb)
            self._waiting_on = None
        self.sim.schedule_pooled(0.0, self._deliver_interrupt, (Interrupt(cause),))

    def _deliver_interrupt(self, exc: Interrupt) -> None:
        if self.triggered:
            return
        self._resume(None, exc)
