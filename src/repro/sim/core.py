"""The simulation event loop.

A :class:`Simulator` owns a future-event set of ``(time, priority, seq, fn)``
entries.  ``seq`` is a monotonically increasing insertion counter so that
simultaneous events fire in the order they were scheduled — this is what
makes every run of the reproduction bit-for-bit deterministic.

Time is a ``float`` in **microseconds**, matching the unit the paper reports
(latency plots are in µs, bandwidth is derived as bytes / µs = MB/s).

The future-event set
--------------------

One binary heap of ``(time, priority, seq, call)`` entries holds every timed
callback, on both kernels.  On the ledger workloads the timed population is
small (a mean of 1–124 pending entries, a peak of 1.6 k) because most events
are zero-delay and never reach it, so C ``heapq`` costs no more than a
Python-level bucket structure; DESIGN.md §6 keeps the measurement.

Dispatch fast paths
-------------------

* a **zero-delay ready queue**: an internal schedule at the current time
  with default priority always carries the largest ``seq`` so far, so it
  pops after every pending entry with ``time <= now`` and before anything
  later — a FIFO deque reproduces that order exactly without paying two
  O(log n) heap operations (completions and process resumes are almost all
  zero-delay, making this the single hottest path of any run);
* **same-timestamp batch dispatch**: ``run()`` drains consecutive ready
  entries back-to-back behind one cheap guard (no due entry at ``now`` on
  the heap), paying the full dequeue arbitration — shared with
  :meth:`Simulator.step` via :meth:`Simulator._next_call` — only at batch
  boundaries;
* a **free-list pool** of :class:`ScheduledCall` objects for internal
  schedules whose handle never escapes (event completion, process resume) —
  the dominant allocation of any run;
* **lazy-cancellation cleanup**: cancelled entries are counted and skipped
  when they surface; when dead entries outnumber live ones the heap is
  swept in place (entries keep their ``(time, priority, seq)`` keys, so pop
  order is untouched);
* an **O(live-head)** :meth:`peek` that drops dead heads instead of sorting
  anything.

Setting ``REPRO_SIM_SLOWPATH=1`` in the environment disables the pool,
ready queue and compaction (and the model-layer caches that key off the
same flag): every entry goes through the heap — the reference path
``tests/sim/test_fastpath.py``, ``tests/sim/test_calendar_queue.py`` and
the CI ``slowpath-equivalence`` job compare against.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Simulator",
    "SimError",
    "StopSimulation",
    "ScheduledCall",
    "slowpath_enabled",
    "sanitize_enabled",
]

#: free-list growth bound; beyond this, retired calls are left to the GC
_POOL_MAX = 4096

#: compaction triggers only with at least this many cancelled entries (the
#: sweep is O(pending), so tiny queues are never worth scanning)
_COMPACT_MIN_CANCELLED = 64


def slowpath_enabled() -> bool:
    """True when ``REPRO_SIM_SLOWPATH`` asks for the reference kernel (and
    reference model paths: no call pool, no ready queue, no compaction,
    no route/TLB caches, per-hop fabric events)."""
    return os.environ.get("REPRO_SIM_SLOWPATH", "0") not in ("", "0")


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` asks for the runtime sanitizers
    (race/leak/deadlock detectors, see :mod:`repro.analysis`)."""
    return os.environ.get("REPRO_SANITIZE", "0") not in ("", "0")


class SimError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StopSimulation(Exception):
    """Raised (or passed to :meth:`Simulator.stop`) to end :meth:`Simulator.run`."""


class ScheduledCall:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is O(1): the entry stays in the heap and is skipped when it
    surfaces, or swept out once dead entries outnumber live ones.  This is
    important because the NIC models schedule and cancel many timeouts
    (e.g. retransmission timers in the reliability substrate).

    ``_pooled`` marks calls created through the internal free list — their
    handle never escapes the kernel, so they are recycled after firing.
    Public handles are instead marked cancelled once fired, making a late
    ``cancel()`` a no-op (and keeping the simulator's cancelled-entry
    counter honest).
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim", "_pooled")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = None
        self._pooled = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled entries don't pin objects alive while
        # they wait to surface.
        self.fn = _noop
        self.args = ()
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()


def _noop(*_args: Any) -> None:
    return None


# Lazily-bound constructor classes for spawn()/timeout()/event() — resolved
# once instead of importing inside every call (these run hundreds of
# thousands of times per figure).  Lazy because events/process import core.
_process_cls = None
_timeout_cls = None
_simevent_cls = None


def _load_process_cls():
    global _process_cls
    from repro.sim.process import Process

    _process_cls = Process
    return Process


def _load_event_cls():
    global _simevent_cls, _timeout_cls
    from repro.sim.events import SimEvent, Timeout

    _simevent_cls = SimEvent
    _timeout_cls = Timeout
    return SimEvent, Timeout


class Simulator:
    """Deterministic discrete-event simulator with a µs clock.

    Usage::

        sim = Simulator()
        sim.spawn(my_generator())
        sim.run()

    ``spawn`` wraps a generator in a :class:`~repro.sim.process.Process`
    coroutine; ``schedule`` registers plain callbacks.  Both coexist: the
    hardware models are mostly callback-driven (a DMA engine schedules its
    own completion), while protocol logic is written as coroutines.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._processes: list = []  # live Process objects, for diagnostics
        self.fastpath: bool = not slowpath_enabled()
        self._pool: List[ScheduledCall] = []
        #: zero-delay internal calls, as (seq, call) in FIFO order; ``None``
        #: on the slow path (everything goes through the heap there)
        self._ready: Optional[deque] = deque() if self.fastpath else None
        #: the future-event set: a binary heap of (time, priority, seq, call)
        self._heap: list[tuple[float, int, int, ScheduledCall]] = []
        self._cancelled_in_heap = 0
        #: total callbacks executed (cancelled skips excluded) — the
        #: performance ledger's ``sim.events``
        self.events_processed = 0
        #: optional semantic event trace: models append tuples here when it
        #: is a list (tests/sim/test_fastpath.py compares these sequences
        #: between fast-path and slow-path runs)
        self.trace: Optional[list] = None
        #: runtime sanitizer (repro.analysis), attached when REPRO_SANITIZE=1
        #: — observation-only detectors; None on normal runs, so hooks cost
        #: one attribute load on the cold paths that carry them
        self.sanitizer = None
        if sanitize_enabled():
            from repro.analysis.sanitize import attach  # repro-lint: allow[layering] -- opt-in debug hook; gated on REPRO_SANITIZE so the kernel never depends on it

            attach(self)

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` simulated microseconds.

        ``priority`` breaks ties *before* insertion order (lower runs
        earlier); the kernel itself always uses the default, but tests use
        it to force orderings when reproducing race conditions (Fig. 5).
        """
        if delay < 0:
            raise SimError(f"negative delay {delay!r}")
        time = self.now + delay
        call = ScheduledCall(time, fn, args)
        call._sim = self
        heappush(self._heap, (time, priority, next(self._seq), call))
        return call

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimError(f"cannot schedule in the past: {time} < {self.now}")
        call = ScheduledCall(time, fn, args)
        call._sim = self
        heappush(self._heap, (time, priority, next(self._seq), call))
        return call

    def schedule_pooled(
        self, delay: float, fn: Callable[..., Any], args: tuple = ()
    ) -> "ScheduledCall":
        """Internal fast-path schedule: same ordering semantics as
        :meth:`schedule`, but returns no handle and recycles the
        :class:`ScheduledCall` through a free list once it fires.

        Only for call sites that never cancel (event completion, process
        resume): a recycled call must not be reachable by user code.

        Returns the (pool-owned) call so the events layer can fuse a sole
        waiter into it in place — callers outside the kernel must not hold
        on to it past the firing.
        """
        ready = self._ready
        if delay == 0.0 and ready is not None:
            # Zero-delay fast path: this call's seq is the largest allocated
            # so far, so FIFO order through a deque is exactly heap order.
            pool = self._pool
            if pool:
                call = pool.pop()
                call.time = self.now
                call.fn = fn
                call.args = args
                call.cancelled = False
            else:
                call = ScheduledCall(self.now, fn, args)
                call._pooled = True
            ready.append((next(self._seq), call))
            return call
        if delay < 0:
            raise SimError(f"negative delay {delay!r}")
        time = self.now + delay
        pool = self._pool
        if pool:  # never populated on the slow path
            call = pool.pop()
            call.time = time
            call.fn = fn
            call.args = args
            call.cancelled = False
        else:
            call = ScheduledCall(time, fn, args)
            call._pooled = True
        heappush(self._heap, (time, 0, next(self._seq), call))
        return call

    def spawn(self, gen: Generator, name: Optional[str] = None, daemon: bool = False):
        """Start a coroutine process immediately (at the current time).

        ``daemon`` marks server-style processes that legitimately stay
        blocked on external input when the queue drains (accept loops);
        the deadlock sanitizer skips them.
        """
        cls = _process_cls or _load_process_cls()
        return cls(self, gen, name=name, daemon=daemon)

    def timeout(self, delay: float, value: Any = None):
        """Convenience constructor for a :class:`~repro.sim.events.Timeout`."""
        cls = _timeout_cls or _load_event_cls()[1]
        return cls(self, delay, value)

    def event(self):
        """Convenience constructor for a bare :class:`~repro.sim.events.SimEvent`."""
        cls = _simevent_cls or _load_event_cls()[0]
        return cls(self)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping / compaction
    # ------------------------------------------------------------------
    def _live_head(self) -> bool:
        """Drop cancelled entries off the heap top; True when a live entry
        heads the heap."""
        heap = self._heap
        while heap:
            if not heap[0][3].cancelled:
                return True
            heappop(heap)
            self._cancelled_in_heap -= 1
        return False

    def _note_cancelled(self) -> None:
        """Called by :meth:`ScheduledCall.cancel`; triggers a lazy sweep
        when dead entries outnumber live ones."""
        self._cancelled_in_heap += 1
        if (
            self.fastpath
            and self._cancelled_in_heap >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Sweep cancelled entries out of the heap.  Live entries keep
        their ``(time, priority, seq)`` keys, so pop order is unchanged.
        In place: :meth:`run` holds a local alias to the heap, so the list
        object must survive compaction."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapify(heap)
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # Dequeue arbitration (shared by run()/step())
    # ------------------------------------------------------------------
    def _next_call(self, until: Optional[float]) -> Optional[ScheduledCall]:
        """Advance the clock and return the next live callback, or None
        when nothing can run (drained, or ``until`` reached — the clock is
        then advanced exactly to ``until``, standard DES semantics).

        This is the single copy of the dequeue arbitration: the ready queue
        merges against the heap on ``(priority, seq)`` for entries due
        *now*; otherwise dead heads are dropped and time moves to the next
        live entry.  ``run()`` fronts this with a batch guard; :meth:`step`
        calls it directly.
        """
        ready = self._ready
        now = self.now
        heap = self._heap
        while True:
            if ready:
                # A heap entry goes first only if it is due *now* and
                # sorts before the oldest ready entry's (priority, seq).
                if heap and heap[0][0] == now:
                    h = heap[0]
                    if h[1] < 0 or (h[1] == 0 and h[2] < ready[0][0]):
                        if until is not None and now > until:
                            self.now = until
                            return None
                        heappop(heap)
                        call = h[3]
                        if call.cancelled:
                            self._cancelled_in_heap -= 1
                            continue
                        return call
                return ready.popleft()[1]
            if not self._live_head():
                if until is not None and until > now:
                    self.now = until
                elif self.sanitizer is not None:
                    # natural drain: no callback can ever run again, so
                    # blocked processes are deadlocked (cold path)
                    self.sanitizer.on_drain()
                return None
            entry = heap[0]
            time = entry[0]
            if until is not None and time > until:
                self.now = until
                return None
            heappop(heap)
            self.now = time
            return entry[3]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have run.

        Returns the simulation time when the loop stopped.  ``until`` is an
        absolute time; when it is hit the clock is advanced exactly to it
        (standard DES semantics), with any events at later timestamps left
        queued for a subsequent ``run`` call.

        Only a *natural* drain (queue empty, no ``stop()``/``until``/
        ``max_events`` cutoff) invokes the sanitizer's drain hook: blocked
        coroutine processes at that point can never resume, and the
        deadlock detector dumps their wait chains plus every still-held
        lifecycle resource — labelled with its owning layer and acquire
        site via :mod:`repro.annotations` (see
        :mod:`repro.analysis.deadlock`).
        """
        if self._running:
            raise SimError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        ready = self._ready  # None on the slow path
        heap = self._heap
        pool = self._pool
        pooling = self.fastpath
        next_call = self._next_call
        processed = 0
        limit = -1 if max_events is None else max_events
        try:
            while True:
                # Same-timestamp batch dispatch: while no heap entry is due
                # at `now`, consecutive ready entries are already in
                # dispatch order — drain them behind this one guard instead
                # of re-running the full arbitration per pop.
                if ready and not (heap and heap[0][0] == self.now):
                    call = ready.popleft()[1]
                else:
                    call = next_call(until)
                    if call is None:
                        break
                call.fn(*call.args)
                processed += 1
                if call._pooled:
                    if pooling and len(pool) < _POOL_MAX:
                        call.fn = None
                        call.args = ()
                        pool.append(call)
                elif not call.cancelled:
                    # Fired: make a late cancel() on the public handle a
                    # no-op (and keep the cancelled-entry counter honest).
                    call.cancelled = True
                    call.fn = _noop
                    call.args = ()
                if self._stopped or processed == limit:
                    break
        finally:
            self._running = False
            self.events_processed += processed
        return self.now

    def step(self, until: Optional[float] = None) -> bool:
        """Process a single event.  Returns False when nothing is pending,
        a :meth:`stop` request is outstanding (consumed), or the next event
        lies beyond ``until`` (the clock then advances exactly to it) —
        the same dequeue arbitration :meth:`run` uses.

        A ``False`` return from queue exhaustion goes through the same
        natural-drain path as :meth:`run`, so a sanitized single-stepped
        run still gets the deadlock wait-chain/held-resource dump.
        """
        if self._stopped:
            self._stopped = False
            return False
        call = self._next_call(until)
        if call is None:
            return False
        call.fn(*call.args)
        self.events_processed += 1
        if call._pooled:
            if self.fastpath and len(self._pool) < _POOL_MAX:
                call.fn = None
                call.args = ()
                self._pool.append(call)
        elif not call.cancelled:
            call.cancelled = True
            call.fn = _noop
            call.args = ()
        return True

    def stop(self) -> None:
        """Request that the current (or next) :meth:`run` return promptly."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of pending entries (including cancelled placeholders)."""
        ready = self._ready
        return len(self._heap) + (len(ready) if ready else 0)

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None if nothing is pending.

        O(1) when a live entry heads the ready queue or heap; otherwise
        dead heads are dropped until one surfaces — ``run_until_idle``
        calls this in a loop.
        """
        ready = self._ready
        if ready:
            # Ready entries are due at the current time; nothing queued
            # can be earlier.
            return ready[0][1].time
        if self._live_head():
            return self._heap[0][0]
        return None

    def run_until_idle(self, quiet_check: Iterable[Callable[[], bool]] = ()) -> float:
        """Run until no live events remain and every ``quiet_check`` passes."""
        while True:
            self.run()
            if all(chk() for chk in quiet_check):
                return self.now
            if self.peek() is None:
                return self.now
