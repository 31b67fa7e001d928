"""CPU scheduling: simulated threads with real contention costs.

The paper's Table 1 (threaded asynchronous progress) measures artifacts of
the host scheduler — interrupt delivery, thread wakeup, context switches,
and contention when more runnable threads exist than CPUs.  This module
models those mechanics structurally:

* a node has ``cpus_per_node`` CPUs (a counted resource);
* a :class:`HostThread` occupies a CPU while computing, releases it while
  blocked, and pays ``thread_wakeup_us`` + CPU-queueing + context-switch
  cost on every wakeup;
* :class:`Mutex`/:class:`CondVar` carry the locking and signalling costs the
  threaded PML progress path incurs;
* :class:`HostWordEvent` models a *re-settable* host-memory event word — the
  object a Quadrics host event ultimately is — supporting cheap polling,
  blocking waits, and NIC-side ``set`` from interrupt context.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional, TYPE_CHECKING

from repro.sim.core import SimError
from repro.sim.events import SimEvent
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import MachineConfig
    from repro.sim.core import Simulator

__all__ = ["CpuScheduler", "HostThread", "HostWordEvent", "Mutex", "CondVar"]


class HostWordEvent:
    """A re-settable event word in host memory.

    Unlike :class:`~repro.sim.events.SimEvent` (one-shot), this models an
    8-byte word the NIC writes and the host polls or blocks on; ``clear()``
    re-arms it.  The Elan event-engine models in :mod:`repro.elan4.event`
    build their host-visible side on this.
    """

    __slots__ = ("sim", "name", "_set", "_value", "_waiters", "set_count", "_wait_name")

    def __init__(self, sim: "Simulator", name: str = "hostword"):
        self.sim = sim
        self.name = name
        self._set = False
        self._value: Any = None
        self._waiters: Deque[SimEvent] = deque()
        self.set_count = 0  # total set() calls, for tests / tracing
        self._wait_name = f"wait:{name}"  # wait_event() runs per poll loop

    def poll(self) -> bool:
        """Non-destructive check (one host-memory read)."""
        return self._set

    def consume(self) -> bool:
        """Check-and-clear in one step (the polling-progress idiom)."""
        if self._set:
            self._set = False
            return True
        return False

    @property
    def value(self) -> Any:
        return self._value

    def set(self, value: Any = None) -> None:
        """Mark the word set and release *all* current waiters."""
        self._set = True
        self._value = value
        self.set_count += 1
        while self._waiters:
            self._waiters.popleft().succeed(value)

    def clear(self) -> None:
        self._set = False
        self._value = None

    def wait_event(self) -> SimEvent:
        """A one-shot event completing when the word is (or becomes) set."""
        ev = SimEvent(self.sim, name=self._wait_name)
        if self._set:
            ev.succeed(self._value)
        else:
            self._waiters.append(ev)
        return ev


class CpuScheduler:
    """The CPUs of one node: a counted resource plus utilisation accounting."""

    def __init__(self, sim: "Simulator", config: "MachineConfig"):
        self.sim = sim
        self.config = config
        self.cpus = Resource(sim, capacity=config.cpus_per_node, name="cpus")
        self.busy_time = 0.0
        self._threads: list["HostThread"] = []
        #: the threads marked ``busy_waker``, so a wakeup counts them
        #: without scanning every thread on the node
        self._busy_wakers: list["HostThread"] = []

    @property
    def runnable_backlog(self) -> int:
        """Threads waiting for a CPU right now (contention indicator)."""
        return self.cpus.queue_length

    @property
    def threads(self) -> list["HostThread"]:
        return list(self._threads)

    def spawn(
        self,
        fn: Callable[["HostThread"], Generator],
        name: str = "thread",
        daemon: bool = False,
    ) -> "HostThread":
        """Create and start a thread running ``fn(thread)``."""
        t = HostThread(self, fn, name, daemon=daemon)
        self._threads.append(t)
        return t

    def stats(self) -> dict:
        """Observation-only snapshot of scheduler state."""
        return {
            "busy_time_us": self.busy_time,
            "runnable_backlog": self.runnable_backlog,
            "threads": len(self._threads),
            "threads_alive": sum(1 for t in self._threads if t.state != "done"),
        }


class HostThread:
    """A simulated OS thread.

    The body is a generator taking the thread itself; inside it, work and
    blocking are expressed with::

        yield from thread.compute(us)        # occupy a CPU for `us`
        yield from thread.block_on(word)     # sleep until a HostWordEvent
        yield from thread.wait_sim_event(ev) # sleep until a one-shot event
        yield from thread.sleep(us)          # timed sleep (CPU released)

    Scheduling is non-preemptive between yields: a thread keeps its CPU
    across consecutive ``compute`` calls and releases it only when blocking
    — exactly the behaviour that lets a polling MPI process starve a
    progress thread on a busy node, and that makes Table 1's two-thread
    configuration slower than one-thread.
    """

    def __init__(
        self,
        sched: CpuScheduler,
        fn: Callable[["HostThread"], Generator],
        name: str,
        daemon: bool = False,
    ):
        self.sched = sched
        self.sim = sched.sim
        self.config = sched.config
        self.name = name
        self.state = "new"  # new | running | ready | blocked | done
        self._busy_waker = False
        self._on_cpu = False
        self._cpu_acquired_at = 0.0
        self.process = self.sim.spawn(
            self._main(fn), name=f"thread:{name}", daemon=daemon
        )

    # -- lifecycle -------------------------------------------------------
    def _main(self, fn: Callable[["HostThread"], Generator]) -> Generator:
        yield from self._acquire_cpu()
        try:
            result = yield from fn(self)
            return result
        finally:
            self._release_cpu()
            self.state = "done"

    @property
    def busy_waker(self) -> bool:
        """Marks a thread that wakes on every completion (a progress
        thread): each one inflates every OTHER thread's wakeup cost on
        this node."""
        return self._busy_waker

    @busy_waker.setter
    def busy_waker(self, value: bool) -> None:
        if value and not self._busy_waker:
            self.sched._busy_wakers.append(self)
        elif self._busy_waker and not value:
            self.sched._busy_wakers.remove(self)
        self._busy_waker = value

    @property
    def is_alive(self) -> bool:
        return self.state != "done"

    def join_event(self) -> SimEvent:
        """Event completing when the thread's body returns."""
        return self.process

    # -- CPU occupancy -----------------------------------------------------
    def _acquire_cpu(self) -> Generator:
        if self._on_cpu:
            return
        self.state = "ready"
        req = self.sched.cpus.request()
        try:
            yield req
        except BaseException:
            # Killed while queued for (or just granted) a CPU: withdraw the
            # request, or hand the already-granted unit back — otherwise the
            # slot leaks and the node's other threads starve forever.
            if not self.sched.cpus.cancel(req):
                self.sched.cpus.release()
            raise
        self._on_cpu = True
        self._cpu_acquired_at = self.sim.now
        self.state = "running"
        yield self.sim.timeout(self.config.context_switch_us)

    def _release_cpu(self) -> None:
        if self._on_cpu:
            self.sched.busy_time += self.sim.now - self._cpu_acquired_at
            self._on_cpu = False
            self.sched.cpus.release()

    @property
    def on_cpu(self) -> bool:
        return self._on_cpu

    # -- work ---------------------------------------------------------------
    def compute(self, us: float) -> Generator:
        """Occupy a CPU for ``us`` microseconds of work."""
        if us < 0:
            raise SimError(f"negative compute time {us}")
        yield from self._acquire_cpu()
        if us > 0:
            yield self.sim.timeout(us)

    def yield_cpu(self) -> Generator:
        """Voluntarily relinquish the CPU and immediately recontend.

        Models ``sched_yield`` in a polling loop sharing a node with other
        threads: if nobody else is waiting, the thread resumes immediately
        (paying a context switch); otherwise it queues behind them.
        """
        self._release_cpu()
        yield self.sim.timeout(0.0)
        yield from self._acquire_cpu()

    # -- blocking -------------------------------------------------------------
    def block_on(self, word: HostWordEvent, clear: bool = True) -> Generator:
        """Block until ``word`` is set; optionally clear it on wakeup.

        Fast path: if the word is already set, no blocking occurs and no
        scheduler costs are paid (this is how a lucky blocking receive can
        complete at polling speed).
        """
        if word.poll():
            value = word.value
            if clear:
                word.clear()
            return value
        self._release_cpu()
        self.state = "blocked"
        value = yield word.wait_event()
        yield self.sim.timeout(self._wake_delay())
        yield from self._acquire_cpu()
        if clear:
            word.clear()
        return value

    def wait_sim_event(self, ev: SimEvent) -> Generator:
        """Block until a one-shot event fires (mutex/condvar internals)."""
        if ev.triggered:
            return ev._value
        self._release_cpu()
        self.state = "blocked"
        value = yield ev
        yield self.sim.timeout(self._wake_delay())
        yield from self._acquire_cpu()
        return value

    def sleep(self, us: float) -> Generator:
        """Release the CPU for ``us`` µs, then recontend for it."""
        self._release_cpu()
        self.state = "blocked"
        yield self.sim.timeout(us)
        yield self.sim.timeout(self._wake_delay())
        yield from self._acquire_cpu()

    def _wake_delay(self) -> float:
        """Wakeup latency, inflated by scheduler load: every other live
        busy-waker (progress) thread on the node adds ``sched_load_us``."""
        others = sum(
            1 for t in self.sched._busy_wakers if t is not self and t.state != "done"
        )
        return self.config.thread_wakeup_us + self.config.sched_load_us * others


class Mutex:
    """A mutual-exclusion lock with uncontended cost ``lock_us``."""

    def __init__(self, sim: "Simulator", config: "MachineConfig", name: str = "mutex"):
        self.sim = sim
        self.config = config
        self.name = name
        self._owner: Optional[HostThread] = None
        self._waiters: Deque[tuple[SimEvent, HostThread]] = deque()

    @property
    def locked(self) -> bool:
        return self._owner is not None

    def acquire(self, thread: HostThread) -> Generator:
        yield from thread.compute(self.config.lock_us)
        if self._owner is None:
            self._owner = thread
            return
        if self._owner is thread:
            raise SimError(f"mutex {self.name!r}: recursive acquire")
        ev = SimEvent(self.sim, name=f"lock:{self.name}")
        self._waiters.append((ev, thread))
        yield from thread.wait_sim_event(ev)
        # ownership transferred by release()

    def release(self, thread: HostThread) -> None:
        if self._owner is not thread:
            raise SimError(f"mutex {self.name!r}: release by non-owner")
        if self._waiters:
            ev, next_thread = self._waiters.popleft()
            self._owner = next_thread
            ev.succeed(None)
        else:
            self._owner = None


class CondVar:
    """A condition variable tied to a :class:`Mutex`.

    ``wait`` atomically releases the mutex and blocks; ``signal`` (from a
    thread) costs ``condvar_signal_us``; ``signal_from_callback`` lets
    non-thread contexts (interrupt handlers, NIC callbacks) wake waiters.
    """

    def __init__(self, sim: "Simulator", config: "MachineConfig", mutex: Mutex, name: str = "cv"):
        self.sim = sim
        self.config = config
        self.mutex = mutex
        self.name = name
        self._waiters: Deque[SimEvent] = deque()

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def wait(self, thread: HostThread) -> Generator:
        if self.mutex._owner is not thread:
            raise SimError(f"condvar {self.name!r}: wait without holding mutex")
        ev = SimEvent(self.sim, name=f"cv:{self.name}")
        self._waiters.append(ev)
        self.mutex.release(thread)
        yield from thread.wait_sim_event(ev)
        yield from self.mutex.acquire(thread)

    def signal(self, thread: HostThread) -> Generator:
        yield from thread.compute(self.config.condvar_signal_us)
        self._wake_one()

    def broadcast(self, thread: HostThread) -> Generator:
        yield from thread.compute(self.config.condvar_signal_us)
        while self._waiters:
            self._wake_one()

    def signal_from_callback(self) -> None:
        self._wake_one()

    def _wake_one(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed(None)
