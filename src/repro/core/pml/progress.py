"""Thread-based asynchronous progress (§4.3, §6.4).

In the threaded modes, dedicated progress threads block on the PTL's
host-event words (interrupt-armed) and drive the module when woken, while
application threads park on their requests:

* **one-thread** — a single progress thread blocks on ONE combined queue:
  the PTL's receive queue doubles as the shared completion queue for local
  RDMA completions ("the one-queue strategy ... can also save an additional
  thread", §6.2);
* **two-thread** — one thread blocks on the receive queue, a second on the
  separate completion queue ("Worse yet, it requires two progressing
  threads", §4.3) — more wakeups and more CPU contention, which is why
  Table 1 finds one-thread progress faster.

Every wakeup pays the interrupt (≈10 µs) + thread wakeup + context switch;
completion hand-off to the application thread pays the condvar-signal cost.
"""

from __future__ import annotations

from typing import Generator, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pml.teg import Pml
    from repro.hw.cpu import HostThread, HostWordEvent

__all__ = ["ProgressDriver", "start_progress_threads"]


class ProgressDriver:
    """Owns the progress threads of one PML."""

    def __init__(self, pml: "Pml"):
        self.pml = pml
        self.threads: List["HostThread"] = []
        self._stopping = False
        self.wakeups = 0

    def start(self) -> None:
        mode = self.pml.progress_mode
        node = self.pml.process.node
        for module in self.pml.modules:
            if module.custom_progress_loop is not None:
                # e.g. PTL/TCP: one select-style thread over all sockets
                if mode != "one-thread":
                    raise ValueError(
                        f"{module.name}: only one-thread progress is "
                        "meaningful for a poll/select transport"
                    )
                t = node.spawn_thread(
                    self._make_custom_loop(module),
                    name=f"progress-{module.name}",
                )
                t.busy_waker = True
                self.threads.append(t)
                continue
            sources = module.blocking_sources()
            if mode == "one-thread" and len(sources) != 1:
                raise ValueError(
                    f"{module.name}: one-thread progress needs a combined "
                    f"queue, got {len(sources)} sources"
                )
            if mode == "two-thread" and len(sources) != 2:
                raise ValueError(
                    f"{module.name}: two-thread progress needs a separate "
                    f"completion queue, got {len(sources)} sources"
                )
            for i, word in enumerate(sources):
                module.arm_blocking(word)
                t = node.spawn_thread(
                    self._make_loop(module, word),
                    name=f"progress-{module.name}-{i}",
                )
                t.busy_waker = True
                self.threads.append(t)

    def _make_loop(self, module, word: "HostWordEvent"):
        cfg = self.pml.config

        def handle(thread) -> Generator:
            completed_before = self.pml.completions
            yield from module.progress_from(thread, word)
            # hand-off: signalling each newly completed request to its
            # parked application thread costs a condvar signal
            newly = self.pml.completions - completed_before
            for _ in range(max(0, newly)):
                yield from thread.compute(cfg.condvar_signal_us)

        def loop(thread) -> Generator:
            while not self._stopping:
                module.arm_blocking(word)
                yield from thread.block_on(word)
                module.arm_blocking(word, armed=False)
                if self._stopping:
                    return
                self.wakeups += 1
                yield from handle(thread)
                # spin-then-block, but only while *local* operations are
                # outstanding (an issued RDMA whose completion message is
                # imminent): that pair costs one interrupt, while idle
                # periods — no pending work — block immediately, so every
                # fresh remote message still pays the interrupt the paper
                # measures
                spin_until = thread.sim.now + cfg.progress_spin_us
                while (
                    not self._stopping
                    and module.pending() > 0
                    and thread.sim.now < spin_until
                ):
                    if word.consume():
                        yield from handle(thread)
                        spin_until = thread.sim.now + cfg.progress_spin_us
                        continue
                    remaining = spin_until - thread.sim.now
                    from repro.sim.events import AnyOf, Timeout

                    yield AnyOf(
                        thread.sim,
                        [word.wait_event(), Timeout(thread.sim, remaining)],
                    )
                    yield from thread.compute(cfg.poll_check_us)

        return loop

    def _make_custom_loop(self, module):
        cfg = self.pml.config
        state = {"last_completed": self.pml.completions}

        def on_handled(thread, handled) -> Generator:
            # bill a condvar signal per request completed since last visit
            newly = self.pml.completions - state["last_completed"]
            state["last_completed"] = self.pml.completions
            self.wakeups += 1
            for _ in range(max(0, newly)):
                yield from thread.compute(cfg.condvar_signal_us)

        def loop(thread) -> Generator:
            yield from module.custom_progress_loop(
                thread, lambda: self._stopping, on_handled
            )

        return loop

    def stop(self, thread) -> Generator:
        """Wake every progress thread into orderly exit."""
        self._stopping = True
        for module in self.pml.modules:
            module.stop_progress_loop()
        for t in self.threads:
            yield from thread.wait_sim_event(t.join_event())
        for module in self.pml.modules:
            for word in module.blocking_sources():
                word.clear()


def start_progress_threads(pml: "Pml") -> ProgressDriver:
    """Create and start the driver appropriate to ``pml.progress_mode``."""
    driver = ProgressDriver(pml)
    driver.start()
    pml.progress_driver = driver
    return driver
