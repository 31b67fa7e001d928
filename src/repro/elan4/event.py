"""Elan events: host notification, count-N aggregation, chaining — and the
Fig. 5 race.

Quadrics completion notification works through *events*: NIC-resident words
that operations "fire" on completion.  An event can

* make itself visible to the host (a host-memory word the process polls or
  blocks on, optionally with an interrupt);
* carry a **count**: it triggers only after ``count`` fires (Fig. 5b);
* **chain** further NIC operations, executed by the NIC's event engine with
  no host involvement (§3.1) — the mechanism behind the PTL's fast FIN /
  FIN_ACK and the shared completion queue.

The paper's Fig. 5c/5d race is modelled honestly: the host cannot atomically
reset the count, only read-then-write it across the PCI bus
(:meth:`ElanEvent.host_reset_count`); any fire landing inside that window is
obliterated by the write, losing a completion.  The property test in
``tests/elan4/test_event_race.py`` provokes exactly this, and the shared
completion queue design (§4.3) exists because of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional, TYPE_CHECKING

from repro.hw.cpu import HostWordEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["ElanEvent", "ChainOp", "EventRaceError"]


class EventRaceError(Exception):
    """Raised by strict-mode checks when a completion was provably lost."""


@dataclass
class ChainOp:
    """An operation the NIC event engine runs when an event triggers.

    ``run`` executes in NIC context (a callback); QDMA and RDMA modules
    provide closures that enqueue follow-on commands.  ``description`` feeds
    traces and tests.  ``ctx`` names the context that owns the operation:
    from trigger until ``run`` returns, the NIC counts it as that context's
    pending work, so finalize cannot release the context's VPID under it.
    """

    description: str
    run: Callable[[], None]
    ctx: Optional[int] = None


class ElanEvent:
    """One Elan event word on a NIC.

    ``fire()`` is called by NIC engines when an operation completes; the
    event triggers when its count reaches zero, at which point it sets its
    host word (if attached), schedules its chained operations on the event
    engine, and optionally raises a host interrupt.
    """

    def __init__(
        self,
        nic,
        count: int = 1,
        name: str = "elan-event",
    ):
        self.nic = nic
        self.sim: "Simulator" = nic.sim
        self.name = name
        self.count = count
        self._armed_count = count
        self.host_word: Optional[HostWordEvent] = None
        self.interrupt_armed = False
        self.chains: List[ChainOp] = []
        # statistics / test hooks
        self.fires = 0
        self.triggers = 0
        self.lost_fires = 0  # fires provably obliterated by a racy reset
        self._reset_in_flight: Optional[int] = None  # value read by host

    # -- wiring ----------------------------------------------------------
    def attach_host_word(self, word: Optional[HostWordEvent] = None) -> HostWordEvent:
        """Attach (or create) the host-visible side of this event."""
        if word is None:
            word = HostWordEvent(self.sim, name=f"hostword:{self.name}")
        self.host_word = word
        return word

    def arm_interrupt(self, armed: bool = True) -> None:
        """Request a hardware interrupt on trigger (blocking-mode waits)."""
        self.interrupt_armed = armed

    def chain(self, op: ChainOp) -> None:
        """Append a chained operation (runs on every trigger)."""
        self.chains.append(op)

    # -- NIC side ----------------------------------------------------------
    def fire(self, value: Any = None) -> None:
        """One completion lands on this event (NIC context)."""
        self.fires += 1
        self.count -= 1
        if self._reset_in_flight is not None:
            # A host read-modify-write is in progress; this decrement will
            # be overwritten when the write lands.  Track it for diagnosis.
            self.lost_fires += 1
            sanitizer = self.sim.sanitizer
            if sanitizer is not None:
                sanitizer.on_event_reset_race(self)
        if self.count == 0:
            self._trigger(value)

    def _trigger(self, value: Any) -> None:
        self.triggers += 1
        cfg = self.nic.config
        if self.host_word is not None:
            if self.interrupt_armed:
                # Blocking mode: the waiter only runs once the kernel has
                # taken the interrupt, so the word is set on the IRQ path
                # (≈10 µs) rather than the fast event-engine write.
                self.nic.node.raise_interrupt(self.host_word, value)
            else:
                # Polling mode: the NIC writes the host word directly.
                self.sim.schedule(cfg.nic_event_us, self.host_word.set, value)
        for op in self.chains:
            self.nic.run_chain(op)

    # -- host side -----------------------------------------------------------
    def host_read_count(self, thread) -> Generator:
        """Host reads the event count (one PIO-ish crossing)."""
        yield from thread.compute(self.nic.config.pio_write_us)
        return self.count

    def host_reset_count(self, thread, new_count: int) -> Generator:
        """The *non-atomic* reset of Fig. 5c/5d.

        The host reads the count, then writes ``new_count``; fires landing
        between the read and the write are silently overwritten — their
        completions are lost.  There is deliberately no atomic variant:
        "there is no available mechanism over Quadrics to atomically reset
        the event count back to 1 and block the process again" (§4.3).
        """
        cfg = self.nic.config
        yield from thread.compute(cfg.pio_write_us)  # read crossing
        self._reset_in_flight = self.count
        yield from thread.compute(cfg.pio_write_us)  # write crossing
        self._reset_in_flight = None
        self.count = new_count
        self._armed_count = new_count

    def host_wait(self, thread, clear: bool = True) -> Generator:
        """Block the calling thread until the event triggers.

        Requires an attached host word.  In blocking mode the caller should
        also :meth:`arm_interrupt`, else only a poller will ever see it.
        """
        if self.host_word is None:
            raise EventRaceError(f"{self.name}: host_wait without a host word")
        return (yield from thread.block_on(self.host_word, clear=clear))

    def poll(self) -> bool:
        """Host-side cheap check of the attached word."""
        return self.host_word is not None and self.host_word.poll()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ElanEvent {self.name!r} count={self.count} fires={self.fires} "
            f"triggers={self.triggers} lost={self.lost_fires}>"
        )
