"""PCI-X 64-bit/133 MHz I/O bus model.

Every byte moved by the NIC crosses this bus twice per end-to-end transfer
(host→NIC on the sender, NIC→host on the receiver), so its ~1064 MB/s peak
is the real bandwidth ceiling of the testbed — the reason the paper's
Fig. 10d tops out near 900 MB/s despite 1.3 GB/s links, and part of why
chained DMA saves little on this platform (§6.2: "PCI-X bus and fast CPU
... also reduce the possible benefits of chained DMA").

The bus serialises bursts: one bus-master transaction at a time, FIFO
arbitration.  PIO writes (doorbells) are small posted writes with a fixed
cost, issued by a host thread that suspends on them (a coroutine).  A DMA
is bus-mastered by a NIC engine, which has no thread to suspend:
:meth:`PciBus.dma` takes the continuation to call when the last burst is
done.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, TYPE_CHECKING

from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import MachineConfig
    from repro.sim.core import Simulator

__all__ = ["PciBus"]

#: largest single bus burst; bigger DMAs are split so concurrent traffic
#: interleaves rather than head-of-line blocking for a whole megabyte.
BURST_BYTES = 4096


class PciBus:
    """One node's I/O bus.  All NIC DMA and host PIO funnels through here."""

    def __init__(self, sim: "Simulator", config: "MachineConfig", name: str = "pci"):
        self.sim = sim
        self.config = config
        self.name = name
        self._bus = Resource(sim, capacity=1, name=name)
        self.bytes_moved = 0
        self.pio_count = 0
        # hoisted for the per-burst loop (config is immutable per run)
        self._us_per_byte = config.pci_us_per_byte
        self._setup_us = config.pci_dma_setup_us

    def pio_write(self) -> Generator:
        """One programmed-IO write (doorbell / command-word store)."""
        yield self._bus.request()
        self.pio_count += 1
        yield self.sim.timeout(self.config.pio_write_us)
        self._bus.release()

    def dma(self, nbytes: int, fn: Callable[..., Any], *args: Any) -> None:
        """A bus-master DMA of ``nbytes``, split into arbitration bursts,
        then ``fn(*args)`` once the last burst completes.

        The caller does not say which direction; cost is symmetric.
        """
        remaining = max(0, int(nbytes))
        self.bytes_moved += remaining
        self._burst(remaining, self._setup_us, fn, args)

    def _burst(self, remaining: int, setup_us: float, fn: Callable[..., Any],
               args: tuple) -> None:
        """One arbitration burst of a :meth:`dma`; only the first pays the
        setup cost (a zero-byte descriptor still arbitrates once)."""
        if remaining <= BURST_BYTES:
            self._bus.hold(remaining * self._us_per_byte + setup_us, fn, *args)
        else:
            self._bus.hold(
                BURST_BYTES * self._us_per_byte + setup_us,
                self._burst, remaining - BURST_BYTES, 0.0, fn, args,
            )

    @property
    def queue_length(self) -> int:
        return self._bus.queue_length

    def stats(self) -> dict:
        """Observation-only snapshot of lifetime bus activity."""
        return {
            "bytes_moved": self.bytes_moved,
            "pio_count": self.pio_count,
            "queue_length": self.queue_length,
        }
