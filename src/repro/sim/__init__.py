"""Deterministic discrete-event simulation kernel.

This package is the foundation substrate for the whole reproduction: the
Elan4 NIC, the hosts' CPUs, the TCP/IP stack, the Open MPI communication
stack and the benchmark drivers all execute as coroutine processes inside a
single :class:`~repro.sim.core.Simulator` event loop with a simulated clock
measured in microseconds.

Design goals:

* **Determinism** — ties in the event heap are broken by insertion order, so
  a given seed and workload always produce the same trace (required for the
  paper's microbenchmark reproductions to be stable).
* **Composability** — processes are plain generators; sub-operations are
  factored with ``yield from``, exactly how the layered Open MPI stack
  (MPI -> PML -> PTL -> NIC) is expressed.
* **No wall-clock dependence** — all time is simulated; benchmarks read
  :attr:`Simulator.now`.
"""

from repro.sim.core import Simulator, SimError, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    EventFailed,
    SimEvent,
    Timeout,
)
from repro.sim.process import Interrupt, Process
from repro.sim.resources import PriorityStore, Resource, Store
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "EventFailed",
    "Interrupt",
    "PriorityStore",
    "Process",
    "RandomStreams",
    "Resource",
    "SimError",
    "SimEvent",
    "Simulator",
    "StopSimulation",
    "Store",
    "Timeout",
]
