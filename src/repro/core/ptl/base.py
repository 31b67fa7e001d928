"""The PTL component/module abstraction and its five-stage lifecycle.

"The PTL layer provides two abstractions: the PTL component and the PTL
module.  A PTL component encapsulates the functionality of a particular
network transport that can be dynamically loaded at run-time; a PTL module
represents an 'instance' of a communication endpoint, typically one per
network interface card.  In order to join and disjoin from the pool of
available PTLs, a PTL has to go through five major stages of actions:
opening, initializing, communicating, finalizing and closing." (§2.2)

:class:`PtlRegistry` drives those stages and owns the pool of available
modules; the PML schedules over whatever the registry exposes, which is how
transports join and leave at run time (the fault-tolerance requirement of
§3).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pml.teg import Pml
    from repro.core.request import RecvRequest, SendRequest

__all__ = ["PtlComponent", "PtlModule", "PtlRegistry", "PtlError"]


class PtlError(Exception):
    """Lifecycle violation or transport failure."""


class PtlModule:
    """One communication endpoint of a component (≈ one NIC).

    Concrete transports implement:

    * ``local_info()`` — contact info published to the RTE registry;
    * ``add_peer(thread, rank, info)`` — wire up one peer;
    * ``remove_peer(rank)`` — drop one peer's wiring;
    * ``send_first(thread, req)`` — transmit the first fragment (eager
      MATCH or RNDV), per the PML's scheduling decision;
    * ``matched(thread, recv_req, frag)`` — the PML matched a rendezvous
      fragment to a posted receive: run the transport's long-message
      protocol (ACK + RDMA-write, or RDMA-read + FIN_ACK, or streamed
      FRAGs);
    * ``progress(thread)`` — advance incoming traffic and local
      completions; returns the number of events handled;
    * ``wait_signal()`` — an event completing when *something* may have
      happened (used to sleep efficiently instead of spinning);
    * ``pending()`` — in-flight operations (drain accounting);
    * ``finalize(thread)`` — complete pending traffic and release
      resources (§4.1 drain semantics).
    """

    #: transport name, e.g. "elan4" or "tcp"
    name: str = "abstract"

    def __init__(self, component: "PtlComponent"):
        self.component = component
        self.process = component.process
        self.config = component.config
        self.sim = component.sim
        self.pml: Optional["Pml"] = None
        #: largest payload this module accepts in a first fragment — the
        #: "exposed fragment length" the PML schedules by (§6.1)
        self.first_frag_capacity: int = 0
        #: relative bandwidth weight for remainder scheduling
        self.bandwidth_weight: float = 1.0
        #: PML scheduling order: lower is preferred (elan4=0, tcp=10)
        self.schedule_priority: int = 100
        #: cleared when the module's rail is diagnosed dead; the PML skips
        #: unhealthy modules when scheduling (failover, §3)
        self.healthy: bool = True

    # -- fault handling -------------------------------------------------------
    def mark_peer_dead(self, rank: int) -> None:
        """The path to ``rank`` through this module is gone; stop offering
        it.  Default: drop the peer wiring."""
        self.remove_peer(rank)

    def matched_duplicate(self, thread, frag, req) -> Generator:
        """A re-sent copy of an already-seen first fragment arrived (PML
        sequence below expectation).  ``req`` is the still-open receive it
        originally matched, or ``None``.  Default: ignore it."""
        yield self.sim.timeout(0)

    def resend_payload(self, thread, rank: int, payload) -> Generator:
        """Failover replay of a raw fragment harvested from a dead rail's
        reliability channel.  Only transports sharing the fragment wire
        format can accept these; the base refuses."""
        raise PtlError(f"{self.name}: cannot replay foreign fragments")
        yield  # pragma: no cover

    # -- identity ------------------------------------------------------------
    def local_info(self) -> Dict[str, Any]:
        raise NotImplementedError

    def add_peer(self, thread, rank: int, info: Dict[str, Any]) -> Generator:
        raise NotImplementedError

    def has_peer(self, rank: int) -> bool:
        raise NotImplementedError

    def remove_peer(self, rank: int) -> None:
        raise NotImplementedError

    # -- data path ----------------------------------------------------------
    def send_first(self, thread, req: "SendRequest") -> Generator:
        raise NotImplementedError

    def matched(self, thread, recv_req: "RecvRequest", frag) -> Generator:
        raise NotImplementedError

    def progress(self, thread) -> Generator:
        raise NotImplementedError

    def wait_signal(self):
        raise NotImplementedError

    def block_wait(self, thread, req) -> Generator:
        """Interrupt-mode wait: block *inside this PTL* until ``req``
        completes.  The paper notes this "is not really a workable strategy
        under real communication scenarios because the MPI process cannot
        block within a particular PTL" (§6.4) — it exists to measure the
        cost of interrupt-based progress, so only transports that are
        benchmarked that way implement it."""
        raise NotImplementedError(f"{self.name}: no interrupt-mode support")
        yield  # pragma: no cover

    def pending(self) -> int:
        raise NotImplementedError

    def finalize(self, thread) -> Generator:
        raise NotImplementedError


class PtlComponent:
    """A dynamically loadable transport implementation."""

    name: str = "abstract"

    def __init__(self, process, config):
        self.process = process
        self.config = config
        self.sim = process.node.sim
        self.state = "closed"  # closed -> opened -> initialized -> finalized -> closed
        self.modules: List[PtlModule] = []

    # -- lifecycle (the five stages of §2.2) ---------------------------------
    def open(self, thread) -> Generator:
        """Stage 1: map the component and check its dependencies."""
        if self.state != "closed":
            raise PtlError(f"{self.name}: open() in state {self.state}")
        yield from self._open_impl(thread)
        self.state = "opened"

    def init(self, thread) -> Generator:
        """Stage 2: initialise the device; returns the PTL modules."""
        if self.state != "opened":
            raise PtlError(f"{self.name}: init() in state {self.state}")
        self.modules = yield from self._init_impl(thread)
        self.state = "initialized"
        return self.modules

    def finalize(self, thread) -> Generator:
        """Stage 4: complete pending communication, release resources."""
        if self.state != "initialized":
            raise PtlError(f"{self.name}: finalize() in state {self.state}")
        for module in self.modules:
            yield from module.finalize(thread)
        self.state = "finalized"

    def close(self, thread) -> Generator:
        """Stage 5: make sure modules are finalized; free the component."""
        if self.state == "initialized":
            yield from self.finalize(thread)
        yield from self._close_impl(thread)
        self.state = "closed"
        self.modules = []

    # -- hooks ---------------------------------------------------------------
    def _open_impl(self, thread) -> Generator:
        yield self.sim.timeout(0)

    def _init_impl(self, thread) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover

    def _close_impl(self, thread) -> Generator:
        yield self.sim.timeout(0)


class PtlRegistry:
    """The pool of available PTL components/modules of one process."""

    def __init__(self, process, config):
        self.process = process
        self.config = config
        self.components: List[PtlComponent] = []
        self.modules: List[PtlModule] = []

    def load(self, thread, component: PtlComponent) -> Generator:
        """Open + initialise a component and insert its modules into the
        communication stack (activation, §2.2)."""
        yield from component.open(thread)
        modules = yield from component.init(thread)
        self.components.append(component)
        self.modules.extend(modules)
        return modules

    def unload(self, thread, component: PtlComponent) -> Generator:
        """Finalize + close a component, removing its modules from the pool
        (dynamic disjoin)."""
        if component not in self.components:
            raise PtlError(f"{component.name} is not loaded")
        for m in component.modules:
            self.modules.remove(m)
        self.components.remove(component)
        yield from component.close(thread)

    def finalize_all(self, thread) -> Generator:
        for component in list(self.components):
            yield from self.unload(thread, component)
