"""Deadlock detection: blocked processes at event-queue drain.

A discrete-event deadlock is unambiguous: the event queue has drained (no
callback can ever run again), yet coroutine processes are still suspended
on events.  Nothing inside the simulation can complete those events — they
are blocked forever.  The classic shape is a wait *cycle* (P0 joins P1
while P1 joins P0), but a process waiting on an Elan event no engine will
ever fire is just as dead; both are reported, cycles prominently.

The detector runs from :meth:`Sanitizer.on_drain`, which the kernel calls
only when :meth:`~repro.sim.core.Simulator.run` exits because the queue
emptied naturally (not on ``stop()``/``until``/``max_events`` exits, where
blocked processes are expected).  Repeated drains with the same blocked set
(``run_until_idle`` loops) report once.

Alongside the wait chains, the dump lists every resource still **held** at
the drain — open tracer spans, taken QSLOTs, pending-operation slots, DMA
engine units, outstanding RDMA read descriptors — because a blocked
process is usually blocked *on* one of them.  Each held resource is
labelled through the lifecycle annotation registry
(:func:`repro.annotations.describe_kind`): its owning layer and the
``file:line`` of the registered acquire primitive, so the dump points
straight at the code that took the resource that never came back.
"""

from __future__ import annotations

from typing import Any, List, Tuple, TYPE_CHECKING

from repro.annotations import describe_kind

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitize import Sanitizer

__all__ = ["check_drain", "blocked_processes", "wait_chain", "held_resources"]


def blocked_processes(sanitizer: "Sanitizer") -> List[Any]:
    """Live non-daemon processes suspended on an event, in spawn order.

    Daemon processes (accept loops, connection servers spawned with
    ``daemon=True``) legitimately block on external input forever and are
    excluded, matching daemon-thread semantics.
    """
    return [
        p
        for p in sanitizer.processes
        if not p.triggered
        and p._waiting_on is not None
        and not p.daemon
    ]


def wait_chain(proc: Any) -> List[Any]:
    """Follow ``proc``'s wait edges through joined processes.

    Returns ``[proc, target, ...]`` ending at either a plain event (the
    terminal wait) or — for a cycle — at the first repeated process.  A
    :class:`~repro.sim.process.Process` is itself a SimEvent, so a join
    (``yield child``) forms an edge worth following; any other event type
    terminates the chain.
    """
    chain: List[Any] = [proc]
    target = proc._waiting_on
    while target is not None:
        chain.append(target)
        if any(target is seen for seen in chain[:-1]):
            return chain  # cycle closed
        # kept probe: only a Process waits on something; other events end it
        target = getattr(target, "_waiting_on", None)
    return chain


def held_resources(sanitizer: "Sanitizer") -> List[Tuple[str, int, str]]:
    """``(kind, count, where)`` for every lifecycle-tracked resource still
    held at the drain, in registration order (deterministic).

    Sources are the same objects the teardown leak probes use — registered
    tracers and NICs — but here *any* held unit is reported (a deadlocked
    run is not quiescent teardown; held resources are context for the wait
    chains, not necessarily leaks).
    """
    out: List[Tuple[str, int, str]] = []
    for tracer in sanitizer.tracers:
        spans = tracer.open_spans()
        if spans:
            keys = sorted(str(k) for k in spans)
            shown = ", ".join(keys[:3]) + (", ..." if len(keys) > 3 else "")
            out.append(("tracer-span", len(spans), f"open spans: {shown}"))
    for nic in sanitizer.nics:
        node = f"node {nic.node_id}"
        for (ctx, queue_id), q in nic.qdma.queues.items():
            taken = q.nslots - q.free_slots
            if taken:
                out.append(
                    ("qslot", taken, f"{node} queue ({ctx:#x}, {queue_id})")
                )
        for ctx, count in nic._pending.items():
            if count > 0 and ctx not in nic.reclaimed_ctxs:
                out.append(("pending-op", count, f"{node} ctx {ctx:#x}"))
        if nic.dma_engines.in_use:
            out.append(("dma-engine", nic.dma_engines.in_use, node))
        if nic.rdma._reads:
            reqs = ", ".join(str(r) for r in nic.rdma._reads)
            out.append(("rdma-descriptor", len(nic.rdma._reads), f"{node} req(s) {reqs}"))
    return out


def _is_cycle(chain: List[Any]) -> bool:
    last = chain[-1]
    return len(chain) > 1 and any(last is seen for seen in chain[:-1])


def _describe(obj: Any) -> str:
    # kept probe: a waiter can be any event or object, named or not
    name = getattr(obj, "name", None)
    label = name if name else type(obj).__name__
    return f"{type(obj).__name__}({label!r})"


def check_drain(sanitizer: "Sanitizer") -> None:
    """Record a finding if the drained queue left processes blocked."""
    blocked = blocked_processes(sanitizer)
    if not blocked:
        sanitizer._last_drain_sig = ()
        return
    signature = tuple(p.name for p in blocked)
    if signature == sanitizer._last_drain_sig:
        return
    sanitizer._last_drain_sig = signature
    chains = [wait_chain(p) for p in blocked]
    cyclic = any(_is_cycle(c) for c in chains)
    lines = []
    for chain in chains:
        arrow = " -> ".join(_describe(obj) for obj in chain)
        suffix = "  [CYCLE]" if _is_cycle(chain) else ""
        lines.append(f"  {arrow}{suffix}")
    held = held_resources(sanitizer)
    if held:
        lines.append("held resources at drain:")
        for kind, count, where in held:
            # describe_kind labels the kind with its owning layer and the
            # registered acquire primitive's file:line
            lines.append(f"  {count} x {describe_kind(kind)} ({where})")
    sanitizer.record(
        "deadlock",
        "wait-cycle" if cyclic else "blocked-at-drain",
        f"event queue drained with {len(blocked)} blocked process(es); "
        "wait chains:\n" + "\n".join(lines),
    )
