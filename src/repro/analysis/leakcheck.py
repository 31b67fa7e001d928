"""NIC resource-leak probes, run at sim teardown.

The resources the paper's design is most careful about are exactly the
ones a fault-injection abort path can strand:

* **QSLOTS** — a receive-queue slot is taken when a delivery starts and
  freed when the owner polls the message out (or the queue is destroyed);
  an aborted delivery must not strand it.  Invariant checked per queue:
  ``taken slots == queued messages + in-flight deliveries``.
* **Command-queue / pending-operation slots** — ``Elan4Nic.track_pending``
  per-context counts gate the §4.1 finalization drain; a leak here makes
  ``finalize`` hang forever.  Checked only when the simulator is
  *quiescent* (no event can ever run again), when any nonzero count is
  provably stranded.
* **MMU registrations** — a released context (capability freed) whose
  translations survive is the §4.1 stale-descriptor hazard; checked
  unconditionally via :meth:`ElanCapability.released_ctxs`.
* **Descriptor pools** — DMA-engine units held and RDMA read descriptors
  outstanding at quiescence can never be released or completed.

Probes are observation-only and deterministic: findings name stable model
labels (node ids, contexts, queue ids), never object addresses.
"""

from __future__ import annotations

from typing import Any, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitize import Sanitizer

__all__ = ["check_nic"]


def _quiescent(sim: Any) -> bool:
    """True when no live event remains — nothing can ever run again."""
    return sim.peek() is None


def check_nic(sanitizer: "Sanitizer", nic: Any) -> List[Any]:
    """Run every leak probe against one NIC; records findings and returns
    the findings added."""
    before = len(sanitizer.findings)
    _check_qslots(sanitizer, nic)
    _check_mmu(sanitizer, nic)
    if _quiescent(nic.sim):
        _check_pending(sanitizer, nic)
        _check_descriptor_pools(sanitizer, nic)
        _check_stalled_work(sanitizer, nic)
    return sanitizer.findings[before:]


def _check_qslots(sanitizer: "Sanitizer", nic: Any) -> None:
    for (ctx, queue_id), q in nic.qdma.queues.items():
        taken = q.nslots - q.free_slots
        accounted = len(q._ready) + q.inflight_deliveries
        if taken != accounted:
            sanitizer.record(
                "leak",
                "qslot",
                f"node {nic.node_id} queue ({ctx:#x}, {queue_id}): "
                f"{taken} QSLOT(s) taken but only {accounted} accounted for "
                f"({len(q._ready)} queued message(s), "
                f"{q.inflight_deliveries} in-flight deliveries)"
                + (" — double free" if taken < accounted else ""),
            )


def _check_mmu(sanitizer: "Sanitizer", nic: Any) -> None:
    for ctx in nic.capability.released_ctxs(nic.node_id):
        if nic.mmu.has_context(ctx):
            table = nic.mmu._ctx[ctx]
            sanitizer.record(
                "leak",
                "mmu-registration",
                f"node {nic.node_id}: context {ctx:#x} was released back to "
                f"the capability but {len(table.entries)} MMU "
                f"registration(s) survive — a stale descriptor could "
                f"regenerate traffic into recycled memory (§4.1)",
            )


def _check_pending(sanitizer: "Sanitizer", nic: Any) -> None:
    # contexts torn down uncooperatively by the FT layer (owner died; no
    # drain possible) are accounted-for: their orphaned counts are the
    # *expected* debris of a kill, not a leak
    reclaimed = nic.reclaimed_ctxs
    for ctx, count in nic._pending.items():
        if count > 0 and ctx not in reclaimed:
            sanitizer.record(
                "leak",
                "pending-op",
                f"node {nic.node_id}: context {ctx:#x} holds {count} "
                f"pending-operation slot(s) at quiescence; finalize/drain "
                f"of this context would hang forever",
            )
    waiting = [c for c in nic._drain_waiters if c not in reclaimed]
    if waiting:
        ctxs = ", ".join(f"{c:#x}" for c in waiting)
        sanitizer.record(
            "leak",
            "pending-op",
            f"node {nic.node_id}: drain waiter(s) for context(s) {ctxs} "
            f"still blocked at quiescence",
        )


def _check_descriptor_pools(sanitizer: "Sanitizer", nic: Any) -> None:
    if nic.dma_engines.in_use:
        sanitizer.record(
            "leak",
            "dma-engine",
            f"node {nic.node_id}: {nic.dma_engines.in_use} DMA engine "
            f"descriptor(s) of {nic.dma_engines.capacity} still held at "
            f"quiescence",
        )
    if nic.rdma._reads:
        req_ids = ", ".join(str(r) for r in nic.rdma._reads)
        sanitizer.record(
            "leak",
            "rdma-descriptor",
            f"node {nic.node_id}: RDMA read descriptor(s) {req_ids} "
            f"outstanding at quiescence (never completed nor cancelled)",
        )


def _check_stalled_work(sanitizer: "Sanitizer", nic: Any) -> None:
    if nic.stalled and nic._stalled_work:
        kinds = ", ".join(kind for kind, _ in nic._stalled_work)
        sanitizer.record(
            "leak",
            "stalled-work",
            f"node {nic.node_id}: NIC still stalled at quiescence with "
            f"{len(nic._stalled_work)} parked item(s) ({kinds}); this work "
            f"can never replay",
        )
