"""NIC-offloaded collectives: registry, availability gating, degradation.

The paper's §4.1 constraint shapes everything here: Elan hardware
collectives need the global virtual address space that only the
synchronously-started static cohort shares.  :class:`HwCollRegistry`
(one per :class:`~repro.cluster.Cluster`, as ``cluster.coll_hw``) learns
each world rank's rail-0 Elan4 context at MPI wire-up, seals the
capability's static cohort once the world is complete, and lazily builds
per-communicator :class:`~repro.elan4.hwbcast.HwBroadcastGroup` /
:class:`~repro.elan4.hwbarrier.HwBarrierGroup` pairs.

**Symmetric degradation.**  Algorithm choice must agree at every rank or
collectives deadlock (a rank running the NIC barrier waits forever on
ranks that chose software).  Health can change *between* two ranks
entering the same collective — a fault campaign killing a switch mid-run
— so each per-communicator shared state records one hw/software decision
per collective call index: the first rank to enter call ``seq`` evaluates
the gate (fabric up, topology healthy, no member NIC stalled, every
member still in the static cohort), and every other rank reuses that
verdict.  Call indices stay aligned because MPI requires collectives to
be invoked in the same order on every member.

Failures that can never heal — a member that joined dynamically, a
restarted rank with a fresh VPID, a TCP-only transport — latch
``static_failed`` and the communicator degrades to software permanently,
which is exactly the §4.1 story for dynamically-spawned processes.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.coll.registry import register
from repro.elan4.hwbarrier import HwBarrierError, HwBarrierGroup
from repro.elan4.hwbcast import HwBcastError, HwBroadcastGroup

__all__ = ["HwCollRegistry", "bcast_hw", "barrier_hw"]


def _to_bytes(data: Any) -> bytes:
    if isinstance(data, np.ndarray):
        return data.tobytes()
    if data is None:
        return b""
    return bytes(data)


class _Assembly:
    """Reassembly of one hardware broadcast round from QSLOT fragments."""

    __slots__ = ("total", "got", "buf")

    def __init__(self, total: int):
        self.total = total
        self.got = 0
        self.buf = bytearray(total)

    def add(self, offset: int, data: Optional[np.ndarray]) -> None:
        n = 0 if data is None else int(data.nbytes)
        if n:
            self.buf[offset : offset + n] = data.tobytes()  # type: ignore[union-attr]
        self.got += n

    @property
    def complete(self) -> bool:
        return self.got >= self.total


class _SharedCommState:
    """Cluster-side state shared by all member ranks of one communicator
    (keyed by context id + group), holding the hw groups, the per-call
    hw/software decisions, and per-member broadcast reassembly."""

    def __init__(self, registry: "HwCollRegistry", ctx_id: int, ranks: Tuple[int, ...]):
        self.registry = registry
        self.ctx_id = ctx_id
        self.ranks = ranks
        #: permanently software: dynamic member, restarted VPID, no Elan ctx
        self.static_failed = False
        self.bcast_group: Optional[HwBroadcastGroup] = None
        self.barrier_group: Optional[HwBarrierGroup] = None
        #: member index -> {bcast round seq -> assembly}
        self._pending: List[Dict[int, _Assembly]] = [dict() for _ in ranks]
        self._decisions: Dict[Tuple[int, str], bool] = {}
        self._reads: Dict[Tuple[int, str], int] = {}

    # -- membership --------------------------------------------------------
    def member_ctxs(self) -> Optional[List[Any]]:
        ctxs = [self.registry.ctx_of(r) for r in self.ranks]
        if any(c is None for c in ctxs):
            return None
        return ctxs

    # -- the symmetric per-call decision ----------------------------------
    def decide(self, seq: int, op: str) -> bool:
        """hw-or-software verdict for collective call ``seq`` — computed by
        the first member to arrive, reused (and reference-counted away) by
        the rest, so every rank takes the same path even if health changes
        while ranks are still entering the collective."""
        key = (seq, op)
        use = self._decisions.get(key)
        if use is None:
            use = self._path_clear(op)
            self._decisions[key] = use
            self._reads[key] = 0
        self._reads[key] += 1
        if self._reads[key] >= len(self.ranks):
            del self._decisions[key]
            del self._reads[key]
        return use

    def _path_clear(self, op: str) -> bool:
        reg = self.registry
        if not reg.hw_allowed():
            return False
        if self.static_failed:
            return False
        ft = reg.cluster.ft
        if ft is not None:
            # a revoked communicator, or one with a dead member, must not
            # arm NIC engines that wait on tokens from a corpse — stay on
            # the software path, whose per-message sends fail fast with
            # RankDeadError instead of hanging in the event engine
            st = ft._comm_states.get(self.ctx_id)
            if st is not None and st.revoked:
                return False
            if any(ft.membership.is_dead(r) for r in self.ranks):
                return False
        ctxs = self.member_ctxs()
        if ctxs is None:
            # a member rank has no registered Elan context: either it has
            # not finished wire-up yet (startup is staggered — soft, retry
            # next call) or it runs a TCP-only stack (stays software)
            return False
        capability = ctxs[0].nic.capability
        if not capability.cohort_sealed:
            return False  # world still assembling — soft
        if not all(capability.in_static_cohort(c.vpid) for c in ctxs):
            # dynamic joiner or restarted rank: no global address space,
            # permanently software (§4.1)
            self.static_failed = True
            return False
        fabric = ctxs[0].nic.fabric
        if fabric.down or fabric.topology.faulty:
            return False
        if any(c.nic.stalled for c in ctxs):
            return False
        try:
            self._ensure_groups(op, ctxs)
        except (HwBcastError, HwBarrierError):
            self.static_failed = True
            return False
        return True

    def _ensure_groups(self, op: str, ctxs: List[Any]) -> None:
        if op == "bcast" and self.bcast_group is None:
            # one queue per group (a context may sit in several groups),
            # drawn from the pool shared by every lease on these NICs
            qid = self.registry.cluster.alloc_hw_queue_id()
            group = HwBroadcastGroup(ctxs, queue_id=qid)
            group.install_receivers()
            self.bcast_group = group
        elif op == "barrier" and self.barrier_group is None:
            radix = self.registry.cluster.config.coll_hwbarrier_radix
            group = HwBarrierGroup(ctxs, radix=radix)
            group.install_receivers()
            self.barrier_group = group

    # -- hardware broadcast receive side ----------------------------------
    def drain_bcast(
        self, thread: Any, member: int, seq: int, guard: Any = None
    ) -> Generator:
        """Coroutine: poll this member's broadcast queue until round ``seq``
        is fully assembled; fragments of other rounds (consecutive
        broadcasts from different roots interleave in flight) are parked in
        their own assemblies.  With an FT ``guard`` the queue wait aborts
        (raises) on member death or revoke instead of sleeping forever on
        fragments the dead root will never inject."""
        assert self.bcast_group is not None
        ctx = self.bcast_group.members[member]
        queue = self.bcast_group.queue_of(ctx)
        pending = self._pending[member]
        while True:
            asm = pending.get(seq)
            if asm is not None and asm.complete:
                break
            msg = queue.poll()
            if msg is None:
                if guard is None:
                    yield from thread.block_on(queue.host_event)
                else:
                    yield from guard.block_on_word(thread, queue.host_event)
                continue
            meta = msg.meta
            rnd = meta.get("seq", 0)
            a = pending.get(rnd)
            if a is None:
                a = pending[rnd] = _Assembly(meta["total"])
            a.add(meta["offset"], msg.data)
        return bytes(pending.pop(seq).buf)


class HwCollRegistry:
    """Cluster-wide bridge between the MPI layer and the Elan collective
    engines (``cluster.coll_hw``)."""

    def __init__(self, cluster: Any):
        self.cluster = cluster
        #: master enable (tests flip this to force software paths)
        self.enabled = True
        self._rank_ctx: Dict[int, Any] = {}
        self._world_seen: Dict[int, bool] = {}
        self._shared: Dict[Tuple[int, Tuple[int, ...]], _SharedCommState] = {}
        #: collectives that chose a software fallback while a hw algorithm
        #: was selected (fault, dynamic member, disabled)
        self.hw_fallbacks = 0

    # -- wiring (called from MpiStack.wire_up) -----------------------------
    def register_rank(
        self, rank: int, ctx: Optional[Any], group: str, group_count: int
    ) -> None:
        """Record ``rank``'s rail-0 Elan context (None for transports with
        no Elan endpoint) and seal the static cohort once every world rank
        has synchronously arrived — later registrations are the dynamic
        joiners of §4.1."""
        if ctx is not None:
            self._rank_ctx[rank] = ctx
        if group == "world" and ctx is not None:
            capability = ctx.nic.capability
            if not capability.cohort_sealed:
                self._world_seen[rank] = True
                if len(self._world_seen) >= group_count:
                    capability.seal_static_cohort()

    def ctx_of(self, rank: int) -> Optional[Any]:
        return self._rank_ctx.get(rank)

    def hw_allowed(self) -> bool:
        if not self.enabled or not self.cluster.config.coll_hw_enabled:
            return False
        return os.environ.get("REPRO_COLL_HW", "1") != "0"

    def shared_for(self, comm: Any) -> _SharedCommState:
        key = (comm.ctx_id, tuple(comm.group))
        state = self._shared.get(key)
        if state is None:
            state = self._shared[key] = _SharedCommState(self, key[0], key[1])
        return state


# -- the hw algorithms -------------------------------------------------------
def _registry_of(comm: Any) -> HwCollRegistry:
    return comm.stack.process.job.cluster.coll_hw  # type: ignore[no-any-return]


def _ft_guard(comm: Any, state: _SharedCommState) -> Any:
    """The communicator's FT state (abortable waits), or None when the
    fault-tolerance subsystem is not enabled for this job."""
    ft = comm.stack.process.job.ft
    if ft is None:
        return None
    return ft.comm_state(state.ctx_id, state.ranks)


def bcast_hw(
    comm: Any,
    data: Any,
    root: int = 0,
    max_bytes: int = 1 << 22,
    nbytes: Optional[int] = None,
    seq: int = 0,
) -> Generator[Any, Any, bytes]:
    """Elan hardware broadcast: the root injects once per QSLOT fragment
    and the switches replicate to every member (the root's own queue
    included) — no software tree, no log2(n) serial sends.  The payload is
    self-describing (fragment meta carries offset/total), so non-root
    ranks need no prior size agreement."""
    state = _registry_of(comm).shared_for(comm)
    group = state.bcast_group
    if group is None:
        raise HwBcastError("hardware broadcast group was never built")
    member = comm.rank
    ctx = group.members[member]
    thread = comm._thread
    guard = _ft_guard(comm, state)
    if member == root:
        yield from group.bcast(thread, ctx, _to_bytes(data), seq=seq)
    payload = yield from state.drain_bcast(thread, member, seq, guard=guard)
    return payload  # type: ignore[no-any-return]


def barrier_hw(comm: Any) -> Generator[Any, Any, None]:
    """NIC-offloaded barrier (Yu et al.): chained count-N gather events up
    a radix-k tree, one hardware broadcast to release — the host sleeps
    from doorbell to release."""
    state = _registry_of(comm).shared_for(comm)
    group = state.barrier_group
    if group is None:
        raise HwBarrierError("hardware barrier group was never built")
    ctx = group.members[comm.rank]
    yield from group.barrier(comm._thread, ctx, guard=_ft_guard(comm, state))
    return None


register("bcast", "hw", bcast_hw, hw=True, fallback="binomial")
register("barrier", "hw-tree", barrier_hw, hw=True, fallback="dissemination")
