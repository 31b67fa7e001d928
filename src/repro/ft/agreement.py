"""Per-communicator fault-tolerance state: revoke, agree, shrink.

One :class:`FtCommState` exists (lazily) per communicator context of an
FT-enabled job, shared by all members — the simulation's stand-in for the
converged state a real ULFM implementation reaches by consensus.

* **revoke** — sticky; poisons the context at every live member with a
  staggered propagation delay, so pending and future operations raise
  :class:`CommRevokedError` instead of hanging.
* **agree** — a log-time fault-tolerant allreduce(AND) over the *live*
  members.  It works on revoked communicators (it bypasses the PML) and
  completes even when members die mid-call: each death re-checks open
  agreement slots.
* **shrink_decide** — the same slot machinery deciding, symmetrically at
  every member, the dead-rank set and the derived context id of the
  shrunken communicator.

Members contribute in MPI call order, so the per-rank call counter keys
every rank's n-th collective FT call to the same slot.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

from repro.ft.errors import CommRevokedError, FtError, RankDeadError
from repro.sim.events import AnyOf, SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.ft.detector import FtDaemon
    from repro.hw.cpu import HostThread, HostWordEvent

__all__ = ["FtCommState"]


class _AgreeSlot:
    """One in-flight agreement (or shrink decision) instance."""

    __slots__ = ("index", "purpose", "flags", "waiters", "result",
                 "finishing", "finished")

    def __init__(self, index: int, purpose: str):
        self.index = index
        self.purpose = purpose  # "agree" | "shrink"
        self.flags: Dict[int, bool] = {}
        self.waiters: List[SimEvent] = []
        self.result: Any = None
        self.finishing = False
        self.finished = False


class FtCommState:
    """Shared FT state of one communicator context."""

    def __init__(self, daemon: "FtDaemon", ctx_id: int, ranks: Tuple[int, ...]):
        self.daemon = daemon
        self.sim = daemon.sim
        self.ctx_id = ctx_id
        self.ranks = tuple(ranks)
        self.revoked: Optional[CommRevokedError] = None
        self._abort_error: Optional[BaseException] = None
        self._abort_waiters: List[SimEvent] = []
        self._agree_calls: Dict[int, int] = {}
        self._slots: Dict[int, _AgreeSlot] = {}

    # -- abort channel -------------------------------------------------
    def abort_error(self) -> Optional[BaseException]:
        """The error any blocked operation on this comm should raise now,
        or None if the comm is healthy."""
        if self.revoked is not None:
            return self.revoked
        if self._abort_error is not None:
            return self._abort_error
        dead = self.daemon.membership.first_dead(self.ranks)
        if dead is not None:
            return RankDeadError(dead, "communicator member death")
        return None

    def abort_event(self) -> SimEvent:
        """One-shot event completed the moment this comm becomes aborted
        (immediately, if it already is)."""
        ev = SimEvent(self.sim, name="ft:abort")
        err = self.abort_error()
        if err is not None:
            ev.succeed(err)
        else:
            self._abort_waiters.append(ev)
        return ev

    def fire_abort(self, error: BaseException) -> None:
        if self._abort_error is None:
            self._abort_error = error
        waiters, self._abort_waiters = self._abort_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(error)

    def block_on_word(
        self, thread: "HostThread", word: "HostWordEvent"
    ) -> Generator[Any, Any, None]:
        """Abortable replacement for ``thread.block_on(word)``: returns when
        the word is set, raises the abort error if the comm dies first.
        The NIC-offload collective drain loops use this so a member death
        turns a would-be hang into a clean :class:`RankDeadError`."""
        while True:
            err = self.abort_error()
            if err is not None:
                raise err
            if word.poll():
                word.clear()
                return
            race = AnyOf(self.sim, [word.wait_event(), self.abort_event()])
            yield from thread.wait_sim_event(race)

    # -- revoke --------------------------------------------------------
    def revoke(self, origin: int) -> CommRevokedError:
        """Revoke this communicator from global rank ``origin``; idempotent.
        Poisons the context at every live member (staggered per hop)."""
        if self.revoked is not None:
            return self.revoked
        err = CommRevokedError(self.ctx_id, origin)
        self.revoked = err
        self.daemon.cluster.tracer.event(
            "ft.comm_revoked", layer="ft", ctx_id=self.ctx_id, origin=origin
        )
        self.fire_abort(err)
        self._poison_member(origin, err)
        hop = 0
        for rank in sorted(self.ranks):
            if rank == origin or self.daemon.membership.is_dead(rank):
                continue
            hop += 1
            self.sim.schedule(
                self.daemon.config.revoke_hop_us * hop,
                self._poison_member,
                rank,
                err,
            )
        return err

    def _poison_member(self, rank: int, err: CommRevokedError) -> None:
        proc = self.daemon.job.processes.get(rank)
        if proc is None or proc.finished:
            return
        proc.stack.pml.poison_ctx(self.ctx_id, err)

    # -- agreement -----------------------------------------------------
    def _slot_for(self, rank: int, purpose: str) -> _AgreeSlot:
        index = self._agree_calls.get(rank, 0)
        self._agree_calls[rank] = index + 1
        slot = self._slots.get(index)
        if slot is None:
            slot = _AgreeSlot(index, purpose)
            self._slots[index] = slot
        elif slot.purpose != purpose:
            raise FtError(
                f"ctx={self.ctx_id:#x} FT call #{index}: rank {rank} called "
                f"{purpose!r} but other members called {slot.purpose!r}"
            )
        return slot

    def _live_ranks(self) -> List[int]:
        dead = self.daemon.membership
        return [r for r in self.ranks if not dead.is_dead(r)]

    def _check_slot(self, slot: _AgreeSlot) -> None:
        if slot.finished or slot.finishing:
            return
        live = self._live_ranks()
        if live and all(r in slot.flags for r in live):
            slot.finishing = True
            hops = math.ceil(math.log2(max(2, len(live))))
            self.sim.schedule(
                hops * self.daemon.config.agree_hop_us, self._finish_slot, slot.index
            )

    def _finish_slot(self, index: int) -> None:
        slot = self._slots[index]
        if slot.finished:
            return
        membership = self.daemon.membership
        if slot.purpose == "agree":
            slot.result = all(
                flag
                for rank, flag in sorted(slot.flags.items())
                if not membership.is_dead(rank)
            )
            self.daemon.cluster.tracer.count("ft.agree_done")
        else:
            dead = tuple(sorted(r for r in self.ranks if membership.is_dead(r)))
            from repro.mpi.communicator import _derive_ctx

            new_ctx = _derive_ctx(self.ctx_id, 9176 + slot.index, salt=len(dead))
            slot.result = (new_ctx, dead)
            self.daemon.cluster.tracer.count("ft.shrink_done")
        slot.finished = True
        waiters, slot.waiters = slot.waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(slot.result)

    def recheck_agreements(self) -> None:
        """A member died: open slots whose remaining live members have all
        contributed can now complete (the FT half of 'agree tolerates
        failures mid-call')."""
        for index in sorted(self._slots):
            self._check_slot(self._slots[index])

    def _run_slot(
        self, thread: "HostThread", rank: int, purpose: str, flag: bool
    ) -> Generator[Any, Any, Any]:
        yield from thread.compute(self.daemon.config.agree_local_us)
        slot = self._slot_for(rank, purpose)
        slot.flags[rank] = bool(flag)
        self._check_slot(slot)
        if not slot.finished:
            ev = SimEvent(self.sim, name=f"ft:{purpose}")
            slot.waiters.append(ev)
            yield from thread.wait_sim_event(ev)
        return slot.result

    def agree(
        self, thread: "HostThread", rank: int, flag: bool = True
    ) -> Generator[Any, Any, bool]:
        """Fault-tolerant agreement: returns the AND of every *live*
        contributor's flag, identically at every member.  Usable on a
        revoked communicator (bypasses the PML)."""
        return (yield from self._run_slot(thread, rank, "agree", flag))

    def shrink_decide(
        self, thread: "HostThread", rank: int
    ) -> Generator[Any, Any, Tuple[int, Tuple[int, ...]]]:
        """Symmetric shrink decision: ``(new_ctx_id, dead_ranks)``."""
        return (yield from self._run_slot(thread, rank, "shrink", True))
