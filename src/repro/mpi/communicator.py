"""Communicators: groups, contexts, point-to-point, collective entry points.

A communicator is a (context id, ordered group of global ranks) pair; the
context id rides every fragment header so matching never crosses
communicators.  Communicator-local ranks are indices into the group — the
global job rank appears only at the PML boundary.

Context ids for derived communicators are computed deterministically from
the parent's context and a per-parent creation counter.  MPI requires all
members to invoke communicator-creating operations in the same order on the
parent, so every member derives the same id without a network exchange.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Union, TYPE_CHECKING

import numpy as np

from repro.core.request import ANY_SOURCE, ANY_TAG, RecvRequest, SendRequest, Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.memory import Buffer
    from repro.mpi.world import MpiStack

__all__ = ["Communicator", "MpiError", "WORLD_CTX"]

WORLD_CTX = 0


class MpiError(Exception):
    """Invalid rank, size mismatch, or misuse of the MPI API."""


def _derive_ctx(parent_ctx: int, counter: int, salt: int = 0) -> int:
    """Deterministic child context id (same inputs on every member)."""
    return ((parent_ctx * 1_000_003 + counter * 8_191 + salt * 131 + 17)
            & 0x7FFF_FFFF) | 0x4000_0000


class Communicator:
    """One MPI communicator of one process."""

    def __init__(self, stack: "MpiStack", ctx_id: int, group: List[int], rank: int):
        self.stack = stack
        self.ctx_id = ctx_id
        self.group = list(group)  # global job ranks, in communicator order
        self._global_rank = rank
        if rank not in self.group:
            raise MpiError(f"rank {rank} not in group {group}")
        self.rank = self.group.index(rank)  # communicator-local rank
        self._ctx_counter = 0
        #: per-communicator collective call index (identical at every member
        #: because MPI mandates same-order collective invocation); the coll
        #: framework uses it for symmetric algorithm agreement
        self._coll_seq = 0

    # -- structure -------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.group)

    def global_rank_of(self, comm_rank: int) -> int:
        if not 0 <= comm_rank < self.size:
            raise MpiError(f"rank {comm_rank} outside communicator of size {self.size}")
        return self.group[comm_rank]

    def comm_rank_of(self, global_rank: int) -> int:
        try:
            return self.group.index(global_rank)
        except ValueError:
            raise MpiError(f"global rank {global_rank} not in this communicator")

    @property
    def _thread(self):
        return self.stack.process.main_thread

    @property
    def _pml(self):
        return self.stack.pml

    # -- buffer plumbing ----------------------------------------------------------
    # A caller's Buffer is never freed here; a buffer this layer staged a
    # message in is freed by the call that staged it (DESIGN.md, "Buffer
    # ownership").
    def _isend(
        self, data, dest: int, tag: int, nbytes: Optional[int], sync: bool
    ) -> Generator:
        from repro.hw.memory import Buffer

        staged = not isinstance(data, Buffer)
        if staged:
            buf, size = self.stack.user_api().buffer_from(data)
        else:
            buf, size = data, data.nbytes
        if nbytes is not None:
            size = nbytes
        req = yield from self._pml.isend(
            self._thread, buf, size, self.global_rank_of(dest), tag, self.ctx_id,
            sync=sync,
        )
        if staged:
            space = self.stack.process.space
            if req.completed:
                space.free(buf)
            else:
                req.on_complete = lambda: space.free(buf)
        return req

    # -- point-to-point ---------------------------------------------------------------
    def isend(self, data, dest: int, tag: int = 0, nbytes: Optional[int] = None) -> Generator:
        """Coroutine: non-blocking send; returns the request.  ``data`` may
        be a Buffer (zero-copy into the stack) or bytes/ndarray (staged)."""
        return (yield from self._isend(data, dest, tag, nbytes, sync=False))

    def send(self, data, dest: int, tag: int = 0, nbytes: Optional[int] = None) -> Generator:
        req = yield from self.isend(data, dest, tag, nbytes)
        yield from self._pml.wait(self._thread, req)

    def issend(self, data, dest: int, tag: int = 0, nbytes: Optional[int] = None) -> Generator:
        """Coroutine: non-blocking *synchronous* send (MPI_Issend) — the
        request completes only once the matching receive was found, which
        forces the rendezvous handshake at every size."""
        return (yield from self._isend(data, dest, tag, nbytes, sync=True))

    def ssend(self, data, dest: int, tag: int = 0, nbytes: Optional[int] = None) -> Generator:
        """Coroutine: blocking synchronous send (MPI_Ssend)."""
        req = yield from self.issend(data, dest, tag, nbytes)
        yield from self._pml.wait(self._thread, req)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Coroutine: block until a matching message is enqueued; returns a
        Status describing it (the message stays receivable)."""
        src = ANY_SOURCE if source == ANY_SOURCE else self.global_rank_of(source)
        hdr = yield from self._pml.probe(self._thread, src, tag, self.ctx_id)
        return self._status_from_header(hdr)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Coroutine: non-blocking probe; returns a Status or None."""
        src = ANY_SOURCE if source == ANY_SOURCE else self.global_rank_of(source)
        hdr = yield from self._pml.iprobe(self._thread, src, tag, self.ctx_id)
        return None if hdr is None else self._status_from_header(hdr)

    def _status_from_header(self, hdr) -> Status:
        return Status(
            source=self.comm_rank_of(hdr.src_rank),
            tag=hdr.tag,
            nbytes=hdr.msg_len,
        )

    def wait(self, req: Union[SendRequest, RecvRequest]) -> Generator:
        """Coroutine: MPI_Wait — block until ``req`` completes."""
        yield from self._pml.wait(self._thread, req)

    def waitany(self, reqs) -> Generator:
        """Coroutine: MPI_Waitany — index of the first completed request."""
        return (yield from self._pml.wait_any(self._thread, reqs))

    def irecv(
        self,
        nbytes: int,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        buffer: Optional["Buffer"] = None,
    ) -> Generator:
        """Coroutine: post a receive of up to ``nbytes``; returns the request.

        The bytes land in ``req.buffer``.  Without a ``buffer`` the call
        stages one, which belongs to the caller once ``wait`` returns: read
        it as ``req.buffer`` and free it with the address space
        (``recv`` and ``sendrecv`` free the one they stage themselves)."""
        buf = buffer
        if buf is None:
            buf = self.stack.process.space.alloc(max(nbytes, 1), label="recv")
        src_global = ANY_SOURCE if source == ANY_SOURCE else self.global_rank_of(source)
        return (yield from self._pml.irecv(
            self._thread, buf, nbytes, src_global, tag, self.ctx_id
        ))

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        nbytes: int = 1 << 16,
        buffer: Optional["Buffer"] = None,
    ) -> Generator:
        """Coroutine: blocking receive.  Returns ``(data, status)`` where
        ``data`` is a numpy byte array of the received length and
        ``status.source`` is a communicator-local rank."""
        req = yield from self.irecv(nbytes, source, tag, buffer)
        yield from self._pml.wait(self._thread, req)
        return self._finish_recv(req, staged=buffer is None)

    def _finish_recv(self, req: RecvRequest, staged: bool):
        status = Status(
            source=self.comm_rank_of(req.status.source)
            if req.status.source != ANY_SOURCE
            else ANY_SOURCE,
            tag=req.status.tag,
            nbytes=req.status.nbytes,
        )
        buf = req.buffer
        data = buf.read(0, status.nbytes) if status.nbytes else np.empty(0, np.uint8)
        if staged:
            self.stack.process.space.free(buf)
        return data, status

    def sendrecv(
        self,
        senddata,
        dest: int,
        recvnbytes: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        recvbuffer: Optional["Buffer"] = None,
    ) -> Generator:
        """Coroutine: simultaneous send+receive (deadlock-free)."""
        rreq = yield from self.irecv(recvnbytes, source, recvtag, recvbuffer)
        sreq = yield from self.isend(senddata, dest, sendtag)
        yield from self._pml.wait(self._thread, sreq)
        yield from self._pml.wait(self._thread, rreq)
        return self._finish_recv(rreq, staged=recvbuffer is None)

    # -- collectives ------------------------------------------------------------------
    # barrier/bcast/allreduce/alltoall/reduce_scatter route through the
    # repro.coll framework (algorithm registry + tuned decision table +
    # NIC-offload degradation); the remaining ops keep the naive reference
    # component of repro.mpi.collective (§2.1's "separate component").
    def barrier(self) -> Generator:
        from repro.coll import framework  # repro-lint: allow[layering] -- MPI fronts the separate coll component (§2.1); lazy to break the cycle

        yield from framework.barrier(self)

    def bcast(
        self,
        data,
        root: int = 0,
        max_bytes: int = 1 << 22,
        nbytes: Optional[int] = None,
    ) -> Generator:
        """Coroutine: broadcast.  ``nbytes`` is an optional message-size
        hint (MPI's count argument, passed identically at every rank) that
        lets the decision table pick a size-appropriate algorithm; without
        it the size-independent default applies.  Correctness never depends
        on the hint — every algorithm self-describes its payload."""
        from repro.coll import framework  # repro-lint: allow[layering] -- MPI fronts the separate coll component (§2.1); lazy to break the cycle

        return (
            yield from framework.bcast(
                self, data, root, max_bytes=max_bytes, nbytes=nbytes
            )
        )

    def reduce(self, array: np.ndarray, op: str = "sum", root: int = 0) -> Generator:
        from repro.mpi import collective

        return (yield from collective.reduce(self, array, op, root))

    def allreduce(self, array: np.ndarray, op: str = "sum") -> Generator:
        from repro.coll import framework  # repro-lint: allow[layering] -- MPI fronts the separate coll component (§2.1); lazy to break the cycle

        return (yield from framework.allreduce(self, array, op))

    def gather(self, data, root: int = 0, max_bytes: int = 1 << 22) -> Generator:
        from repro.mpi import collective

        return (yield from collective.gather(self, data, root, max_bytes))

    def scatter(self, chunks, root: int = 0, max_bytes: int = 1 << 22) -> Generator:
        from repro.mpi import collective

        return (yield from collective.scatter(self, chunks, root, max_bytes))

    def allgather(self, data, max_bytes: int = 1 << 22) -> Generator:
        from repro.mpi import collective

        return (yield from collective.allgather(self, data, max_bytes))

    def alltoall(
        self, chunks, max_bytes: int = 1 << 22, nbytes: Optional[int] = None
    ) -> Generator:
        from repro.coll import framework  # repro-lint: allow[layering] -- MPI fronts the separate coll component (§2.1); lazy to break the cycle

        return (yield from framework.alltoall(
            self, chunks, max_bytes=max_bytes, nbytes=nbytes
        ))

    def scan(self, array: np.ndarray, op: str = "sum") -> Generator:
        from repro.mpi import collective

        return (yield from collective.scan(self, array, op))

    def exscan(self, array: np.ndarray, op: str = "sum") -> Generator:
        from repro.mpi import collective

        return (yield from collective.exscan(self, array, op))

    def reduce_scatter(self, array: np.ndarray, op: str = "sum") -> Generator:
        from repro.coll import framework  # repro-lint: allow[layering] -- MPI fronts the separate coll component (§2.1); lazy to break the cycle

        return (yield from framework.reduce_scatter(self, array, op))

    # -- fault tolerance (ULFM-style, §3's process fault tolerance) -------------------
    def _ft_daemon(self):
        ft = self.stack.process.job.ft
        if ft is None:
            raise MpiError(
                "fault tolerance is not enabled for this job — call "
                "repro.ft.enable(job) before launching ranks"
            )
        return ft

    def _ft_state(self):
        return self._ft_daemon().comm_state(self.ctx_id, tuple(self.group))

    def revoke(self) -> None:
        """MPI_Comm_revoke: permanently invalidate this communicator at
        every member.  Pending and future point-to-point operations raise
        :class:`~repro.ft.CommRevokedError` (after a per-hop propagation
        delay) instead of waiting on peers that will never answer.  Local,
        non-collective, idempotent."""
        self._ft_state().revoke(self._global_rank)

    def agree(self, flag: bool = True) -> Generator:
        """Coroutine — MPIX_Comm_agree: fault-tolerant agreement on the
        logical AND of every live member's ``flag``.  Completes in
        O(log n) even on a revoked communicator or with members dying
        mid-call; every survivor returns the same value."""
        state = self._ft_state()
        return (yield from state.agree(self._thread, self._global_rank, flag))

    def shrink(self) -> Generator:
        """Coroutine — MPIX_Comm_shrink: build a working communicator from
        the surviving members.  Every survivor derives the same context id
        and the same (death-order-independent) group, so the result is
        immediately usable for point-to-point and collectives — including
        re-registering NIC-offload cohorts where §4.1 still permits them."""
        ft = self._ft_daemon()
        state = ft.comm_state(self.ctx_id, tuple(self.group))
        new_ctx, dead = yield from state.shrink_decide(
            self._thread, self._global_rank
        )
        group = [r for r in self.group if r not in dead]
        # register the shrunken context with the daemon right away so later
        # deaths abort its operations too
        ft.comm_state(new_ctx, tuple(group))
        return Communicator(self.stack, new_ctx, group, self._global_rank)

    # -- derived communicators --------------------------------------------------------
    def dup(self) -> "Communicator":
        """MPI_Comm_dup: same group, fresh context (local-only derivation)."""
        self._ctx_counter += 1
        ctx = _derive_ctx(self.ctx_id, self._ctx_counter)
        return Communicator(self.stack, ctx, self.group, self._global_rank)

    def split(self, color: int, key: int = 0) -> Generator:
        """MPI_Comm_split (collective: exchanges colors/keys)."""
        from repro.mpi import collective

        self._ctx_counter += 1
        counter = self._ctx_counter
        entries = yield from collective.allgather(
            self, np.array([color, key, self._global_rank], dtype=np.int64).tobytes()
        )
        triples = [np.frombuffer(e, dtype=np.int64) for e in entries]
        mine = [t for t in triples if int(t[0]) == color]
        mine.sort(key=lambda t: (int(t[1]), int(t[2])))
        new_group = [int(t[2]) for t in mine]
        ctx = _derive_ctx(self.ctx_id, counter, salt=color)
        return Communicator(self.stack, ctx, new_group, self._global_rank)
