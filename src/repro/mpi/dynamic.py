"""MPI-2 dynamic process management (§4.1).

``comm_spawn`` is collective over the parents' world: rank 0 launches the
children through the RTE, the spawn descriptor is broadcast to the other
parents, and then *all* parents rendezvous with the children through the
seed registry — the "help of other components" the paper relies on for
connection establishment.  Children connect back with ``comm_get_parent``.

The returned :class:`InterComm` has distinct local and remote groups (MPI
intercommunicator semantics); message addressing uses remote-group ranks.
Its context id is derived from the spawn group's registry name, so both
sides compute it without agreement traffic.

What this demonstrates end-to-end is the paper's central dynamic-process
claim: the children claim fresh contexts/VPIDs from the system-wide
capability *while the job is running*, wire up, and exchange messages with
processes that started long before them — none of which the static
libelan process model allows.
"""

from __future__ import annotations

import json
import zlib
from typing import Generator, List, Optional, Sequence, TYPE_CHECKING

from repro.mpi.communicator import Communicator, MpiError
from repro.rte.spawn import spawn_procs

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import MpiApi

__all__ = ["InterComm", "comm_spawn", "comm_get_parent"]

TAG_SPAWN = 0x7F10


def _group_ctx(group_name: str) -> int:
    """Deterministic context id for a spawn group (both sides derive it)."""
    return (zlib.crc32(group_name.encode()) & 0x3FFF_FFFF) | 0x2000_0000


class InterComm:
    """An inter-communicator: local group ↔ remote group."""

    def __init__(
        self,
        stack,
        ctx_id: int,
        local_ranks: List[int],
        remote_ranks: List[int],
        my_global_rank: int,
    ):
        merged = sorted(set(local_ranks) | set(remote_ranks))
        self._comm = Communicator(stack, ctx_id, merged, my_global_rank)
        self.local_ranks = list(local_ranks)
        self.remote_ranks = list(remote_ranks)
        self.rank = self.local_ranks.index(my_global_rank)

    @property
    def local_size(self) -> int:
        return len(self.local_ranks)

    @property
    def remote_size(self) -> int:
        return len(self.remote_ranks)

    def send(self, data, dest: int, tag: int = 0) -> Generator:
        """Send to remote-group rank ``dest``."""
        merged = self._comm.comm_rank_of(self.remote_ranks[dest])
        yield from self._comm.send(data, merged, tag)

    def recv(self, source: int = -1, tag: int = -1, nbytes: int = 1 << 16) -> Generator:
        """Receive from remote-group rank ``source`` (or any)."""
        src = -1 if source == -1 else self._comm.comm_rank_of(self.remote_ranks[source])
        data, status = yield from self._comm.recv(source=src, tag=tag, nbytes=nbytes)
        if status.source != -1:
            global_src = self._comm.global_rank_of(status.source)
            status.source = self.remote_ranks.index(global_src)
        return data, status

    def disconnect(self) -> None:
        """MPI_Comm_disconnect: drop the handle (pending traffic must have
        been completed by the caller, per §4.1 drain semantics)."""
        self.remote_ranks = []


def comm_spawn(
    api: "MpiApi", apps: Sequence, node_ids: Optional[Sequence[int]] = None
) -> Generator:
    """Collective over the parents' world; returns the parents' side of the
    inter-communicator to the children."""
    comm = api.comm_world
    thread = api.thread
    process = api.process
    if comm.rank == 0:
        procs = spawn_procs(process.job, list(apps), node_ids=node_ids)
        desc = {
            "group": procs[0].group,
            "count": len(procs),
            "ranks": [p.rank for p in procs],
        }
        payload = yield from comm.bcast(json.dumps(desc).encode(), root=0)
    else:
        payload = yield from comm.bcast(None, root=0)
    desc = json.loads(bytes(payload).decode())
    # rendezvous with the children via the registry, then wire them up
    table = yield from process.oob_sync(thread, desc["group"], desc["count"])
    yield from api.stack.connect_peers(thread, table)
    ctx = _group_ctx(desc["group"])
    return InterComm(
        api.stack,
        ctx,
        local_ranks=list(comm.group),
        remote_ranks=sorted(desc["ranks"]),
        my_global_rank=process.rank,
    )


def comm_get_parent(api: "MpiApi") -> Generator:
    """For spawned processes: connect back to the parents' world.  Returns
    None when the process was not spawned (its group is "world")."""
    process = api.process
    thread = api.thread
    if process.group == "world":
        yield api.sim.timeout(0)
        return None
    parent_table = yield from process.oob_table(thread, "world")
    if not parent_table:
        raise MpiError("spawned process found no parent world in the registry")
    yield from api.stack.connect_peers(thread, parent_table)
    ctx = _group_ctx(process.group)
    return InterComm(
        api.stack,
        ctx,
        local_ranks=list(api.comm_world.group),
        remote_ranks=sorted(parent_table),
        my_global_rank=process.rank,
    )
