"""The per-process MPI stack: transports + PML + the user-facing API."""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Union

import numpy as np

from repro.core.pml.progress import start_progress_threads
from repro.core.pml.teg import Pml
from repro.core.ptl.base import PtlError, PtlRegistry
from repro.core.ptl.elan4.module import Elan4PtlComponent, Elan4PtlOptions
from repro.core.ptl.tcp import TcpPtlComponent
from repro.mpi.communicator import Communicator, MpiError, WORLD_CTX, _derive_ctx

__all__ = ["MpiStack", "MpiApi", "make_mpi_stack_factory", "mpi_stack_factory"]


class MpiStack:
    """Everything one MPI process runs on: PTLs, PML, communicators."""

    def __init__(
        self,
        process,
        transports: Sequence[str] = ("elan4",),
        datatype_mode: str = "memcpy",
        progress_mode: str = "polling",
        elan4_options: Optional[Elan4PtlOptions] = None,
    ):
        self.process = process
        self.config = process.job.cluster.config
        self.transports = tuple(transports)
        self.pml = Pml(
            process,
            self.config,
            datatype_mode=datatype_mode,
            progress_mode=progress_mode,
        )
        self.registry = PtlRegistry(process, self.config)
        if elan4_options is None:
            # Threaded progress blocks on queue event words, so local RDMA
            # completions must arrive *as queue messages* — the §6.2 queue
            # strategies.  Per-descriptor host words (the polling default)
            # are invisible to a blocked thread: the receiver's rendezvous
            # completion handler would never run, its watchdog would re-pull
            # a buffer the sender already unmapped on the chained FIN_ACK,
            # and the retried read would MmuTrap.  Pick the matching
            # strategy instead of the unusable default.
            completion_queue = {
                "one-thread": "one-queue",
                "two-thread": "two-queue",
            }.get(progress_mode, "none")
            elan4_options = Elan4PtlOptions(completion_queue=completion_queue)
        self.elan4_options = elan4_options
        self.world: Optional[Communicator] = None
        self._api: Optional[MpiApi] = None

    # -- the RTE stack contract -------------------------------------------------
    def init_local(self, thread) -> Generator:
        """Open + init each requested transport; publish contact info."""
        info: Dict[str, Any] = {}
        for name in self.transports:
            if name == "elan4" or name.startswith("elan4:"):
                rail = int(name.split(":", 1)[1]) if ":" in name else 0
                component = Elan4PtlComponent(
                    self.process, self.config, self.elan4_options, rail=rail
                )
            elif name == "ib" or name.startswith("ib:"):
                from repro.core.ptl.ib.module import IbPtlComponent

                ib_rail = int(name.split(":", 1)[1]) if ":" in name else 0
                component = IbPtlComponent(self.process, self.config, rail=ib_rail)
            elif name == "tcp":
                component = TcpPtlComponent(self.process, self.config)
            else:
                raise MpiError(f"unknown transport {name!r}")
            modules = yield from self.registry.load(thread, component)
            for m in modules:
                self.pml.add_module(m)
                info.update(m.local_info())
        # hand this rank's rail-0 Elan context to the NIC-collective
        # registry now, before the OOB sync barrier: once every world rank
        # has synchronously arrived the static cohort seals, so the first
        # collective any rank runs already sees a sealed cohort.  Later
        # (re)registrations are the dynamic joiners that §4.1 excludes
        # from hardware collectives.
        ctx = None
        for m in self.pml.modules:
            if m.name == "elan4":
                ctx = m.ctx
                break
        self.process.job.cluster.coll_hw.register_rank(
            self.process.rank, ctx, self.process.group, self.process.group_count
        )
        return info

    def wire_up(self, thread, table: Dict[int, Dict]) -> Generator:
        """Connect every module to every peer it can reach; build
        MPI_COMM_WORLD; start progress threads if so configured."""
        yield from self.connect_peers(thread, table)
        ranks = sorted(table)
        self.world = Communicator(
            self, ctx_id=WORLD_CTX, group=ranks, rank=self.process.rank
        )
        if self.pml.progress_mode in ("one-thread", "two-thread"):
            start_progress_threads(self.pml)

    def connect_peers(
        self, thread, table: Dict[int, Dict], skip: Optional[int] = None
    ) -> Generator:
        """Connect every module to every rank of a registry ``table`` but
        ``skip``, rank by rank, in module order."""
        for rank in sorted(table):
            if rank == skip:
                continue
            for m in self.pml.modules:
                try:
                    yield from m.add_peer(thread, rank, table[rank]["info"])
                except PtlError:
                    # peer does not expose this transport; another module
                    # (or none) will reach it — multi-network tolerance
                    continue

    def finalize(self, thread) -> Generator:
        yield from self.pml.finalize(thread)
        yield from self.registry.finalize_all(thread)

    def user_api(self) -> "MpiApi":
        if self._api is None:
            self._api = MpiApi(self)
        return self._api


class MpiApi:
    """What an application coroutine receives — the MPI handle."""

    def __init__(self, stack: MpiStack):
        self.stack = stack
        self.process = stack.process
        self.comm_world = stack.world
        self.sim = stack.process.node.sim
        self.config = stack.config

    # -- identity -------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.process.rank

    @property
    def size(self) -> int:
        return self.comm_world.size

    @property
    def thread(self):
        """The calling process's main host thread."""
        return self.process.main_thread

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def restart_image(self):
        """The checkpoint image this process was restarted from, or None
        on a first launch (see :mod:`repro.rte.checkpoint`)."""
        return self.process.restart_image

    # -- memory ------------------------------------------------------------------
    def alloc(self, nbytes: int, label: str = "user"):
        """Allocate message memory in this process's address space."""
        return self.process.space.alloc(nbytes, label=label)

    def buffer_from(self, data: Union[bytes, np.ndarray]):
        """Materialise ``data`` into a fresh buffer (convenience path)."""
        arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
        buf = self.alloc(max(arr.nbytes, 1))
        if arr.nbytes:
            buf.write(arr)
        return buf, arr.nbytes

    # -- request helpers ------------------------------------------------------------
    def wait(self, req) -> Generator:
        return (yield from self.stack.pml.wait(self.thread, req))

    def waitall(self, reqs: List) -> Generator:
        return (yield from self.stack.pml.wait_all(self.thread, reqs))

    def test(self, req) -> bool:
        return req.test()

    def progress(self) -> Generator:
        """One explicit progress pass (non-blocking applications)."""
        return (yield from self.stack.pml.progress_once(self.thread))

    # -- fault tolerance / restart (§3, §4.1) -----------------------------------------
    def refresh_peer(self, rank: int) -> Generator:
        """Re-resolve a restarted peer: fetch its current contact info from
        the registry, rewire every PTL to the new endpoint (fresh VPID),
        and reset per-peer sequence state.  Returns the peer's registry
        epoch (0 = original incarnation)."""
        info, epoch = yield from self.process.oob_lookup(self.thread, rank)
        if info is None:
            raise MpiError(f"rank {rank} is not registered (gone?)")
        for m in self.stack.pml.modules:
            try:
                m.remove_peer(rank)
                yield from m.add_peer(self.thread, rank, info)
            except PtlError:
                continue
        self.stack.pml.reset_peer(rank)
        return epoch

    def rejoin_world(self, group: str = "world") -> Generator:
        """For a restarted rank: wire up to the surviving members of the
        original world and rebuild ``comm_world`` with the full group."""
        table = yield from self.process.oob_table(self.thread, group)
        yield from self.stack.connect_peers(self.thread, table, skip=self.rank)
        ranks = sorted(set(table) | {self.rank})
        self.stack.world = Communicator(
            self.stack, WORLD_CTX, ranks, self.process.rank
        )
        self.comm_world = self.stack.world
        return self.comm_world

    # -- self-healing helpers (repro.ft) ----------------------------------------------
    @property
    def ft(self):
        """The job's fault-tolerance daemon, or None when FT is disabled."""
        return self.process.job.ft

    def _ft_required(self):
        ft = self.ft
        if ft is None:
            raise MpiError(
                "fault tolerance is not enabled for this job — call "
                "repro.ft.enable(job) before launching ranks"
            )
        return ft

    def ft_checkpoint(self, app_state: Dict[str, Any]) -> None:
        """Save this rank's application state with the recovery driver; a
        later respawn of this rank receives it as ``api.restart_image``."""
        ft = self._ft_required()
        driver = ft.driver
        if driver is None:
            raise MpiError(
                "no recovery driver installed — construct "
                "repro.ft.RecoveryDriver(job, app_factory) before launch"
            )
        driver.save_image(self.rank, app_state)

    def ft_wait_recovered(self, rank: int) -> Generator:
        """Coroutine: block until dead ``rank`` has been respawned and has
        re-attached under its old rank (no-op if it is not dead)."""
        ft = self._ft_required()
        while ft.membership.is_dead(rank):
            ev = ft.membership.change_event()
            yield from self.thread.wait_sim_event(ev)

    def ft_rebuild_world(self) -> Generator:
        """Coroutine: after every dead rank recovered, rewire to the new
        incarnations and derive a fresh full-group world communicator —
        identically at every member, with no exchange (the membership epoch
        is converged state, like a context counter).  Survivors call this
        after :meth:`ft_wait_recovered`; the restarted rank after
        :meth:`rejoin_world`."""
        ft = self._ft_required()
        for rank in ft.membership.recovered_ranks():
            if rank != self.rank:
                yield from self.refresh_peer(rank)
        group = sorted(set(self.comm_world.group) | {self.rank})
        new_ctx = _derive_ctx(WORLD_CTX, 524287 + ft.membership.epoch, salt=len(group))
        ft.comm_state(new_ctx, tuple(group))
        comm = Communicator(self.stack, new_ctx, group, self.process.rank)
        return comm

    # -- dynamic process management (MPI-2, §4.1) ------------------------------------
    def spawn(self, apps: Sequence, node_ids: Optional[Sequence[int]] = None) -> Generator:
        """MPI_Comm_spawn: launch new processes and return an
        inter-communicator reaching them (see :mod:`repro.mpi.dynamic`)."""
        from repro.mpi.dynamic import comm_spawn

        return (yield from comm_spawn(self, apps, node_ids=node_ids))

    def get_parent(self) -> Generator:
        """MPI_Comm_get_parent for spawned processes (None at world ranks)."""
        from repro.mpi.dynamic import comm_get_parent

        return (yield from comm_get_parent(self))


def make_mpi_stack_factory(
    datatype_mode: str = "memcpy",
    progress_mode: str = "polling",
    elan4_options: Optional[Elan4PtlOptions] = None,
):
    """Build a stack factory with non-default modes (benchmark ablations)."""

    def factory(process, transports):
        return MpiStack(
            process,
            transports,
            datatype_mode=datatype_mode,
            progress_mode=progress_mode,
            elan4_options=elan4_options,
        )

    return factory


#: the default stack: polling progress, plain-memcpy datatype path, RDMA
#: read with chained FIN_ACK — the paper's "best options" (§6.5)
mpi_stack_factory = make_mpi_stack_factory()
