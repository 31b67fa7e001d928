"""Job launch and the seed daemon.

A :class:`RteJob` owns the IP network, a seed daemon (registry + group
synchronisation) on node 0, and the job's processes.  Each
:class:`RteProcess` runs the canonical startup sequence described in the
package docstring on its own host thread.

The transport stack is pluggable through ``stack_factory(process,
transports)``, which must return an object with four coroutine methods::

    init_local(thread) -> info-dict      # claim contexts, open endpoints
    wire_up(thread, table)               # connect to peers from the table
    finalize(thread)                     # drain + release (§4.1 semantics)

and ``user_api() -> object`` handed to the application generator.  The
default factory builds the full Open MPI stack
(:func:`repro.mpi.world.mpi_stack_factory`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.rte.oob import OobChannel, OobError, OobServer, encode
from repro.sim.events import SimEvent
from repro.tcpip.socket import TcpSocket
from repro.tcpip.stack import IpNetwork

__all__ = ["ProcessKilled", "RteJob", "RteProcess", "SeedDaemon", "launch_job"]

SEED_PORT = 5555


class ProcessKilled(Exception):
    """Cause delivered to a killed process's threads (the SIGKILL analog):
    recorded as the process's failure but never re-raised by the driver."""


class SeedDaemon:
    """The registry at (the job's first node, ``job.seed_port``):
    register / sync / lookup / deregister, one handler thread per OOB
    connection."""

    def __init__(self, job: "RteJob"):
        self.job = job
        #: rank -> {"info": ..., "group": ..., "epoch": int}
        self.registry: Dict[int, Dict[str, Any]] = {}
        #: rank -> registration count - 1; survives deregistration so peers
        #: can detect that a rank was restarted (stale-VPID detection)
        self._epochs: Dict[int, int] = {}
        self._group_members: Dict[str, set] = {}
        #: group -> its encoded ``{"table": ...}`` reply; every rank of a
        #: launch gets the same bytes, so they are encoded once and dropped
        #: on the next register or deregister
        self._table_replies: Dict[str, bytes] = {}
        self._sync_waiters: Dict[str, List[tuple]] = {}
        self.server = OobServer(
            job.net, job.cluster.nodes[0], job.seed_port, self._handle, name="seed"
        )

    # -- request handling ------------------------------------------------
    def _handle(self, thread, channel: OobChannel):
        while True:
            msg = yield from channel.recv_msg(thread)
            if msg is None:
                return
            op = msg.get("op")
            if op == "register":
                reply = self._register(msg)
            elif op == "sync":
                ev = self._sync_event(msg)
                yield from thread.wait_sim_event(ev)
                reply = self._table_reply(msg["group"])
            elif op == "lookup":
                entry = self.registry.get(msg["rank"])
                reply = {"info": None if entry is None else entry["info"],
                         "epoch": None if entry is None else entry["epoch"]}
            elif op == "deregister":
                reply = self._deregister(msg)
            elif op == "table":
                reply = self._table_reply(msg["group"])
            else:
                reply = {"error": f"unknown op {op!r}"}
            if not isinstance(reply, bytes):
                reply = encode(reply)
            yield from channel.send_encoded(thread, reply)

    def _register(self, msg) -> Dict[str, Any]:
        rank = msg["rank"]
        group = msg.get("group", "world")
        epoch = self._epochs.get(rank, -1) + 1
        self._epochs[rank] = epoch
        self._table_replies.clear()
        self.registry[rank] = {"info": msg["info"], "group": group, "epoch": epoch}
        self._group_members.setdefault(group, set()).add(rank)
        self._check_syncs(group)
        return {"ok": True, "epoch": epoch}

    def _deregister(self, msg) -> Dict[str, Any]:
        rank = msg["rank"]
        entry = self.registry.pop(rank, None)
        if entry is None:
            return {"ok": False}
        self._table_replies.clear()
        self._group_members.get(entry["group"], set()).discard(rank)
        return {"ok": True}

    def _sync_event(self, msg) -> SimEvent:
        group, count = msg["group"], msg["count"]
        ev = SimEvent(self.job.cluster.sim, name=f"sync:{group}")
        if len(self._group_members.get(group, ())) >= count:
            ev.succeed(None)
        else:
            self._sync_waiters.setdefault(group, []).append((count, ev))
        return ev

    def _check_syncs(self, group: str) -> None:
        waiters = self._sync_waiters.get(group, [])
        present = len(self._group_members.get(group, ()))
        still = []
        for count, ev in waiters:
            if present >= count:
                ev.succeed(None)
            else:
                still.append((count, ev))
        self._sync_waiters[group] = still

    def _table_reply(self, group: str) -> bytes:
        body = self._table_replies.get(group)
        if body is None:
            body = self._table_replies[group] = encode({"table": self.group_table(group)})
        return body

    def group_table(self, group: str) -> Dict[str, Any]:
        return {
            str(rank): {"info": e["info"], "epoch": e["epoch"]}
            for rank, e in self.registry.items()
            if e["group"] == group
        }


class RteProcess:
    """One process of the parallel job."""

    def __init__(
        self,
        job: "RteJob",
        rank: int,
        node,
        app: Callable,
        group: str,
        group_count: int,
        stack_factory: Callable,
        transports: tuple,
    ):
        self.job = job
        self.rank = rank
        self.node = node
        self.app = app
        self.group = group
        self.group_count = group_count
        self.transports = transports
        self.space = node.new_address_space(f"rank{rank}")
        self.stack = stack_factory(self, transports)
        self.oob: Optional[OobChannel] = None
        self.result: Any = None
        self.failure: Optional[BaseException] = None
        self.finished = False
        self.epoch = -1
        #: set by :meth:`kill` — an uncooperative death (no drain, no
        #: deregister); the FT layer distinguishes this from a crash
        self.killed = False
        #: helper threads tied to this process's lifetime (FT heartbeat);
        #: killed together with the main thread
        self.aux_threads: List[Any] = []
        #: the checkpoint image a restarted rank resumes from (set by
        #: :func:`repro.rte.checkpoint.restart_rank`); None on a first launch
        self.restart_image: Optional[Any] = None
        self.main_thread = node.spawn_thread(self._main, name=f"rank{rank}")

    # -- lifecycle ---------------------------------------------------------
    def _main(self, thread):
        try:
            yield from self._startup(thread)
            api = self.stack.user_api()
            self.result = yield from self.app(api)
            yield from self._shutdown(thread)
        except BaseException as e:  # noqa: BLE001 - recorded for the driver
            self.failure = e
            raise
        finally:
            self.finished = True

    def _startup(self, thread):
        info = yield from self.stack.init_local(thread)
        sock = yield from TcpSocket.connect(
            self.job.net, thread, self.node, self.job.seed_node_id, self.job.seed_port
        )
        self.oob = OobChannel(sock)
        reply = yield from self.oob.rpc(
            thread, {"op": "register", "rank": self.rank, "group": self.group, "info": info}
        )
        self.epoch = reply["epoch"]
        reply = yield from self.oob.rpc(
            thread, {"op": "sync", "group": self.group, "count": self.group_count}
        )
        table = {int(r): e for r, e in reply["table"].items()}
        ft = self.job.ft
        if ft is not None:
            ft.attach_process(self)
        yield from self.stack.wire_up(thread, table)

    def _shutdown(self, thread):
        yield from self.stack.finalize(thread)
        yield from self.oob.rpc(thread, {"op": "deregister", "rank": self.rank})
        self.oob.close()

    def kill(self, cause: str = "proc_kill") -> None:
        """Uncooperative death (SIGKILL): no drain, no deregister, no
        goodbye.  The main thread and every helper thread are interrupted
        wherever they sit; whatever the process owed the fabric stays owed
        until the FT layer reclaims it."""
        if self.finished:
            return
        self.killed = True
        error = ProcessKilled(f"rank {self.rank} killed ({cause})")
        self.main_thread.process.interrupt(error)
        for t in self.aux_threads:
            if t.is_alive:
                t.process.interrupt(error)
        if self.oob is not None:
            self.oob.close()

    # -- OOB helpers available to upper layers ------------------------------
    def oob_lookup(self, thread, rank: int):
        """Coroutine: resolve a rank's current contact info via the seed."""
        reply = yield from self.oob.rpc(thread, {"op": "lookup", "rank": rank})
        return reply["info"], reply["epoch"]

    def oob_table(self, thread, group: str):
        reply = yield from self.oob.rpc(thread, {"op": "table", "group": group})
        return {int(r): e for r, e in reply["table"].items()}

    def oob_sync(self, thread, group: str, count: int):
        reply = yield from self.oob.rpc(thread, {"op": "sync", "group": group, "count": count})
        return {int(r): e for r, e in reply["table"].items()}


class RteJob:
    """A running parallel job.

    ``cluster`` may be a whole :class:`~repro.cluster.Cluster` or a
    scheduler-granted :class:`~repro.cluster.ClusterLease`.  Co-resident
    jobs on one cluster share an injected ``net`` (one IP fabric per
    machine, as in hardware) and distinguish their seed daemons by
    ``seed_port``; a standalone job keeps the historical defaults (its
    own network, port 5555 on its first node).
    """

    def __init__(
        self,
        cluster,
        stack_factory: Optional[Callable] = None,
        net: Optional[IpNetwork] = None,
        seed_port: int = SEED_PORT,
    ):
        self.cluster = cluster
        self.net = net if net is not None else IpNetwork(cluster.sim, cluster.config)
        self.stack_factory = stack_factory or _default_stack_factory()
        self.seed_port = seed_port
        #: where processes dial the registry: the job's first node (node 0
        #: of a whole cluster; the first *granted* node of a lease)
        self.seed_node_id = cluster.nodes[0].node_id
        self.seed = SeedDaemon(self)
        self.processes: Dict[int, RteProcess] = {}
        self._spawn_groups = 0
        #: fault-tolerance daemon, installed by :func:`repro.ft.enable`
        self.ft: Optional[Any] = None

    def launch(
        self,
        rank: int,
        app: Callable,
        node_id: Optional[int] = None,
        group: str = "world",
        group_count: int = 1,
        transports: tuple = ("elan4",),
    ) -> RteProcess:
        """Start one process.  May be called at any time — including while
        the job is running (dynamic spawn) or to restart a departed rank."""
        node = self.cluster.nodes[
            rank % self.cluster.n_nodes if node_id is None else node_id
        ]
        proc = RteProcess(
            self, rank, node, app, group, group_count, self.stack_factory, transports
        )
        self.processes[rank] = proc
        return proc

    def new_group_name(self) -> str:
        self._spawn_groups += 1
        return f"spawn{self._spawn_groups}"

    def wait(self, until: Optional[float] = None) -> Dict[int, Any]:
        """Run the simulation until every launched process finished; returns
        ``rank -> app return value``.  Re-raises the first failure."""
        self.cluster.sim.run(until=until)
        unfinished = [r for r, p in self.processes.items() if not p.finished]
        if unfinished:
            raise RuntimeError(
                f"deadlock: ranks {unfinished} never finished "
                f"(simulated t={self.cluster.sim.now:.1f} µs)"
            )
        for proc in self.processes.values():
            if proc.failure is not None and not proc.killed:
                raise proc.failure
        return {r: p.result for r, p in self.processes.items()}


def _default_stack_factory() -> Callable:
    from repro.mpi.world import mpi_stack_factory  # repro-lint: allow[layering] -- default stack is MPI; lazy so bare-RTE runs never import it

    return mpi_stack_factory


def launch_job(
    cluster,
    app: Callable,
    np: Optional[int] = None,
    transports: tuple = ("elan4",),
    stack_factory: Optional[Callable] = None,
    until: Optional[float] = None,
) -> Dict[int, Any]:
    """Launch ``app`` on ``np`` ranks (default: one per node), run to
    completion, and return ``rank -> result``.  The classic mpirun."""
    n = cluster.n_nodes if np is None else np
    job = RteJob(cluster, stack_factory=stack_factory)
    for rank in range(n):
        job.launch(rank, app, group="world", group_count=n, transports=transports)
    return job.wait(until=until)
