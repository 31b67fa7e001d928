"""Cluster assembly: the simulated testbed in one object.

:class:`Cluster` wires together everything below the MPI layer — simulator,
nodes, NICs, capability, fat-tree fabric — and (once the upper layers are
imported) launches MPI jobs.  The default shape is the paper's testbed:
eight dual-CPU nodes on one QS-8A switch.

Multi-tenancy: a scheduler grants each job a :class:`ClusterLease` (see
:meth:`Cluster.sublease`) — a view of a node subset that shares the
simulator, switches, links, NICs, and capability with every co-resident
job, so congestion between tenants is real, while per-job service state
(the NIC-collective registry, the fault-tolerance daemon slot) stays
isolated.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.ib.fabric import IbFabric
    from repro.ib.nic import IbNic

from repro.config import MachineConfig, default_config
from repro.elan4.capability import ElanCapability
from repro.elan4.fattree import build_quaternary_fat_tree
from repro.elan4.hwbcast import HWBCAST_QID
from repro.elan4.network import Fabric
from repro.elan4.nic import Elan4Context, Elan4Nic
from repro.hw.node import Node
from repro.sim.core import Simulator
from repro.sim.rng import RandomStreams

__all__ = ["Cluster", "ClusterLease"]


class Cluster:
    """A simulated QsNetII cluster.

    ``sim`` (and optionally ``rng``) may be injected so several clusters —
    or a cluster and an external harness — share one event kernel; by
    default each cluster constructs its own.
    """

    def __init__(
        self,
        nodes: int = 8,
        config: Optional[MachineConfig] = None,
        seed: int = 0,
        contexts_per_node: int = 64,
        rails: int = 1,
        sim: Optional[Simulator] = None,
        rng: Optional[RandomStreams] = None,
        ib_rail: bool = False,
        ib_options=None,
    ):
        self.config = config or default_config()
        self.sim = sim if sim is not None else Simulator()
        self.rng = rng if rng is not None else RandomStreams(seed)
        #: observability observer: None unless REPRO_OBS=1 or an enclosing
        #: ``repro.obs.capture()`` block is active (observation-only — the
        #: simulation schedule is identical either way)
        from repro.obs import maybe_observer
        from repro.obs.tracer import Tracer

        self.observer = maybe_observer(self.sim)
        #: the always-on counters, samples and spans; forwards into the
        #: observer's metrics when there is one
        self.tracer = Tracer(self.sim, self.observer)
        #: NIC-offloaded collective registry: learns each rank's Elan
        #: context at MPI wire-up, seals the static cohort, and hands
        #: hw broadcast/barrier groups to the repro.coll framework
        from repro.coll.hw import HwCollRegistry

        self.coll_hw = HwCollRegistry(self)
        #: the fault-tolerance daemon whose membership gates hardware
        #: collectives, installed by :func:`repro.ft.enable`
        self.ft: Optional[Any] = None
        #: cluster-wide hardware broadcast queue-id allocator: queue slots
        #: live on shared NICs, so co-resident jobs (each with its own
        #: HwCollRegistry) must draw from one pool or their receivers
        #: collide on a queue id
        self._next_hw_queue_id = HWBCAST_QID
        self.nodes: List[Node] = [Node(self.sim, self.config, i) for i in range(nodes)]
        #: per-rail interconnects: each rail is its own switch fabric,
        #: capability, and set of NICs (the multirail layout of [6] and the
        #: paper's §8 future work).  Rail 0 always exists.
        self.rail_topologies = []
        self.rail_fabrics: List[Fabric] = []
        self.rail_capabilities: List[ElanCapability] = []
        self.rail_nics: List[List[Elan4Nic]] = []
        for _ in range(max(1, rails)):
            self.add_rail(contexts_per_node=contexts_per_node)
        #: IB rails (repro.ib): parallel to the QsNet rails, own fabrics/HCAs
        self.ib_fabrics: List["IbFabric"] = []
        self.ib_nics: List[List["IbNic"]] = []
        if ib_rail:
            self.add_ib_rail(options=ib_options)

    def add_rail(self, contexts_per_node: int = 64) -> int:
        """Install another QsNetII rail (switch + one NIC per node);
        returns its rail index."""
        rail = len(self.rail_fabrics)
        topology = build_quaternary_fat_tree(self.n_nodes)
        fabric = Fabric(self.sim, self.config, topology, self.tracer)
        fabric.obs = self.observer
        capability = ElanCapability(self.n_nodes, contexts_per_node=contexts_per_node)
        nics = []
        for node in self.nodes:
            nic = Elan4Nic(self.sim, self.config, node, fabric, capability)
            nic.obs = self.observer
            node.devices[f"elan4:{rail}" if rail else "elan4"] = nic
            nics.append(nic)
        self.rail_topologies.append(topology)
        self.rail_fabrics.append(fabric)
        self.rail_capabilities.append(capability)
        self.rail_nics.append(nics)
        return rail

    def add_ib_rail(self, options=None) -> int:
        """Install an InfiniBand-style rail (IB fabric + one HCA per node);
        returns its ib-rail index.  ``options`` is a
        :class:`repro.ib.options.IbOptions` (default: lossless "ib" mode)."""
        from repro.ib.fabric import IbFabric
        from repro.ib.nic import IbNic
        from repro.ib.options import IbOptions

        rail = len(self.ib_fabrics)
        fabric = IbFabric(self.sim, self.config, options or IbOptions(), self.n_nodes)
        fabric.wire_obs(self.observer)
        nics = []
        for node in self.nodes:
            nic = IbNic(self.sim, self.config, node, fabric)
            nic.obs = self.observer
            node.devices[f"ib:{rail}" if rail else "ib"] = nic
            nics.append(nic)
        self.ib_fabrics.append(fabric)
        self.ib_nics.append(nics)
        return rail

    # -- rail-0 compatibility views -----------------------------------------
    @property
    def topology(self):
        return self.rail_topologies[0]

    @property
    def fabric(self) -> Fabric:
        return self.rail_fabrics[0]

    @property
    def capability(self) -> ElanCapability:
        return self.rail_capabilities[0]

    @property
    def nics(self) -> List[Elan4Nic]:
        return self.rail_nics[0]

    @property
    def n_rails(self) -> int:
        return len(self.rail_fabrics)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    # -- low-level attach (used by the RTE and by substrate tests) ---------
    def claim_context(self, node_id: int, space=None, rail: int = 0) -> Elan4Context:
        """Claim a hardware context on ``node_id`` — the dynamic-join
        primitive (§5).  ``rail`` selects the interconnect."""
        cap = self.rail_capabilities[rail]
        entry = cap.claim(node_id)
        try:
            if space is None:
                space = self.nodes[node_id].new_address_space(f"ctx{entry.ctx:#x}")
            return Elan4Context(self.rail_nics[rail][node_id], entry, space)
        except BaseException:
            # attach failed after the claim (bad node, NIC mismatch): put
            # the hardware context back or the capability leaks one slot
            # per failed join attempt
            cap.release(entry.vpid)
            raise

    def alloc_hw_queue_id(self) -> int:
        """Next free NIC broadcast queue id — one shared pool per cluster
        (queue slots live on the shared NICs, not on any one job)."""
        qid = self._next_hw_queue_id
        self._next_hw_queue_id += 1
        return qid

    # -- multi-tenancy ------------------------------------------------------
    def sublease(self, node_ids: Sequence[int]) -> "ClusterLease":
        """Grant a job a view of ``node_ids`` that shares this cluster's
        simulator, fabric, NICs, and capability — the co-residency
        primitive the scheduler builds on (see :class:`ClusterLease`)."""
        return ClusterLease(self, node_ids)

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def assert_no_drops(self) -> None:
        """Raise if any NIC dropped a packet (tests' default postcondition)."""
        for nics in list(self.rail_nics) + list(self.ib_nics):
            for nic in nics:
                if nic.dropped:
                    when, reason, pkt = nic.dropped[0]
                    raise AssertionError(
                        f"node {nic.node_id} dropped {pkt} at t={when}: {reason}"
                    )

    # -- MPI job launch (provided by the upper layers) ----------------------
    def run_mpi(
        self,
        app: Callable,
        np: Optional[int] = None,
        transports: tuple = ("elan4",),
        **kwargs,
    ):
        """Launch ``app`` as an MPI job via the RTE; see
        :func:`repro.rte.environment.launch_job` for the full signature."""
        from repro.rte.environment import launch_job

        return launch_job(self, app, np=np, transports=transports, **kwargs)


class ClusterLease:
    """A job's view of a subset of a :class:`Cluster`'s nodes.

    Everything *physical* is shared with the parent cluster (and hence
    with every co-resident lease): the simulator, the rail fabrics and
    their switches/links, the NICs, and the system-wide Elan capability —
    so two jobs whose routes cross the same switch genuinely contend.
    Everything *job-scoped* is fresh per lease: the node list the RTE
    places ranks on, the NIC-collective registry (communicator state must
    not alias between tenants whose rank numbers coincide), and the
    fault-tolerance daemon slot ``repro.ft.enable`` fills in.

    A lease quacks like a :class:`Cluster` for every consumer below the
    scheduler — the RTE, the MPI stack, the coll/ft/obs services — which
    is what lets a fleet reuse the whole single-job machinery unchanged.
    """

    def __init__(self, parent: Cluster, node_ids: Sequence[int]):
        ids = list(node_ids)
        if not ids:
            raise ValueError("a lease must cover at least one node")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in lease: {ids}")
        for i in ids:
            if not 0 <= i < parent.n_nodes:
                raise ValueError(f"node {i} outside cluster of {parent.n_nodes}")
        self.parent = parent
        self.node_ids = ids
        self.config = parent.config
        self.sim = parent.sim
        self.rng = parent.rng
        self.tracer = parent.tracer
        self.observer = parent.observer
        #: the granted nodes, in grant order — ``nodes[0]`` hosts the
        #: job's seed daemon, and rank i defaults onto ``nodes[i % len]``
        self.nodes: List[Node] = [parent.nodes[i] for i in ids]
        from repro.coll.hw import HwCollRegistry

        self.coll_hw = HwCollRegistry(self)
        self.ft: Optional[Any] = None

    # -- shared physical substrate (delegated) ------------------------------
    @property
    def rail_topologies(self):
        return self.parent.rail_topologies

    @property
    def rail_fabrics(self) -> List[Fabric]:
        return self.parent.rail_fabrics

    @property
    def rail_capabilities(self) -> List[ElanCapability]:
        return self.parent.rail_capabilities

    @property
    def rail_nics(self) -> List[List[Elan4Nic]]:
        return self.parent.rail_nics

    @property
    def ib_fabrics(self) -> List["IbFabric"]:
        return self.parent.ib_fabrics

    @property
    def ib_nics(self) -> List[List["IbNic"]]:
        return self.parent.ib_nics

    @property
    def topology(self):
        return self.parent.topology

    @property
    def fabric(self) -> Fabric:
        return self.parent.fabric

    @property
    def capability(self) -> ElanCapability:
        return self.parent.capability

    @property
    def nics(self) -> List[Elan4Nic]:
        return self.parent.nics

    @property
    def n_rails(self) -> int:
        return self.parent.n_rails

    @property
    def n_nodes(self) -> int:
        """Size of the *lease* — the RTE's default rank→node modulus."""
        return len(self.nodes)

    def claim_context(self, node_id: int, space=None, rail: int = 0) -> Elan4Context:
        """Claim a context on *global* ``node_id`` (the PTL passes the
        node object's own id) from the shared capability."""
        return self.parent.claim_context(node_id, space=space, rail=rail)

    def alloc_hw_queue_id(self) -> int:
        return self.parent.alloc_hw_queue_id()

    def run(self, until: Optional[float] = None) -> float:
        return self.parent.run(until=until)

    def assert_no_drops(self) -> None:
        self.parent.assert_no_drops()

    def run_mpi(
        self,
        app: Callable,
        np: Optional[int] = None,
        transports: tuple = ("elan4",),
        **kwargs,
    ):
        from repro.rte.environment import launch_job

        return launch_job(self, app, np=np, transports=transports, **kwargs)
