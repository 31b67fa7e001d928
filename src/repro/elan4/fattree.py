"""Quaternary fat-tree topology construction and health-aware routing.

Builds the QsNetII interconnect shape: leaves (NIC ports) hang off a tree of
Elite-4 switches where each switch stage has 4 down-links and 4 up-links
(radix 8).  The paper's testbed is "a dimension one quaternary fat-tree
QS-8A switch and eight Elan4 QM-500 cards" — with ≤8 leaves the tree is a
single stage and every NIC pair is one switch hop apart; larger simulated
clusters grow additional stages, and the hop count feeds the fabric's
latency model.

Trees with more than one stage are built with *plane redundancy*: the upper
stages are duplicated into independent routing planes (default two), the way
real QsNetII installations provision multiple top switches.  Killing a
switch or link (``fail_switch`` / ``fail_link``) makes :meth:`Topology.route`
recompute paths around the dead element; only when no healthy path remains
is the destination *partitioned* and :class:`PartitionError` raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.elan4.switch import Elite4Switch

__all__ = [
    "Topology",
    "PartitionError",
    "build_quaternary_fat_tree",
    "leaf_name",
]

DOWN_LINKS = 4  # quaternary: 4 children per switch stage element


class PartitionError(RuntimeError):
    """No healthy route exists between two leaves."""


#: node name -> neighbour names (values unused), both in wiring order; the
#: order decides which of several equal-length paths a route takes
Graph = Dict[str, Dict[str, None]]


def leaf_name(i: int) -> str:
    return f"nic:{i}"


def _link(g: Graph, a: str, b: str) -> None:
    g[a][b] = None
    g[b][a] = None


def _expand(g: Graph, level: List[str], seen: Dict[str, Optional[str]],
            other: Dict[str, Optional[str]]) -> Tuple[List[str], Optional[str]]:
    """One BFS level from ``level``: ``(next level, meeting node or None)``.
    ``seen`` maps each reached node to the neighbour it was reached from;
    the search stops at the first neighbour that ``other`` has reached."""
    nxt: List[str] = []
    for v in level:
        for w in g[v]:
            if w not in seen:
                seen[w] = v
                nxt.append(w)
            if w in other:
                return nxt, w
    return nxt, None


def shortest_path(g: Graph, source: str, target: str) -> Optional[List[str]]:
    """A shortest ``source``→``target`` path, or ``None`` if there is none.

    Bidirectional BFS that always expands the smaller fringe, the forward
    one on a tie, and stops at the first node both searches have reached:
    networkx's ``bidirectional_shortest_path``.  Its choice among
    equal-length paths, and so the plane a route takes, is part of the
    model (``tests/elan4/test_routes_golden.py``).
    """
    if source not in g or target not in g:
        return None
    pred: Dict[str, Optional[str]] = {source: None}
    succ: Dict[str, Optional[str]] = {target: None}
    forward, reverse = [source], [target]
    meet = None
    while forward and reverse and meet is None:
        if len(forward) <= len(reverse):
            forward, meet = _expand(g, forward, pred, succ)
        else:
            reverse, meet = _expand(g, reverse, succ, pred)
    if meet is None:
        return None
    path: List[str] = []
    node: Optional[str] = meet
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[meet]
    while node is not None:
        path.append(node)
        node = succ[node]
    return path


@dataclass
class Topology:
    """The wired fabric: an adjacency map plus switch objects and routes.

    Health state lives here: ``dead_switches`` / ``dead_links`` mask out
    fabric elements, and routes are recomputed lazily against the healthy
    subgraph.  ``reroutes`` counts how many cached routes actually changed
    after a fault or repair — the fabric-level recovery metric.
    """

    graph: Graph
    leaves: List[str]
    switches: Dict[str, Elite4Switch]
    dead_switches: Set[str] = field(default_factory=set)
    #: frozenset({endpoint_a, endpoint_b}) of failed cables
    dead_links: Set[FrozenSet[str]] = field(default_factory=set)
    reroutes: int = 0
    _epoch: int = 0
    #: (a, b) with a <= b  ->  (epoch, interior switch names or None)
    _routes: Dict[tuple, tuple] = field(default_factory=dict)
    _healthy_epoch: int = -1
    _healthy_cache: Optional[Graph] = None
    #: directional (a, b) -> (epoch, (hops, switch objects) or None) — the
    #: fabric's per-packet fast path; same epoch invalidation as ``_routes``
    _fast_routes: Dict[tuple, tuple] = field(default_factory=dict)

    # -- health --------------------------------------------------------------
    def fail_switch(self, name: str) -> None:
        if name not in self.switches:
            raise KeyError(f"unknown switch {name!r}")
        if name not in self.dead_switches:
            self.dead_switches.add(name)
            self.switches[name].alive = False
            self._epoch += 1

    def restore_switch(self, name: str) -> None:
        if name in self.dead_switches:
            self.dead_switches.discard(name)
            self.switches[name].alive = True
            self._epoch += 1

    def fail_link(self, a: str, b: str) -> None:
        link = frozenset((a, b))
        if b not in self.graph.get(a, ()):
            raise KeyError(f"no link between {a!r} and {b!r}")
        if link not in self.dead_links:
            self.dead_links.add(link)
            self._epoch += 1

    def restore_link(self, a: str, b: str) -> None:
        link = frozenset((a, b))
        if link in self.dead_links:
            self.dead_links.discard(link)
            self._epoch += 1

    def fail_leaf(self, i: int) -> None:
        """Sever every cable on leaf ``i`` — the partition primitive."""
        leaf = leaf_name(i)
        for nbr in self.graph[leaf]:
            self.fail_link(leaf, nbr)

    def restore_leaf(self, i: int) -> None:
        leaf = leaf_name(i)
        for nbr in self.graph[leaf]:
            self.restore_link(leaf, nbr)

    @property
    def faulty(self) -> bool:
        return bool(self.dead_switches or self.dead_links)

    def _healthy_graph(self) -> Graph:
        if not self.faulty:
            return self.graph
        if self._healthy_epoch != self._epoch:
            # nx.Graph.copy()'s neighbour order: nodes in order, then each
            # edge both ways as first met.  Routes around faults follow it.
            g: Graph = {name: {} for name in self.graph}
            for a, nbrs in self.graph.items():
                for b in nbrs:
                    _link(g, a, b)
            for name in self.dead_switches:
                for nbr in g.pop(name):
                    del g[nbr][name]
            for link in self.dead_links:
                a, b = tuple(link)
                if b in g.get(a, ()):
                    del g[a][b]
                    del g[b][a]
            self._healthy_cache = g
            self._healthy_epoch = self._epoch
        return self._healthy_cache

    # -- routing -------------------------------------------------------------
    def route(self, a: int, b: int) -> Optional[List[str]]:
        """Interior switch names on the healthy route from leaf ``a`` to
        ``b``, or ``None`` if the pair is partitioned.  Loopback is the
        empty route (the NIC short-circuits self-addressed traffic)."""
        if a == b:
            return []
        key = (min(a, b), max(a, b))
        cached = self._routes.get(key)
        if cached is not None and cached[0] == self._epoch:
            interior = cached[1]
        else:
            path = shortest_path(
                self._healthy_graph(), leaf_name(key[0]), leaf_name(key[1])
            )
            interior = None if path is None else path[1:-1]
            if cached is not None and cached[1] != interior:
                self.reroutes += 1
            self._routes[key] = (self._epoch, interior)
        if interior is None or a <= b:
            return interior
        return list(reversed(interior))

    def route_fast(self, a: int, b: int) -> Optional[tuple]:
        """``(hop_count, switch objects along a→b)`` or ``None`` when the
        pair is partitioned.  A memo over :meth:`route` keyed by the health
        epoch: route computation, name→switch lookups, and the reversed-copy
        allocation all happen once per (pair, epoch) instead of per packet.
        Reroute counting is inherited from :meth:`route` on each miss.
        """
        key = (a, b)
        cached = self._fast_routes.get(key)
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        interior = self.route(a, b)
        if interior is None:
            info = None
        else:
            info = (len(interior), tuple(self.switches[name] for name in interior))
        self._fast_routes[key] = (self._epoch, info)
        return info

    def hops(self, a: int, b: int) -> int:
        """Switch elements on the route between leaves ``a`` and ``b``.

        Loopback (a == b) is zero hops: the Elan4 NIC short-circuits
        self-addressed traffic without entering the fabric.
        """
        route = self.route(a, b)
        if route is None:
            raise PartitionError(
                f"leaves {a} and {b} are partitioned "
                f"(dead switches: {sorted(self.dead_switches)}, "
                f"dead links: {len(self.dead_links)})"
            )
        return len(route)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def stages(self) -> int:
        """Fat-tree depth (1 for the paper's 8-node QS-8A)."""
        return max(1, math.ceil(math.log(max(self.n_leaves, 2), DOWN_LINKS)))


def build_quaternary_fat_tree(n_leaves: int, redundancy: int = 2) -> Topology:
    """Wire ``n_leaves`` NICs into a quaternary fat tree.

    Stage 0 switches each take up to 4 leaves on their down-links.  The
    higher stages are built ``redundancy`` times over as independent routing
    planes: every stage-0 switch up-links once into each plane (up-port
    ``DOWN_LINKS + plane``), and within a plane each switch has a single
    parent.  Shortest paths through any plane have identical length, so the
    latency model is unchanged, but a dead upper switch or cable leaves a
    same-length route through a surviving plane.

    The paper's ≤8-node testbed stays a single QS-8A switch — there is no
    redundant plane to fail over to, and killing it partitions everything.
    """
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    if not 1 <= redundancy <= DOWN_LINKS:
        raise ValueError(f"redundancy must be in 1..{DOWN_LINKS}")
    switches: Dict[str, Elite4Switch] = {}
    leaves = [leaf_name(i) for i in range(n_leaves)]
    g: Graph = {name: {} for name in leaves}

    def add_switch(stage: int, idx: int, plane: int = 0) -> Elite4Switch:
        name = f"sw{stage}.{idx}" if plane == 0 else f"sw{stage}.{idx}p{plane}"
        sw = Elite4Switch(name)
        switches[name] = sw
        g[name] = {}
        return sw

    if n_leaves <= Elite4Switch.RADIX:
        # The paper's testbed shape: a dimension-one switch (QS-8A) with all
        # ports down — every NIC pair is a single hop apart.
        sw = add_switch(0, 0)
        for port, leaf in enumerate(leaves):
            sw.connect(port, leaf)
            _link(g, sw.name, leaf)
        return Topology(graph=g, leaves=leaves, switches=switches)

    # stage 0: leaves onto first-stage switches (shared by all planes)
    stage0: List[Elite4Switch] = []
    for idx in range(math.ceil(n_leaves / DOWN_LINKS)):
        sw = add_switch(0, idx)
        stage0.append(sw)
        for port in range(DOWN_LINKS):
            leaf_idx = idx * DOWN_LINKS + port
            if leaf_idx >= n_leaves:
                break
            sw.connect(port, leaves[leaf_idx])
            _link(g, sw.name, leaves[leaf_idx])

    # upper stages, once per redundant plane
    for plane in range(redundancy):
        current = stage0
        stage = 1
        while len(current) > 1:
            parents: List[Elite4Switch] = []
            for idx in range(math.ceil(len(current) / DOWN_LINKS)):
                sw = add_switch(stage, idx, plane)
                parents.append(sw)
                for port in range(DOWN_LINKS):
                    child_idx = idx * DOWN_LINKS + port
                    if child_idx >= len(current):
                        break
                    child = current[child_idx]
                    sw.connect(port, child.name)
                    # stage-0 switches spend one up-port per plane; switches
                    # inside a plane have a single parent
                    up_port = DOWN_LINKS + (plane if child in stage0 else 0)
                    child.connect(up_port, sw.name)
                    _link(g, sw.name, child.name)
            current = parents
            stage += 1

    return Topology(graph=g, leaves=leaves, switches=switches)
