"""Golden fingerprints of fat-tree routing, healthy and around faults.

Every route the fabric uses comes from :meth:`Topology.route`: the interior
switch names on a shortest path, and, on a multi-stage tree, which of the
redundant planes carries it.  Routes feed the hop-latency model and the
per-switch counters, so the same pair must take the same path, in every
health epoch, or the model moves.  ``GOLDEN`` holds one sha256 per scenario
over the ``repr`` of the route lists and of ``reroutes`` after each step.
"""

import hashlib

import pytest

from repro.elan4.fattree import build_quaternary_fat_tree

#: fixed sources for the fault scenarios: both ends and the middle of the
#: 64-leaf tree, under different stage-0 and stage-1 switches
SOURCES = (0, 5, 17, 30, 42, 63)


def _links(topo):
    """Every cable once, from the switches' port maps in wiring order."""
    links, seen = [], set()
    for name, sw in topo.switches.items():
        for port in sorted(sw.ports):
            link = (name, sw.ports[port])
            if frozenset(link) not in seen:
                seen.add(frozenset(link))
                links.append(link)
    return links


def _routes_from(topo, sources):
    return [topo.route(a, b) for a in sources for b in range(topo.n_leaves)]


def _all_pairs(n):
    topo = build_quaternary_fat_tree(n)
    return [_routes_from(topo, range(n)), topo.reroutes]


def _switch_failures():
    topo = build_quaternary_fat_tree(64)
    out = [_routes_from(topo, SOURCES)]
    for name in list(topo.switches):
        topo.fail_switch(name)
        out.append((name, _routes_from(topo, SOURCES), topo.reroutes))
        topo.restore_switch(name)
        out.append((name, _routes_from(topo, SOURCES), topo.reroutes))
    return out


def _link_failures():
    topo = build_quaternary_fat_tree(64)
    out = [_routes_from(topo, SOURCES)]
    for a, b in _links(topo):
        topo.fail_link(a, b)
        out.append((a, b, _routes_from(topo, SOURCES), topo.reroutes))
        topo.restore_link(a, b)
    out.append(topo.reroutes)
    return out


def _leaf_sequence():
    topo = build_quaternary_fat_tree(64)
    out = []
    steps = [
        lambda: topo.fail_switch("sw1.0"),
        lambda: topo.fail_leaf(5),
        lambda: topo.fail_link("sw0.4", "sw1.1p1"),
        lambda: topo.fail_switch("sw2.0p1"),
        lambda: topo.restore_leaf(5),
        lambda: topo.fail_leaf(42),
        lambda: topo.restore_switch("sw1.0"),
        lambda: topo.restore_switch("sw2.0p1"),
    ]
    for step in steps:
        step()
        out.append((_routes_from(topo, SOURCES), topo.reroutes))
    return out


SCENARIOS = {
    "all_pairs_8": lambda: _all_pairs(8),
    "all_pairs_64": lambda: _all_pairs(64),
    "all_pairs_256": lambda: _all_pairs(256),
    "switch_failures_64": _switch_failures,
    "link_failures_64": _link_failures,
    "leaf_sequence_64": _leaf_sequence,
}

GOLDEN = {
    "all_pairs_8": "f1ed1f6b44666326f82a4367ecd1af354b78363840c447d4f6ad9e7017614b66",
    "all_pairs_64": "c20a839c16d70dcb7d9a81b6cf9caee5a068f34160c1837fb054db0228c1ef37",
    "all_pairs_256": "bb1fce64da6cb1d820b5e6c9f6b64ad0d4c0fd142ce24a22cc5d4bd9b04b6eb8",
    "switch_failures_64": "ee70cbbf6a53d78a3b54cbfb4359669d2f0f2271e374b972f97556484b0da475",
    "link_failures_64": "6de189f20a7fa8938abf66b1b6e0b522e880423de2462a18c07c4f6988b7c744",
    "leaf_sequence_64": "a6d394fc94acfe21d5c140d07d50f7ab6d300370d48cadfff79571a6a7b08a3e",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_routes_match_golden(name):
    digest = hashlib.sha256(repr(SCENARIOS[name]()).encode()).hexdigest()
    assert digest == GOLDEN[name]
