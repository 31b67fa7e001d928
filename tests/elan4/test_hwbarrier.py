"""The NIC-offloaded barrier with several members per NIC.

A release packet reaches each NIC once and fires the release events of the
members that NIC hosts, in member order.
"""

import re

from repro.cluster import Cluster
from repro.elan4.event import ElanEvent
from repro.elan4.hwbarrier import make_group

NODES = 3
PER_NODE = 3
ROUNDS = 2


def test_each_nic_releases_its_members_in_member_order(monkeypatch):
    cluster = Cluster(nodes=NODES, contexts_per_node=PER_NODE)
    # interleaved, so that no NIC's members are contiguous in member order
    members = [cluster.claim_context(n) for _ in range(PER_NODE) for n in range(NODES)]
    cluster.capability.seal_static_cohort()
    group = make_group(members, radix=2)

    released = []
    pattern = re.compile(rf"hwbarrier:g{group.group_id}:m(\d+):r(\d+):release@")
    fire = ElanEvent.fire

    def traced_fire(event, value=None):
        match = pattern.match(event.name)
        if match:
            released.append((event.nic, int(match[2]), int(match[1])))
        fire(event, value)

    monkeypatch.setattr(ElanEvent, "fire", traced_fire)

    def member_thread(ctx):
        def run(thread):
            for _ in range(ROUNDS):
                yield from group.barrier(thread, ctx)
        return run

    for ctx in members:
        cluster.nodes[ctx.nic.node_id].spawn_thread(member_thread(ctx))
    cluster.run()

    assert group.barriers_completed == ROUNDS
    assert len(released) == len(members) * ROUNDS
    for nic in {ctx.nic for ctx in members}:
        hosted = [i for i, ctx in enumerate(members) if ctx.nic is nic]
        assert len(hosted) == PER_NODE
        for rnd in range(ROUNDS):
            order = [m for n, r, m in released if n is nic and r == rnd]
            assert order == hosted
