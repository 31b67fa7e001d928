"""Tests for the RTE: seed registry, job launch, dynamic spawn, restart.

These use a minimal "echo" stack so the RTE is exercised independently of
the Open MPI layers built on top of it.
"""

import json

import pytest

from repro.cluster import Cluster
from repro.rte.checkpoint import CheckpointImage, restart_rank
from repro.rte.environment import RteJob, launch_job
from repro.rte.oob import OobChannel
from repro.rte.spawn import spawn_procs


class EchoStack:
    """Transport stack stub: claims a real Elan4 context (so VPID dynamics
    are genuine) but does no PTL wiring."""

    def __init__(self, process, transports):
        self.process = process
        self.transports = transports
        self.ctx = None
        self.table = None
        self.finalized = False

    def init_local(self, thread):
        cluster = self.process.job.cluster
        self.ctx = cluster.claim_context(self.process.node.node_id, self.process.space)
        yield thread.sim.timeout(0)
        return {"vpid": self.ctx.vpid, "node": self.process.node.node_id}

    def wire_up(self, thread, table):
        self.table = table
        yield thread.sim.timeout(0)

    def finalize(self, thread):
        yield from self.ctx.finalize(thread)
        self.finalized = True

    def user_api(self):
        return self


def test_launch_job_runs_all_ranks_and_collects_results():
    cluster = Cluster(nodes=4)

    def app(stack):
        yield stack.process.job.cluster.sim.timeout(1.0)
        return ("done", stack.process.rank)

    results = launch_job(cluster, app, np=4, stack_factory=EchoStack)
    assert results == {r: ("done", r) for r in range(4)}


def test_sync_delivers_full_contact_table():
    cluster = Cluster(nodes=4)
    tables = {}

    def app(stack):
        tables[stack.process.rank] = stack.table
        yield stack.process.job.cluster.sim.timeout(0)

    launch_job(cluster, app, np=4, stack_factory=EchoStack)
    for rank, table in tables.items():
        assert sorted(table) == [0, 1, 2, 3]
        vpids = {table[r]["info"]["vpid"] for r in table}
        assert len(vpids) == 4  # all distinct


def test_ranks_decoupled_from_vpids():
    """Rank i need not equal VPID i — the §4.1 decoupling."""
    cluster = Cluster(nodes=2)
    seen = {}

    def app(stack):
        seen[stack.process.rank] = stack.ctx.vpid
        yield stack.process.job.cluster.sim.timeout(0)

    # launch in reverse order so the monotone VPIDs cross the ranks
    job = RteJob(cluster, stack_factory=EchoStack)
    for rank in (1, 0):
        job.launch(rank, app, group="world", group_count=2)
    job.wait()
    assert set(seen.values()) == {0, 1}


def test_more_ranks_than_nodes():
    cluster = Cluster(nodes=2)

    def app(stack):
        yield stack.process.job.cluster.sim.timeout(0)
        return stack.process.node.node_id

    results = launch_job(cluster, app, np=6, stack_factory=EchoStack)
    assert len(results) == 6
    assert set(results.values()) == {0, 1}  # round-robin placement


@pytest.mark.sanitizer_expected
def test_wait_reports_deadlock():
    cluster = Cluster(nodes=2)

    def app(stack):
        if stack.process.rank == 0:
            yield stack.process.job.cluster.sim.timeout(10.0)
        else:
            # waits forever on an event nobody completes
            from repro.sim.events import SimEvent

            yield SimEvent(cluster.sim)

    job = RteJob(cluster, stack_factory=EchoStack)
    for rank in range(2):
        job.launch(rank, app, group="world", group_count=2)
    with pytest.raises(RuntimeError, match="deadlock.*\\[1\\]"):
        job.wait()


def test_app_exception_propagates():
    cluster = Cluster(nodes=1)

    def app(stack):
        yield stack.process.job.cluster.sim.timeout(0)
        raise ValueError("app blew up")

    with pytest.raises(ValueError, match="app blew up"):
        launch_job(cluster, app, np=1, stack_factory=EchoStack)


def test_oob_lookup_resolves_other_ranks():
    cluster = Cluster(nodes=2)
    found = {}

    def app(stack):
        thread = stack.process.main_thread
        other = 1 - stack.process.rank
        info, epoch = yield from stack.process.oob_lookup(thread, other)
        found[stack.process.rank] = (info["vpid"], epoch)

    launch_job(cluster, app, np=2, stack_factory=EchoStack)
    assert set(found) == {0, 1}
    assert found[0][1] == 0  # first epoch


def test_dynamic_spawn_joins_running_job():
    cluster = Cluster(nodes=4)
    events = []

    def child(stack):
        events.append(("child", stack.process.rank))
        yield stack.process.job.cluster.sim.timeout(0)
        return "child-done"

    def parent(stack):
        thread = stack.process.main_thread
        if stack.process.rank == 0:
            procs = spawn_procs(stack.process.job, [child, child])
            # rendezvous with the children through the registry
            table = yield from stack.process.oob_sync(thread, procs[0].group, 2)
            events.append(("parent-sees", sorted(table)))
        yield stack.process.job.cluster.sim.timeout(0)
        return "parent-done"

    job = RteJob(cluster, stack_factory=EchoStack)
    for rank in range(2):
        job.launch(rank, parent, group="world", group_count=2)
    results = job.wait()
    assert results[0] == "parent-done"
    assert results[2] == "child-done" and results[3] == "child-done"
    assert ("parent-sees", [2, 3]) in events


def test_spawned_processes_get_fresh_vpids():
    cluster = Cluster(nodes=2)
    vpids = {}

    def child(stack):
        vpids[stack.process.rank] = stack.ctx.vpid
        yield stack.process.job.cluster.sim.timeout(0)

    def parent(stack):
        vpids[stack.process.rank] = stack.ctx.vpid
        if stack.process.rank == 0:
            spawn_procs(stack.process.job, [child])
        yield stack.process.job.cluster.sim.timeout(0)

    job = RteJob(cluster, stack_factory=EchoStack)
    job.launch(0, parent, group="world", group_count=1)
    job.wait()
    assert vpids[1] != vpids[0]


def test_spawn_validation():
    cluster = Cluster(nodes=1)
    job = RteJob(cluster, stack_factory=EchoStack)
    with pytest.raises(ValueError):
        spawn_procs(job, [])


def test_restart_same_rank_new_vpid_and_epoch():
    """Checkpoint/restart: rank persists, VPID does not, epoch bumps."""
    cluster = Cluster(nodes=2)
    record = []

    def app_v1(stack):
        record.append(("v1", stack.ctx.vpid))
        yield stack.process.job.cluster.sim.timeout(0)
        return CheckpointImage(stack.process.rank, {"counter": 41})

    results_holder = {}

    def app_v2(stack):
        record.append(("v2", stack.ctx.vpid, stack.process.epoch))
        image = stack.process.restart_image
        yield stack.process.job.cluster.sim.timeout(0)
        return image.app_state["counter"] + 1

    job = RteJob(cluster, stack_factory=EchoStack)
    job.launch(0, app_v1, group="world", group_count=1)
    results = job.wait()
    image = results[0]
    proc2 = restart_rank(job, image, app_v2, node_id=1)  # migrate to node 1
    results2 = job.wait()
    assert results2[0] == 42
    v1 = [r for r in record if r[0] == "v1"][0]
    v2 = [r for r in record if r[0] == "v2"][0]
    assert v2[1] != v1[1]  # fresh VPID
    assert v2[2] == 1  # epoch bumped
    assert proc2.node.node_id == 1


def test_restart_refused_while_running():
    cluster = Cluster(nodes=1)

    def app(stack):
        yield stack.process.job.cluster.sim.timeout(1000.0)

    job = RteJob(cluster, stack_factory=EchoStack)
    job.launch(0, app, group="world", group_count=1)
    cluster.sim.run(until=1.0)
    with pytest.raises(RuntimeError, match="still running"):
        restart_rank(job, CheckpointImage(0), app)


def test_finalize_releases_context_for_reuse():
    """After a full job, every claimed context is back in the capability."""
    cluster = Cluster(nodes=2, contexts_per_node=2)

    def app(stack):
        yield stack.process.job.cluster.sim.timeout(0)

    for _ in range(3):  # would exhaust 2 contexts/node without release
        launch_job(cluster, app, np=4, stack_factory=EchoStack)
    assert cluster.capability.free_contexts(0) == 2
    assert cluster.capability.free_contexts(1) == 2


def test_cached_table_reply_follows_registration(monkeypatch):
    """The seed encodes a group's table once per membership change: a rank
    that joins after the first sync is in the next ``sync`` / ``table``
    reply, one that leaves is not, and every table reply is byte-equal to
    a fresh encoding of the registry at the moment it is sent."""
    cluster = Cluster(nodes=4)
    job = RteJob(cluster, stack_factory=EchoStack)
    seed = job.seed
    table_replies = []
    send_encoded = OobChannel.send_encoded

    def recording(self, thread, body):
        if body.startswith(b'{"table"'):
            fresh = {
                json.dumps({"table": seed.group_table(g)}, separators=(",", ":")).encode()
                for g in seed._group_members
            }
            table_replies.append(body in fresh)
        yield from send_encoded(self, thread, body)

    monkeypatch.setattr(OobChannel, "send_encoded", recording)
    seen = {}

    def child(stack):
        yield stack.process.job.cluster.sim.timeout(0)

    def parent(stack):
        thread = stack.process.main_thread
        if stack.process.rank == 0:
            seen["first"] = sorted(stack.table)
            spawn_procs(stack.process.job, [child], group="world")
            table = yield from stack.process.oob_sync(thread, "world", 3)
            seen["sync"] = sorted(table)
            table = yield from stack.process.oob_table(thread, "world")
            seen["table"] = sorted(table)
            yield from thread.sleep(5000.0)  # the child finishes and deregisters
            table = yield from stack.process.oob_table(thread, "world")
            seen["after"] = sorted(table)
        else:
            yield from thread.sleep(10000.0)  # stays registered throughout

    for rank in range(2):
        job.launch(rank, parent, group="world", group_count=2)
    job.wait()
    assert seen == {"first": [0, 1], "sync": [0, 1, 2], "table": [0, 1, 2],
                    "after": [0, 1]}
    # two launch syncs, the child's sync, and rank 0's three requests
    assert len(table_replies) == 6 and all(table_replies)
