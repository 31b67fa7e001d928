"""NIC-offloaded barrier driven by chained count-N Elan events.

Reproduces the NIC-based barrier of *Efficient and Scalable Barrier over
Quadrics and Myrinet with a NIC-Based Collective Message Passing Protocol*
(Yu, Buntinas, Graham, Panda — see PAPERS.md): each process arms a
count-N *gather* event on its NIC; arrival tokens from its children in a
radix-``k`` tree fire the event, whose chained operation forwards one
token up the tree — entirely on the NIC event engine, with no host
involvement between the initial doorbell and the final wakeup.  When the
root's gather event triggers, its chain releases everyone with a single
hardware broadcast (the same switch replication :mod:`repro.elan4.hwbcast`
uses), so the release phase costs one injection instead of a software
tree's ⌈log n⌉ serial sends.

Like hardware broadcast, the engine is only available to the
synchronously-joined static cohort (§4.1): tokens are NIC-to-NIC writes at
pre-agreed event addresses, which dynamically-(re)joined processes do not
share.  :class:`HwBarrierGroup` refuses members outside the cohort;
callers (the ``repro.coll`` framework) fall back to software dissemination.

Rounds are disambiguated by a per-member barrier counter carried in every
token, and per-round event state is created lazily on first touch — a
child's token may arrive at a parent NIC before the parent's host has
entered the barrier, which is exactly the case count-N events exist for.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Sequence, Tuple, TYPE_CHECKING

from repro.elan4.event import ChainOp, ElanEvent
from repro.elan4.network import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.elan4.nic import Elan4Context, Elan4Nic

__all__ = ["HwBarrierGroup", "HwBarrierError", "BARRIER_TOKEN_BYTES"]

#: wire footprint of a gather token / release word (one event-write flit)
BARRIER_TOKEN_BYTES = 8

_group_ids = itertools.count(1)


class HwBarrierError(Exception):
    """Late joiner in the group, or misuse of the barrier engine."""


class _RoundState:
    """Per-(member, round) NIC event pair."""

    __slots__ = ("gather", "release")

    def __init__(self, gather: ElanEvent, release: ElanEvent):
        self.gather = gather
        self.release = release


class HwBarrierGroup:
    """A static cohort sharing a NIC-resident barrier tree.

    Member ``i`` (position in the ``members`` sequence) sits at node ``i``
    of a radix-``radix`` tree: parent ``(i - 1) // radix``, children
    ``radix*i + 1 .. radix*i + radix``.  Member 0 is the root.
    """

    def __init__(self, members: Sequence["Elan4Context"], radix: int = 4):
        if not members:
            raise HwBarrierError("empty barrier group")
        if radix < 2:
            raise HwBarrierError(f"barrier tree radix {radix} < 2")
        fabric = members[0].nic.fabric
        capability = members[0].nic.capability
        for ctx in members:
            if ctx.nic.fabric is not fabric:
                raise HwBarrierError("barrier group must live on one rail")
            if not capability.in_static_cohort(ctx.vpid):
                raise HwBarrierError(
                    f"vpid {ctx.vpid} joined dynamically: no pre-agreed NIC "
                    "event addresses, hardware barrier unavailable (§4.1)"
                )
        self.group_id = next(_group_ids)
        self.members = list(members)
        self.fabric = fabric
        self.radix = radix
        self.dst_nodes = sorted({ctx.nic.node_id for ctx in self.members})
        #: (member index, round) -> lazily-created event pair
        self._rounds: Dict[Tuple[int, int], _RoundState] = {}
        #: per-member host-side barrier counter
        self._host_round: List[int] = [0] * len(self.members)
        self._member_of = {ctx.vpid: i for i, ctx in enumerate(self.members)}
        #: NIC -> indices of the members it hosts, in member order: the
        #: members a release packet at that NIC fires, in this order
        self._members_on: Dict["Elan4Nic", List[int]] = {}
        for i, ctx in enumerate(self.members):
            self._members_on.setdefault(ctx.nic, []).append(i)
        self.barriers_completed = 0

    # -- tree shape --------------------------------------------------------
    def children_of(self, member: int) -> List[int]:
        lo = self.radix * member + 1
        return [c for c in range(lo, lo + self.radix) if c < len(self.members)]

    def parent_of(self, member: int) -> int:
        return (member - 1) // self.radix

    # -- NIC-side state ----------------------------------------------------
    def _round_state(self, member: int, rnd: int) -> _RoundState:
        key = (member, rnd)
        st = self._rounds.get(key)
        if st is not None:
            return st
        ctx = self.members[member]
        nchildren = len(self.children_of(member))
        # count-N: one fire per child token plus the local host arrival
        gather = ctx.make_event(
            count=nchildren + 1,
            name=f"hwbarrier:g{self.group_id}:m{member}:r{rnd}:gather",
        )
        release = ctx.make_event(
            count=1,
            name=f"hwbarrier:g{self.group_id}:m{member}:r{rnd}:release",
        )
        release.attach_host_word()
        if member == 0:
            gather.chain(
                ChainOp(
                    description=f"hwbarrier:g{self.group_id}:r{rnd}:hw-release",
                    run=lambda: self._broadcast_release(rnd),
                )
            )
        else:
            parent = self.parent_of(member)
            gather.chain(
                ChainOp(
                    description=(
                        f"hwbarrier:g{self.group_id}:m{member}:r{rnd}:token-up"
                    ),
                    run=lambda: self._send_token(member, parent, rnd),
                )
            )
        st = _RoundState(gather, release)
        self._rounds[key] = st
        return st

    def _send_token(self, child: int, parent: int, rnd: int) -> None:
        """NIC event-engine callback: forward one arrival token up the tree."""
        src_nic = self.members[child].nic
        dst_nic = self.members[parent].nic
        if dst_nic is src_nic:
            # parent context lives on the same NIC: a local event write,
            # charged at the event-engine write cost
            src_nic.sim.schedule(
                src_nic.config.nic_event_us,
                self._round_state(parent, rnd).gather.fire,
            )
            return
        self.fabric.transmit_from_nic(
            Packet(
                src_node=src_nic.node_id,
                dst_node=dst_nic.node_id,
                nbytes=BARRIER_TOKEN_BYTES,
                kind="hwbarrier",
                meta={
                    "group": self.group_id,
                    "phase": "gather",
                    "member": parent,
                    "round": rnd,
                },
            )
        )

    def _broadcast_release(self, rnd: int) -> None:
        """NIC event-engine callback at the root: one hardware broadcast
        releases every member (the root's own NIC included)."""
        root_nic = self.members[0].nic
        pkt = Packet(
            src_node=root_nic.node_id,
            dst_node=-1,  # filled per destination by the fabric
            nbytes=BARRIER_TOKEN_BYTES,
            kind="hwbarrier",
            meta={"group": self.group_id, "phase": "release", "round": rnd},
        )
        root_nic.sim.schedule_pooled(0.0, self.fabric.broadcast, (pkt, self.dst_nodes))

    def _on_packet(self, nic: "Elan4Nic", pkt: Packet) -> None:
        rnd = pkt.meta["round"]
        phase = pkt.meta["phase"]
        if phase == "gather":
            self._round_state(pkt.meta["member"], rnd).gather.fire()
        elif phase == "release":
            for i in self._members_on[nic]:
                self._round_state(i, rnd).release.fire()
        else:  # pragma: no cover - defensive
            nic.drop_packet(pkt, reason=f"hwbarrier: unknown phase {phase!r}")

    # -- host side ---------------------------------------------------------
    def barrier(self, thread, ctx: "Elan4Context", guard=None) -> Generator:
        """Coroutine (member's host thread): enter the barrier and block
        until the root's hardware-broadcast release.

        ``guard`` (a ``repro.ft`` communicator state) makes the release
        wait abortable: a member death or revoke raises out of the wait
        instead of sleeping forever on a release that can never arrive.
        """
        member = self._member_of.get(ctx.vpid)
        if member is None:
            raise HwBarrierError(f"vpid {ctx.vpid} is not a group member")
        rnd = self._host_round[member]
        self._host_round[member] += 1
        st = self._round_state(member, rnd)
        nic = ctx.nic
        # one doorbell arms the NIC; everything until the release trigger
        # runs on the event engines
        yield from nic.pci.pio_write()
        yield thread.sim.timeout(nic.config.nic_cmd_process_us)
        st.gather.fire()
        if guard is None:
            yield from st.release.host_wait(thread)
        else:
            yield from guard.block_on_word(thread, st.release.host_word)
        # the round is complete for this member: drop its event pair
        del self._rounds[(member, rnd)]
        if member == 0:
            self.barriers_completed += 1
        return None

    # -- receive plumbing --------------------------------------------------
    def install_receivers(self) -> None:
        """Register the per-NIC dispatch for gather tokens and releases."""
        for nic in self._members_on:
            handlers = nic._dispatch
            if "hwbarrier" not in handlers:
                handlers["hwbarrier"] = _make_node_handler(nic)
            nic.hwbarrier_groups[self.group_id] = self


def _make_node_handler(nic: "Elan4Nic"):
    def handle(pkt: Packet) -> None:
        group = nic.hwbarrier_groups.get(pkt.meta["group"])
        if group is None:
            nic.drop_packet(
                pkt, reason=f"hwbarrier for unknown group {pkt.meta['group']}"
            )
            return
        group._on_packet(nic, pkt)

    return handle


def make_group(
    members: Sequence["Elan4Context"], radix: int = 4
) -> HwBarrierGroup:
    """Create a group and install its receive plumbing in one call."""
    group = HwBarrierGroup(members, radix=radix)
    group.install_receivers()
    return group
