"""Elan hardware broadcast — and why dynamic joiners cannot use it (§4.1).

QsNet switches can replicate a packet to every leaf in hardware, which is
what makes Quadrics collectives fast ([32, 33]).  The catch the paper
documents: hardware broadcast "requires the availability of global virtual
address space", which only exists for "processes that initially join
parallel communication synchronously.  Processes that join (or rejoin)
later will not be able to utilize this global address space."

This module models both sides of that trade-off:

* :meth:`repro.elan4.capability.ElanCapability.seal_static_cohort` freezes
  the synchronously-joined set — the processes whose memory allocations
  were coordinated and can form a global virtual address space;
* :class:`HwBroadcastGroup` wires a broadcast destination queue at the
  *same logical address* in every member and refuses any member outside
  the static cohort;
* :meth:`HwBroadcastGroup.bcast` injects once; the fabric replicates to
  every member node in hardware — one injection-link serialisation instead
  of the software tree's ⌈log2 n⌉ sequential sends.

Payloads above one QSLOT are fragmented into successive hardware
broadcasts (in-order per pair, so reassembly is trivial).
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Sequence, TYPE_CHECKING

import numpy as np

from repro.elan4.network import Packet
from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.elan4.nic import Elan4Context

__all__ = ["HwBroadcastGroup", "HwBcastError", "HWBCAST_QID"]

#: the PTL reserves queues 0-1; hardware broadcast groups use 3 upward
HWBCAST_QID = 3

_group_ids = itertools.count(1)


class HwBcastError(Exception):
    """Late joiner in the group, or misuse of the broadcast engine."""


class HwBroadcastGroup:
    """A set of synchronously-joined contexts sharing a broadcast address."""

    def __init__(self, members: Sequence["Elan4Context"], queue_id: int = HWBCAST_QID):
        if not members:
            raise HwBcastError("empty broadcast group")
        fabric = members[0].nic.fabric
        capability = members[0].nic.capability
        for ctx in members:
            if ctx.nic.fabric is not fabric:
                raise HwBcastError("broadcast group must live on one rail")
            if not capability.in_static_cohort(ctx.vpid):
                raise HwBcastError(
                    f"vpid {ctx.vpid} joined dynamically: no global virtual "
                    "address space, hardware broadcast unavailable (§4.1)"
                )
        self.group_id = next(_group_ids)
        self.members = list(members)
        self.fabric = fabric
        self.queue_id = queue_id
        #: the queue each member receives broadcasts on — the "same global
        #: address" in every address space
        self.queues = {ctx.vpid: ctx.create_queue(queue_id) for ctx in members}
        self.broadcasts = 0

    def queue_of(self, ctx: "Elan4Context"):
        return self.queues[ctx.vpid]

    def bcast(self, thread, root: "Elan4Context", payload, seq: int = 0) -> Generator:
        """Coroutine (root's host thread): hardware-broadcast ``payload`` to
        every member (including the root's own queue).

        ``seq`` is an opaque round number carried in every fragment's meta;
        receivers draining a shared queue use it to separate fragments of
        consecutive broadcasts (different roots may interleave in flight).
        """
        if root.vpid not in self.queues:
            raise HwBcastError(f"root vpid {root.vpid} is not a group member")
        data = np.frombuffer(payload, dtype=np.uint8) if isinstance(
            payload, (bytes, bytearray)
        ) else np.asarray(payload, dtype=np.uint8).ravel()
        self.broadcasts += 1
        cfg = root.config
        nic = root.nic
        slot = cfg.qslot_bytes
        dst_nodes = sorted({ctx.nic.node_id for ctx in self.members})
        total = max(data.nbytes, 1)
        for offset in range(0, total, slot):
            frag = data[offset : offset + slot]
            # host: one command; NIC: one payload fetch; wire: one injection
            yield from nic.pci.pio_write()
            yield thread.sim.timeout(cfg.nic_cmd_process_us)
            pkt = Packet(
                src_node=nic.node_id,
                dst_node=-1,  # filled per destination by the fabric
                nbytes=frag.nbytes,
                kind="hwbcast",
                meta={
                    "group": self.group_id,
                    "queue_id": self.queue_id,
                    "src_vpid": root.vpid,
                    "offset": offset,
                    "total": data.nbytes,
                    "seq": seq,
                },
                data=frag.copy(),
            )
            # the NIC does the rest; the host thread resumes in the kernel
            # event that puts the fragment on the wire
            injected = SimEvent(thread.sim, name=f"hwbcast:g{self.group_id}")
            if frag.nbytes:
                nic.stream_dma(frag.nbytes, self.fabric.broadcast,
                               pkt, dst_nodes, injected.succeed_now)
            else:
                self.fabric.broadcast(pkt, dst_nodes, injected.succeed_now)
            yield injected

    # -- receive plumbing -------------------------------------------------
    def install_receivers(self) -> None:
        """Register the per-NIC dispatch: a broadcast packet lands in every
        member queue on the receiving node."""
        by_node: Dict[int, List["Elan4Context"]] = {}
        for ctx in self.members:
            by_node.setdefault(ctx.nic.node_id, []).append(ctx)
        for node_id, ctxs in by_node.items():
            nic = ctxs[0].nic
            handlers = nic._dispatch
            if "hwbcast" not in handlers:
                handlers["hwbcast"] = _make_node_handler(nic)
            nic.hwbcast_groups.setdefault(self.group_id, []).extend(ctxs)


def _make_node_handler(nic):
    def handle(pkt: Packet) -> None:
        ctxs = nic.hwbcast_groups.get(pkt.meta["group"], [])
        if not ctxs:
            nic.drop_packet(pkt, reason=f"hwbcast for unknown group {pkt.meta['group']}")
            return
        for ctx in ctxs:
            # reuse the QDMA delivery machinery: one QSLOT landing per member
            nic.qdma.handle_packet(
                Packet(
                    src_node=pkt.src_node,
                    dst_node=nic.node_id,
                    nbytes=pkt.nbytes,
                    kind="qdma",
                    meta={
                        "src_vpid": pkt.meta["src_vpid"],
                        "dst_ctx": ctx.ctx,
                        "queue_id": pkt.meta["queue_id"],
                        "offset": pkt.meta["offset"],
                        "total": pkt.meta["total"],
                        "seq": pkt.meta.get("seq", 0),
                    },
                    data=pkt.data,
                )
            )

    return handle


def make_group(members: Sequence["Elan4Context"], queue_id: int = HWBCAST_QID) -> HwBroadcastGroup:
    """Create a group and install its receive plumbing in one call."""
    group = HwBroadcastGroup(members, queue_id=queue_id)
    group.install_receivers()
    return group
