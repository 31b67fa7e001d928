"""Golden fingerprints of the IB data path: links, requester, go-back-N.

The IB HCA's per-packet engines (the link serialiser, the per-QP requester
and go-back-N) are plain callbacks (DESIGN.md §6, "Callback-form engines"),
and must put every packet on every link at the same instant and in the same
same-instant order as the coroutines they replaced.  ``GOLDEN`` was captured
on the last coroutine-engine commit.  Per scenario it holds:

* the sha256 of the CQE sequence, as ``(time, qpn, kind, wr_id, imm,
  nbytes)`` per completion, in push order;
* the sha256 of the wire: every packet every link delivered, as ``(time,
  link, kind, src, qpn, psn)``, in delivery order;
* the sha256 of the counters: per QP ``packets_tx`` / ``retransmitted`` /
  ``cnps_rx`` / ``rate``, ``IbFabric.stats()``, every ``IbNic.stats()`` and
  ``nic.pci.stats()``;
* the final clock and the number of CQEs.

A change that moves one of them has moved the model.  Each scenario also
asserts the mechanism it exists for (pause, drop, NAK, timer, failure)
actually fired, and that every payload arrived byte-exact.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.config import default_config
from repro.ib.options import IbOptions
from repro.ib.verbs import WorkRequest

LOSSLESS = IbOptions(mode="ib")
ROCE_PFC_ECN = IbOptions(mode="roce", pfc=True, ecn=True)
ROCE_SMALL_QUEUE = IbOptions(mode="roce", pfc=False, ecn=False, queue_depth_pkts=8,
                             pfc_xoff_pkts=6, pfc_xon_pkts=2)


def _sha(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


class _Rig:
    """``senders`` HCAs, each with one RC QP into its own QP on node 0, and
    a log of every CQE pushed anywhere."""

    def __init__(self, senders, options, config=None):
        self.cluster = Cluster(nodes=senders + 1, ib_rail=True, ib_options=options,
                               config=config)
        self.sim = self.cluster.sim
        self.nics = self.cluster.ib_nics[0]
        self.fabric = self.cluster.ib_fabrics[0]
        self.cqes = []
        self.errors = []
        rx = self.nics[0]
        rx_cq = self._cq(rx)
        self.space = self.cluster.nodes[0].new_address_space("golden")
        self.pairs = []  # (tx nic, tx qp, rx qp)
        for node in range(1, senders + 1):
            nic = self.nics[node]
            qp, peer = nic.create_qp(self._cq(nic)), rx.create_qp(rx_cq)
            qp.connect(0, peer.qpn)
            peer.connect(node, qp.qpn)
            qp.on_error = lambda qp, reason: self.errors.append(
                (self.sim.now, qp.qpn, reason))
            self.pairs.append((nic, qp, peer))
        self.targets = []  # (MR buffer, expected bytes)
        self.wire = []
        for link in [nic.tx_link for nic in self.nics] + [
                port for sw in self.fabric.switches for port in sw.ports.values()]:
            link.deliver = self._logged_deliver(link.name, link.deliver)

    def _logged_deliver(self, name, deliver):
        def logged(pkt):
            self.wire.append((self.sim.now, name, pkt.kind, pkt.src_node, pkt.qpn,
                              pkt.meta.get("psn", pkt.psn)))
            deliver(pkt)

        return logged

    def _cq(self, nic):
        cq = nic.create_cq()
        push = cq.push

        def logged(cqe):
            self.cqes.append((self.sim.now, cqe.qpn, cqe.kind, cqe.wr_id,
                              repr(cqe.imm), cqe.nbytes))
            push(cqe)

        cq.push = logged
        return cq

    def post(self, i, wr_id, opcode, nbytes, with_data=True, imm=None):
        """Post on sender ``i``: a seeded payload, a fresh MR for writes."""
        nic, qp, _ = self.pairs[i]
        data = None
        if with_data:
            data = np.random.default_rng(wr_id).integers(0, 256, nbytes, dtype=np.uint8)
        wqe = WorkRequest(wr_id=wr_id, opcode=opcode, nbytes=nbytes, data=data, imm=imm,
                          meta={"wr": wr_id})
        if opcode == "write":
            buf = self.space.alloc(nbytes)
            wqe.rkey = self.nics[0].reg_mr(buf).rkey
            self.targets.append((buf, data))
        nic.post_send(qp, wqe)

    def post_at(self, t, *args, **kwargs):
        self.sim.schedule_at(t, lambda: self.post(*args, **kwargs))

    def mixed_batch(self, i, base):
        """Eager send, an RDMA write with imm, a zero-byte send, and a write
        longer than the 64-packet window (the requester blocks on it)."""
        self.post(i, base + 1, "send", 5000)
        self.post(i, base + 2, "write", 96 * 1024, imm=("w", base + 2))
        self.post(i, base + 3, "send", 0, with_data=False)
        self.post(i, base + 4, "write", 160 * 1024, imm=("w", base + 4))

    def fingerprint(self):
        counters = []
        for nic, qp, peer in self.pairs:
            for q in (qp, peer):
                counters.append((q.qpn, q.packets_tx, q.retransmitted, q.cnps_rx,
                                 float(q.rate)))
        counters.append(sorted(self.fabric.stats().items()))
        for nic in self.nics:
            counters.append(sorted(nic.stats().items()))
            counters.append(sorted(nic.pci.stats().items()))
        return (_sha(self.cqes), _sha(self.wire), _sha(counters), round(self.sim.now, 6),
                len(self.cqes))

    def assert_payloads(self):
        for buf, data in self.targets:
            assert np.array_equal(buf.read(), data)


def _incast(options, config=None):
    rig = _Rig(4, options, config)
    for i in range(4):
        rig.mixed_batch(i, 100 * i)
    # a second batch after every requester has gone idle: the doorbell kick
    for i in range(4):
        rig.post_at(3000.0 + 7.0 * i, i, 100 * i + 50, "send", 3000)
    rig.sim.run()
    return rig


def lossless_incast():
    rig = _incast(LOSSLESS)
    assert rig.fabric.stats()["drops"] == 0
    assert rig.fabric.stats()["max_queue_depth"] > 8
    return rig


def roce_pfc_ecn_incast():
    rig = _incast(ROCE_PFC_ECN)
    stats = rig.fabric.stats()
    assert stats["drops"] == 0 and stats["pauses_sent"] > 0 and stats["pause_us"] > 0
    assert stats["ecn_marks"] > 0
    assert all(qp.cnps_rx > 0 for _, qp, _ in rig.pairs)  # every sender was cut
    return rig


def roce_drops_go_back_n():
    rig = _incast(ROCE_SMALL_QUEUE)
    assert rig.fabric.stats()["drops"] > 0
    assert rig.nics[0].stats()["naks_tx"] > 0
    assert sum(qp.retransmitted for _, qp, _ in rig.pairs) > 0
    return rig


def port_down_mid_wqe():
    """The sender's port dies mid-way through a 64-packet write (its payload
    DMA alone takes ~140 us) and comes back after the last packet was
    emitted: no later packet reveals the gap, so only the retransmit timer
    recovers it."""
    rig = _Rig(1, LOSSLESS)
    nic, qp, _ = rig.pairs[0]
    rig.post(0, 1, "write", 128 * 1024, imm=("w", 1))
    rig.post_at(1500.0, 0, 2, "send", 9000)  # after the timer recovered
    rig.sim.schedule_at(170.0, nic.set_port_down, True)
    rig.sim.schedule_at(300.0, nic.set_port_down, False)
    rig.sim.run()
    assert nic.tx_link.drops > 0
    assert qp.retransmitted > 0 and rig.nics[0].stats()["naks_tx"] == 0
    return rig


def retry_limit_while_window_blocked():
    """The receiver is dead from the start: the requester fills its window,
    blocks, and the retry limit fails the QP under it with a second WQE
    still queued.  Nothing may stay scheduled afterwards."""
    rig = _Rig(1, LOSSLESS, default_config().variant(ib_max_retries=2))
    nic, qp, _ = rig.pairs[0]
    rig.nics[0].set_port_down(True)
    rig.post(0, 1, "write", 200 * 1024, imm=("w", 1))
    rig.post(0, 2, "send", 3000)
    rig.sim.run()
    assert rig.sim.peek() is None  # drained: no timer, no parked wake-up
    assert qp.state == "error" and not qp.unacked and not qp.send_queue
    assert [e[2].startswith("retry limit") for e in rig.errors] == [True]
    assert qp.retransmitted > 0
    rig.targets.clear()  # nothing landed
    return rig


def pfc_storm():
    rig = _Rig(4, ROCE_PFC_ECN)
    for i in range(4):
        rig.mixed_batch(i, 100 * i)
    sw = rig.fabric.switches[0]
    rig.sim.schedule_at(40.0, sw.force_pause, 150.0)
    rig.sim.schedule_at(120.0, sw.force_pause, 150.0)  # overlapping: extends
    rig.sim.run()
    assert rig.fabric.stats()["pause_us"] >= 4 * 230.0
    return rig


SCENARIOS = {f.__name__: f for f in (
    lossless_incast, roce_pfc_ecn_incast, roce_drops_go_back_n, port_down_mid_wqe,
    retry_limit_while_window_blocked, pfc_storm)}

#: scenario -> sha256[:16] of (CQEs, wire, counters), final sim.now, CQE count
GOLDEN = {
    "lossless_incast": (
        "ba0740a002f3c69f", "3cf6dfd31000dc08", "94677a4263cacbd8", 3424.98, 40),
    "pfc_storm": (
        "6d1f3d79641e9002", "11b28805827986af", "d0fc7fea2e59b6e1", 1737.6548, 32),
    "port_down_mid_wqe": (
        "c20892d22752eb75", "d95db311bfa99ec0", "90d77ed7c06c8005", 1910.34, 4),
    "retry_limit_while_window_blocked": (
        "4f53cda18c2baa0c", "3ceda24c279411e5", "ed71eab2343b84c1", 1417.888, 0),
    "roce_drops_go_back_n": (
        "c550baaa790ecef3", "83b2ee290195b2ba", "258fdcfacf29939d", 6806.1, 40),
    "roce_pfc_ecn_incast": (
        "2884b76d9a618ed5", "eb6ad2c3976c96b3", "2adc6553000e3e60", 3424.98, 40),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_ib_datapath_matches_coroutine_engine_golden(name):
    rig = SCENARIOS[name]()
    rig.assert_payloads()
    assert rig.fingerprint() == GOLDEN[name]
