"""Machine and stack configuration.

All timing constants of the reproduction live in one dataclass so that every
figure regeneration states its assumptions explicitly and ablations can vary
a single knob.  The defaults model the paper's testbed:

* 8 SuperMicro X5DL8-GG nodes, dual Intel Xeon 3.0 GHz, 512 KB L2,
  PC2100 DDR-SDRAM;
* PCI-X 64-bit/133 MHz I/O bus (~1064 MB/s peak);
* QsNetII: Elan4 QM-500 NICs, one QS-8A quaternary fat-tree switch
  (~1.3 GB/s per link direction, ~900 MB/s realisable end-to-end).

The constants are calibrated against the paper's own measurements (see
EXPERIMENTS.md): native QDMA 0-byte ping-pong latency ≈ 3 µs, RDMA-read
4 B = 3.87 µs and 4 KB = 15.25 µs (Table 1, "Basic"), interrupt cost ≈ 10 µs
and total threading overhead ≈ 18 µs (§6.4), PML-layer cost ≈ 0.5 µs (§6.3),
datatype-engine overhead ≈ 0.4 µs (§6.1), peak bandwidth ≈ 900 MB/s
(Fig. 10d).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["MachineConfig", "default_config"]

#: the Open MPI fragment header size (mirrors repro.core.header.HEADER_BYTES,
#: which config cannot import without inverting the layering lattice)
HEADER_BYTES_IB_MIN = 64


@dataclass
class MachineConfig:
    """Every tunable of the simulated testbed.  Times in µs, sizes in bytes."""

    # ------------------------------------------------------------------
    # Host CPUs (dual 3.0 GHz Xeon)
    # ------------------------------------------------------------------
    cpus_per_node: int = 2
    #: cost of dispatching a ready thread onto an idle CPU
    context_switch_us: float = 1.2
    #: cost of making a blocked thread runnable (scheduler bookkeeping)
    thread_wakeup_us: float = 1.8
    #: extra wakeup cost per *other* frequently-waking (progress) thread on
    #: the node: run-queue and cache pollution with default interrupt and
    #: processor affinity (§6.4 leaves both "at their default"), the reason
    #: two-thread progress trails one-thread in Table 1
    sched_load_us: float = 2.0
    #: condition-variable signal cost paid by the signalling thread
    condvar_signal_us: float = 0.4
    #: mutex acquire/release cost (uncontended)
    lock_us: float = 0.08
    #: one check of an 8-byte host event word when polling
    poll_check_us: float = 0.06
    #: hardware interrupt delivery + kernel handler + schedule-in
    interrupt_us: float = 10.0
    #: after a progress thread handles a wakeup it polls this long before
    #: re-blocking — but only while local operations are outstanding — so
    #: a rendezvous arrival followed by its RDMA completion costs one
    #: interrupt, not two (long enough to cover a 4 KB read round trip)
    progress_spin_us: float = 20.0

    # ------------------------------------------------------------------
    # Host memory (PC2100 DDR)
    # ------------------------------------------------------------------
    #: fixed cost of starting a host memcpy
    memcpy_setup_us: float = 0.05
    #: per-byte host copy cost (~1.6 GB/s effective copy bandwidth)
    memcpy_us_per_byte: float = 0.000625

    # ------------------------------------------------------------------
    # PCI-X 64/133 I/O bus
    # ------------------------------------------------------------------
    #: one programmed-IO write crossing the bus (doorbell / command word)
    pio_write_us: float = 0.30
    #: fixed cost for the NIC to start a bus-master DMA burst
    pci_dma_setup_us: float = 0.20
    #: per-byte DMA cost across PCI-X (theoretical 1064 MB/s, derated for
    #: arbitration/turnaround to land near the testbed's ~900 MB/s peak)
    pci_us_per_byte: float = 0.00106

    # ------------------------------------------------------------------
    # Elan4 NIC
    # ------------------------------------------------------------------
    #: NIC command-queue slot processing (fetch + decode a command)
    nic_cmd_process_us: float = 0.60
    #: starting one DMA descriptor on the NIC DMA engine
    nic_dma_issue_us: float = 0.25
    #: firing an Elan event (event-engine operation)
    nic_event_us: float = 0.08
    #: triggering a chained operation from the event engine
    nic_chain_us: float = 0.12
    #: NIC-side Tport tag match against the posted-receive table
    nic_match_us: float = 0.30
    #: writing a QDMA arrival into a host queue slot (event + head update),
    #: excluding the per-byte payload DMA cost
    nic_deliver_us: float = 0.70
    #: number of concurrently active DMA descriptors per NIC
    nic_dma_engines: int = 2
    #: cut-through flit size for QDMA/Tport payload movement; 0 = full
    #: store-and-forward at message granularity.  The paper's own curves
    #: (QDMA ≈ 6–7 µs at 1984 B in Fig. 9; MPICH slope in Fig. 10a) imply
    #: ~2.6 ns/B — i.e. *no* cut-through on this PCI-X testbed — so the
    #: default is 0; a nonzero flit is the "what-if" ablation bench.
    nic_cutthrough_flit: int = 0
    #: Tport rendezvous pipelining fragment size (MPICH-QsNetII baseline)
    tport_frag_bytes: int = 16384

    # ------------------------------------------------------------------
    # QsNetII network (Elite-4 switches, quaternary fat tree)
    # ------------------------------------------------------------------
    #: per-byte wire cost (~1.3 GB/s per link direction)
    link_us_per_byte: float = 0.00075
    #: per-switch-hop routing latency
    switch_hop_us: float = 0.035
    #: cable propagation per hop
    wire_prop_us: float = 0.015
    #: radix of the Elite-4 switch (quaternary fat tree)
    switch_radix: int = 8  # 8 links: 4 down, 4 up per Elite4 stage

    # ------------------------------------------------------------------
    # QDMA / queue geometry
    # ------------------------------------------------------------------
    #: queue slot size: QDMA messages are limited to 2 KB (paper §3.1)
    qslot_bytes: int = 2048
    #: number of preallocated receive-queue slots per queue
    qslots_per_queue: int = 128
    #: number of preallocated 2 KB send buffers in PTL/Elan4 (§5)
    ptl_send_buffers: int = 64

    # ------------------------------------------------------------------
    # TCP/IP substrate (for PTL/TCP and the RTE OOB channel)
    # ------------------------------------------------------------------
    #: per-send/recv syscall + protocol overhead through the OS
    tcp_syscall_us: float = 8.0
    #: per-byte cost of kernel data copies (user<->kernel, checksum)
    tcp_copy_us_per_byte: float = 0.0028
    #: per-byte cost on the (gigabit-ish IP-over-QsNet emulation) wire
    tcp_wire_us_per_byte: float = 0.008
    #: fixed one-way network latency of the IP path
    tcp_wire_us: float = 28.0
    #: poll/select call overhead over N descriptors
    tcp_poll_us: float = 1.5
    #: TCP maximum segment size for the simulated stack
    tcp_mss: int = 8960

    # ------------------------------------------------------------------
    # InfiniBand-style rail (repro.ib): a 4X DDR-class RC HCA behind its
    # own PCI segment, plus the RoCE-mode switch constants.  Calibrated
    # to the MPICH2-over-InfiniBand numbers: ~4-6 µs small-message
    # latency, ~1.5 GB/s unidirectional peak
    # ------------------------------------------------------------------
    #: path MTU: payload bytes per packet (RoCE MTUs are 1024/2048/4096)
    ib_mtu_bytes: int = 2048
    #: per-byte link serialisation (~1.25 GB/s per direction)
    ib_link_us_per_byte: float = 0.0008
    #: switch forwarding latency per hop
    ib_switch_hop_us: float = 0.2
    #: cable propagation per hop
    ib_wire_prop_us: float = 0.05
    #: host ports per IB leaf switch (single switch up to this count)
    ib_switch_radix: int = 24
    #: transport headers per packet (BTH + routing; RoCEv2 adds UDP/IP)
    ib_header_bytes: int = 40
    #: wire footprint of an ACK/NAK/CNP/credit control packet
    ib_ack_bytes: int = 16
    #: HCA work-request fetch + doorbell processing per WQE
    ib_nic_wqe_us: float = 0.6
    #: HCA receive-side processing + CQE generation per delivery
    ib_nic_deliver_us: float = 0.5
    #: memory-registration base cost (ibv_reg_mr pinning + key setup)
    ib_reg_mr_us: float = 4.0
    #: memory-registration per-KB page-pinning cost
    ib_reg_mr_us_per_kb: float = 0.05
    #: QP connection setup charged once per peer at wire-up
    ib_qp_connect_us: float = 12.0
    #: persistent pre-registered RDMA fast-path ring: slots per peer
    ib_fastpath_slots: int = 16
    #: fast-path slot size (header + payload, like a QSLOT)
    ib_fastpath_bytes: int = 2048
    #: max unacked packets in flight per QP before the sender stalls
    ib_window_pkts: int = 64
    #: receiver coalesces ACKs: one per this many packets (+ last-of-WQE)
    ib_ack_every: int = 4
    #: go-back-N retransmission timeout per QP
    ib_retransmit_us: float = 400.0
    #: consecutive timeout retries before the QP enters the error state
    ib_max_retries: int = 8

    # ------------------------------------------------------------------
    # Open MPI communication stack
    # ------------------------------------------------------------------
    #: Open MPI match header (the paper: 64 bytes)
    openmpi_header_bytes: int = 64
    #: MPICH-QsNetII header (the paper: 32 bytes)
    mpich_header_bytes: int = 32
    #: PML request setup + scheduling heuristic on the send side
    pml_sched_us: float = 0.25
    #: PML matching a fragment against the posted-receive list
    pml_match_us: float = 0.25
    #: datatype-engine (DTP) convertor-initialisation cost per pack/unpack
    #: invocation; an eager ping-pong leg packs once and unpacks once, so
    #: the one-way overhead is 2×this ≈ the paper's 0.4 µs (§6.1)
    dtp_start_us: float = 0.20
    #: eager/rendezvous threshold: first-fragment capacity (paper: 1984 B =
    #: 2048-byte QSLOT minus the 64-byte header)
    rndv_threshold: int = 1984
    #: default first-fragment inline policy (paper evaluates both)
    rndv_inline_data: bool = False
    #: rendezvous RDMA completion watchdog: base timeout before a stalled
    #: read is cancelled and re-issued (0 disables the watchdog)
    rdma_timeout_us: float = 1000.0
    #: per-byte slack added to the watchdog (~10× the per-byte wire+PCI
    #: cost, so healthy large pulls never false-trigger)
    rdma_timeout_us_per_byte: float = 0.01
    #: host re-issues of one rendezvous RDMA before giving up on it
    rdma_max_retries: int = 4

    # ------------------------------------------------------------------
    # Collective framework (repro.coll)
    # ------------------------------------------------------------------
    #: allow NIC-offloaded collectives (hw broadcast / hw barrier) for the
    #: static cohort; the framework still degrades to software algorithms
    #: per-call when a rail/switch is faulty (REPRO_COLL_HW=0 also disables)
    coll_hw_enabled: bool = True
    #: path to a decision-table JSON; "" = the committed default table
    coll_decision_table: str = ""
    #: comma-separated forced algorithm picks, e.g. "bcast=chain,barrier=hw-tree"
    #: (the REPRO_COLL_<OP> environment variables take precedence)
    coll_overrides: str = ""
    #: pipelined-chain broadcast segment size
    coll_segment_bytes: int = 8192
    #: radix of the NIC-offloaded barrier's gather tree (Yu et al. use 4)
    coll_hwbarrier_radix: int = 4

    # ------------------------------------------------------------------
    # derived helpers
    # ------------------------------------------------------------------
    def memcpy_us(self, nbytes: int) -> float:
        """Host memcpy cost for ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return self.memcpy_setup_us + nbytes * self.memcpy_us_per_byte

    def pci_dma_us(self, nbytes: int) -> float:
        """One bus-master DMA burst of ``nbytes`` across PCI-X."""
        return self.pci_dma_setup_us + nbytes * self.pci_us_per_byte

    def wire_us(self, nbytes: int, hops: int = 1) -> float:
        """Serialisation + routing across ``hops`` switch stages."""
        return (
            nbytes * self.link_us_per_byte
            + hops * (self.switch_hop_us + self.wire_prop_us)
        )

    def eager_max_payload(self, header_bytes: Optional[int] = None) -> int:
        """Largest payload that fits a QSLOT alongside a header."""
        hdr = self.openmpi_header_bytes if header_bytes is None else header_bytes
        return self.qslot_bytes - hdr

    def variant(self, **overrides) -> "MachineConfig":
        """A copy of the config with the given fields replaced."""
        return replace(self, **overrides)

    def validate(self) -> None:
        """Sanity-check invariant relationships between constants."""
        if self.rndv_threshold > self.eager_max_payload():
            raise ValueError(
                "rendezvous threshold exceeds what a QSLOT can carry: "
                f"{self.rndv_threshold} > {self.eager_max_payload()}"
            )
        if self.qslot_bytes < self.openmpi_header_bytes:
            raise ValueError("QSLOT smaller than the Open MPI header")
        if self.cpus_per_node < 1:
            raise ValueError("need at least one CPU per node")
        if self.coll_segment_bytes < 1:
            raise ValueError("coll_segment_bytes must be positive")
        if self.coll_hwbarrier_radix < 2:
            raise ValueError("coll_hwbarrier_radix must be at least 2")
        if self.ib_fastpath_bytes < self.ib_header_bytes + HEADER_BYTES_IB_MIN:
            raise ValueError("ib_fastpath_bytes cannot carry a fragment header")
        if self.ib_mtu_bytes < 256:
            raise ValueError("ib_mtu_bytes below the IB minimum MTU")
        if self.ib_window_pkts < 1:
            raise ValueError("ib_window_pkts must be positive")


def default_config() -> MachineConfig:
    """The calibrated paper-testbed configuration."""
    cfg = MachineConfig()
    cfg.validate()
    return cfg
