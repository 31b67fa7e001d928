"""Tests for the PCI-X bus model and the Node wrapper."""

import numpy as np
import pytest

from repro.config import default_config
from repro.hw.node import Node
from repro.hw.pci import BURST_BYTES, PciBus
from repro.sim import Simulator


def make_bus(**over):
    sim = Simulator()
    cfg = default_config().variant(**over)
    return sim, cfg, PciBus(sim, cfg)


def run_gen(sim, gen):
    sim.spawn(gen)
    sim.run()


def run_dma(sim, bus, nbytes):
    bus.dma(nbytes, lambda: None)
    sim.run()


def coroutine_dma(bus, nbytes):
    """Reference: the all-coroutine cost model the callback DMA replaced —
    request, timeout, release per arbitration burst, on the same bus."""
    remaining = max(0, int(nbytes))
    bus.bytes_moved += remaining
    setup = bus._setup_us
    while True:
        chunk = min(remaining, BURST_BYTES)
        yield bus._bus.request()
        yield bus.sim.timeout(chunk * bus._us_per_byte + setup)
        bus._bus.release()
        remaining -= chunk
        setup = 0.0
        if remaining <= 0:
            return


def test_pio_write_cost():
    sim, cfg, bus = make_bus()
    run_gen(sim, bus.pio_write())
    assert sim.now == pytest.approx(cfg.pio_write_us)
    assert bus.pio_count == 1


def test_dma_cost_scales_with_bytes():
    sim, cfg, bus = make_bus()
    run_dma(sim, bus, 1000)
    expected = cfg.pci_dma_setup_us + 1000 * cfg.pci_us_per_byte
    assert sim.now == pytest.approx(expected)
    assert bus.bytes_moved == 1000


def test_zero_byte_dma_still_arbitrates():
    sim, cfg, bus = make_bus()
    run_dma(sim, bus, 0)
    assert sim.now == pytest.approx(cfg.pci_dma_setup_us)


def test_large_dma_split_into_bursts():
    sim, cfg, bus = make_bus()
    n = BURST_BYTES * 3 + 100
    run_dma(sim, bus, n)
    expected = cfg.pci_dma_setup_us + n * cfg.pci_us_per_byte
    assert sim.now == pytest.approx(expected)


@pytest.mark.parametrize("n", [0, 1, BURST_BYTES, BURST_BYTES + 1, BURST_BYTES * 3 + 100])
def test_dma_then_costs_exactly_what_the_coroutine_dma_costs(n):
    """The callback DMA the NIC engines use: same bursts as the coroutine
    reference, same cost to the bit, and it interleaves burst by burst
    with a coroutine on the bus."""
    ends = {}
    for form in ("coroutine", "callback"):
        sim, cfg, bus = make_bus()

        def rival():
            yield from coroutine_dma(bus, BURST_BYTES * 2)
            ends[form, "rival"] = sim.now

        def coroutine():
            yield from coroutine_dma(bus, n)
            ends[form, "dma"] = sim.now

        sim.spawn(rival())
        if form == "coroutine":
            sim.spawn(coroutine())
        else:
            # a spawned coroutine asks for the bus one kernel hop later
            def done():
                ends[form, "dma"] = sim.now

            sim.schedule_pooled(0.0, bus.dma, (n, done))
        sim.run()
        ends[form, "bytes"] = bus.bytes_moved
    for key in ("rival", "dma", "bytes"):
        assert ends["coroutine", key] == ends["callback", key]


def test_bus_serializes_concurrent_dmas():
    sim, cfg, bus = make_bus()
    finish = {}
    bus.dma(1000, lambda: finish.setdefault("a", sim.now))
    bus.dma(1000, lambda: finish.setdefault("b", sim.now))
    sim.run()
    one = cfg.pci_dma_setup_us + 1000 * cfg.pci_us_per_byte
    assert finish["a"] == pytest.approx(one)
    assert finish["b"] == pytest.approx(2 * one)


def test_concurrent_large_dmas_interleave_bursts():
    """A small DMA queued behind a huge one must not wait for all of it."""
    sim, cfg, bus = make_bus()
    finish = {}
    bus.dma(1 << 20, lambda: finish.setdefault("big", sim.now))
    bus.dma(64, lambda: finish.setdefault("small", sim.now))
    sim.run()
    big_alone = cfg.pci_dma_setup_us + (1 << 20) * cfg.pci_us_per_byte
    assert finish["small"] < big_alone * 0.05  # got in after one burst


def test_node_interrupt_sets_word_after_latency():
    sim = Simulator()
    cfg = default_config()
    node = Node(sim, cfg, 0)
    from repro.hw.cpu import HostWordEvent

    word = HostWordEvent(sim)
    node.raise_interrupt(word, value="irq")
    assert not word.poll()
    sim.run()
    assert sim.now == pytest.approx(cfg.interrupt_us)
    assert word.poll() and word.value == "irq"
    assert node.interrupts_delivered == 1


def test_node_memcpy_moves_bytes_and_charges_cpu():
    sim = Simulator()
    cfg = default_config()
    node = Node(sim, cfg, 0)
    space = node.new_address_space("p")
    src = space.alloc(256)
    dst = space.alloc(256)
    src.write(np.arange(256, dtype=np.uint8))
    times = []

    def body(t):
        start = sim.now
        yield from node.memcpy(t, dst, src)
        times.append(sim.now - start)

    node.spawn_thread(body)
    sim.run()
    assert np.array_equal(dst.read(), src.read())
    assert times[0] == pytest.approx(cfg.memcpy_us(256))


def test_node_address_spaces_are_named_per_node():
    sim = Simulator()
    cfg = default_config()
    n0 = Node(sim, cfg, 0)
    n3 = Node(sim, cfg, 3)
    assert "n0" in n0.new_address_space("x").name
    assert "n3" in n3.new_address_space("x").name


def test_config_validation():
    cfg = default_config()
    cfg.validate()
    bad = cfg.variant(rndv_threshold=4096)
    with pytest.raises(ValueError):
        bad.validate()
    with pytest.raises(ValueError):
        cfg.variant(cpus_per_node=0).validate()


def test_config_helpers():
    cfg = default_config()
    assert cfg.eager_max_payload() == cfg.qslot_bytes - cfg.openmpi_header_bytes
    assert cfg.eager_max_payload(32) == cfg.qslot_bytes - 32
    assert cfg.memcpy_us(0) == 0.0
    assert cfg.memcpy_us(1000) > cfg.memcpy_us(10)
    assert cfg.wire_us(0, hops=2) == pytest.approx(
        2 * (cfg.switch_hop_us + cfg.wire_prop_us)
    )
    v = cfg.variant(interrupt_us=99.0)
    assert v.interrupt_us == 99.0 and cfg.interrupt_us != 99.0
