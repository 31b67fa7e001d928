"""Unit + property tests for the memory model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.memory import AddressSpace, Buffer, MemoryError_


def test_alloc_and_rw_roundtrip():
    space = AddressSpace("p0")
    buf = space.alloc(100)
    data = np.arange(100, dtype=np.uint8)
    buf.write(data)
    assert np.array_equal(buf.read(), data)


def test_buffers_start_zeroed():
    space = AddressSpace("p0")
    buf = space.alloc(64)
    assert not buf.read().any()


def test_view_is_mutable_alias():
    space = AddressSpace("p0")
    buf = space.alloc(16)
    buf.view()[:] = 7
    assert (buf.read() == 7).all()


def test_offset_read_write():
    space = AddressSpace("p0")
    buf = space.alloc(32)
    buf.write(np.full(8, 5, dtype=np.uint8), offset=10)
    assert (buf.read(offset=10, nbytes=8) == 5).all()
    assert buf.read(offset=0, nbytes=10).sum() == 0


def test_sub_buffer_aliases_parent():
    space = AddressSpace("p0")
    buf = space.alloc(64)
    sub = buf.sub(16, 8)
    sub.fill(9)
    assert (buf.read(offset=16, nbytes=8) == 9).all()


def test_sub_buffer_bounds_checked():
    space = AddressSpace("p0")
    buf = space.alloc(64)
    with pytest.raises(MemoryError_):
        buf.sub(60, 8)
    with pytest.raises(MemoryError_):
        buf.sub(-1, 4)


def test_unmapped_access_traps():
    space = AddressSpace("p0")
    space.alloc(16)
    with pytest.raises(MemoryError_):
        space.read(0x1, 4)


def test_guard_between_regions():
    space = AddressSpace("p0")
    a = space.alloc(4096)
    b = space.alloc(4096)
    # reading across the end of region a must trap, never bleed into b
    with pytest.raises(MemoryError_):
        space.read(a.addr + 4090, 16)
    assert space.is_mapped(b.addr, 4096)


def test_free_unmaps():
    space = AddressSpace("p0")
    buf = space.alloc(128)
    space.free(buf)
    assert not space.is_mapped(buf.addr)
    with pytest.raises(MemoryError_):
        space.read(buf.addr, 1)


def test_use_after_free_traps_and_neighbour_survives():
    space = AddressSpace("p0")
    a = space.alloc(64)
    b = space.alloc(64)
    a.fill(3)
    b.fill(4)
    assert (b.read() == 4).all()  # last hit is b
    space.free(b)
    for access in (b.read, lambda: b.write(np.ones(1, np.uint8)), b.view):
        with pytest.raises(MemoryError_):
            access()
    assert (a.read() == 3).all()  # last hit is a
    c = space.alloc(64)
    space.free(c)
    assert (a.read() == 3).all()
    with pytest.raises(MemoryError_):
        c.read()


def test_buffer_access_bounded_by_handle_not_page():
    space = AddressSpace("p0")
    buf = space.alloc(100)
    with pytest.raises(MemoryError_):
        buf.write(np.zeros(101, np.uint8))
    with pytest.raises(MemoryError_):
        buf.read(offset=96, nbytes=8)
    with pytest.raises(MemoryError_):
        buf.view(offset=-1, nbytes=1)
    assert buf.view(offset=100).nbytes == 0


def test_free_non_region_address_rejected():
    space = AddressSpace("p0")
    buf = space.alloc(128)
    bogus = Buffer(space, buf.addr + 8, 8)
    with pytest.raises(MemoryError_):
        space.free(bogus)


def test_alloc_zero_rejected():
    space = AddressSpace("p0")
    with pytest.raises(MemoryError_):
        space.alloc(0)


def test_spaces_are_isolated():
    a = AddressSpace("a")
    b = AddressSpace("b")
    buf_a = a.alloc(16)
    buf_b = b.alloc(16)
    buf_a.fill(1)
    assert not buf_b.read().any()


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10000), min_size=1, max_size=8),
    data=st.data(),
)
def test_property_writes_never_alias_other_buffers(sizes, data):
    """Writing any buffer never perturbs the contents of any other."""
    space = AddressSpace("prop")
    bufs = [space.alloc(s) for s in sizes]
    shadows = [np.zeros(s, dtype=np.uint8) for s in sizes]
    for _ in range(10):
        i = data.draw(st.integers(0, len(bufs) - 1))
        off = data.draw(st.integers(0, sizes[i] - 1))
        n = data.draw(st.integers(1, sizes[i] - off))
        val = data.draw(st.integers(0, 255))
        chunk = np.full(n, val, dtype=np.uint8)
        bufs[i].write(chunk, offset=off)
        shadows[i][off : off + n] = val
    for buf, shadow in zip(bufs, shadows):
        assert np.array_equal(buf.read(), shadow)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=65536))
def test_property_roundtrip_any_size(n):
    space = AddressSpace("rt")
    buf = space.alloc(n)
    payload = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8)
    buf.write(payload)
    assert np.array_equal(buf.read(), payload)
