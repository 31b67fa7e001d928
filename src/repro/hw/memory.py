"""Per-process virtual memory backed by real bytes.

Every MPI process in the simulation owns an :class:`AddressSpace`; message
payloads are genuine ``numpy`` byte arrays moved between spaces by the
simulated NIC, so every benchmark run doubles as an end-to-end data
integrity check.  Addresses are plain integers; the Elan4 MMU
(:mod:`repro.elan4.addr`) maps them into the NIC's E4 address format.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

import numpy as np

__all__ = ["AddressSpace", "Buffer", "MemoryError_"]

PAGE = 4096


class MemoryError_(Exception):
    """Access outside any mapped region (a host segfault / NIC MMU trap)."""


class Buffer:
    """A handle to ``nbytes`` of memory at ``addr`` in one address space."""

    __slots__ = ("space", "addr", "nbytes", "label")

    def __init__(self, space: "AddressSpace", addr: int, nbytes: int, label: str = ""):
        self.space = space
        self.addr = addr
        self.nbytes = nbytes
        self.label = label

    def _check(self, offset: int, n: int) -> int:
        """The address of ``[offset, offset + n)``, which must lie inside
        this buffer: a slot of a slab has a live neighbour right behind
        it, so the bound is the handle's, not the region's page."""
        if offset < 0 or offset + n > self.nbytes:
            raise MemoryError_(
                f"access [{offset}:{offset + n}] outside {self.nbytes}-byte buffer"
                f"{' ' + repr(self.label) if self.label else ''}"
            )
        return self.addr + offset

    def view(self, offset: int = 0, nbytes: Optional[int] = None) -> np.ndarray:
        """A mutable numpy view of (a slice of) the buffer."""
        n = self.nbytes - offset if nbytes is None else nbytes
        return self.space.view(self._check(offset, n), n)

    def write(self, data, offset: int = 0) -> None:
        arr = np.asarray(data, dtype=np.uint8).ravel()
        self.space.write(self._check(offset, arr.nbytes), arr)

    def read(self, offset: int = 0, nbytes: Optional[int] = None) -> np.ndarray:
        n = self.nbytes - offset if nbytes is None else nbytes
        return self.space.read(self._check(offset, n), n)

    def fill(self, value: int) -> None:
        self.view()[:] = value

    def sub(self, offset: int, nbytes: int, label: str = "") -> "Buffer":
        """A sub-buffer aliasing the same bytes (no allocation)."""
        return Buffer(self.space, self._check(offset, nbytes), nbytes, label or self.label)

    def __len__(self) -> int:
        return self.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f" {self.label!r}" if self.label else ""
        return f"<Buffer{tag} @{self.addr:#x}+{self.nbytes} in {self.space.name}>"


class AddressSpace:
    """A page-granular bump allocator over numpy-backed regions.

    ``alloc`` returns :class:`Buffer` handles; ``read``/``write``/``view``
    address bytes anywhere inside a mapped region.  Cross-region accesses
    raise :class:`MemoryError_` — the same behaviour a dangling RDMA
    descriptor would provoke through the Elan4 MMU.
    """

    def __init__(self, name: str = "", base: int = 0x10000):
        self.name = name
        self._next = base
        self._bases: List[int] = []  # sorted region base addresses
        self._regions: Dict[int, np.ndarray] = {}
        self.allocated_bytes = 0
        # last-hit cache: chunked engines touch one region per fragment, so
        # consecutive accesses almost always land in the same region.
        self._hit_base = -1
        self._hit_region: "np.ndarray | None" = None

    # -- allocation ----------------------------------------------------
    def alloc(self, nbytes: int, label: str = "") -> Buffer:
        if nbytes <= 0:
            raise MemoryError_(f"alloc of {nbytes} bytes")
        size = (nbytes + PAGE - 1) // PAGE * PAGE
        addr = self._next
        self._next += size + PAGE  # guard page between regions
        region = np.zeros(size, dtype=np.uint8)
        bisect.insort(self._bases, addr)
        self._regions[addr] = region
        self.allocated_bytes += size
        return Buffer(self, addr, nbytes, label)

    def free(self, buf: Buffer) -> None:
        """Unmap the region containing ``buf`` (must be region-initial)."""
        region = self._regions.pop(buf.addr, None)
        if region is None:
            raise MemoryError_(f"free of non-region address {buf.addr:#x}")
        self._bases.remove(buf.addr)
        self.allocated_bytes -= region.nbytes
        if self._hit_base == buf.addr:
            self._hit_base = -1
            self._hit_region = None

    # -- access --------------------------------------------------------
    def _locate(self, addr: int, nbytes: int) -> tuple[np.ndarray, int]:
        base = self._hit_base
        if base >= 0:
            off = addr - base
            region = self._hit_region
            if 0 <= off and off + nbytes <= region.nbytes:
                return region, off
        i = bisect.bisect_right(self._bases, addr) - 1
        if i >= 0:
            base = self._bases[i]
            region = self._regions[base]
            off = addr - base
            if off + nbytes <= region.nbytes:
                self._hit_base = base
                self._hit_region = region
                return region, off
        raise MemoryError_(
            f"{self.name}: access [{addr:#x}, +{nbytes}) outside mapped memory"
        )

    def view(self, addr: int, nbytes: int) -> np.ndarray:
        region, off = self._locate(addr, nbytes)
        return region[off : off + nbytes]

    def read(self, addr: int, nbytes: int) -> np.ndarray:
        """A *copy* of the bytes (safe to hold across later writes)."""
        return self.view(addr, nbytes).copy()

    def write(self, addr: int, data) -> None:
        arr = np.asarray(data, dtype=np.uint8).ravel()
        self.view(addr, arr.nbytes)[:] = arr

    def is_mapped(self, addr: int, nbytes: int = 1) -> bool:
        try:
            self._locate(addr, nbytes)
            return True
        except MemoryError_:
            return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AddressSpace {self.name!r}: {len(self._regions)} regions, {self.allocated_bytes} B>"
