"""Per-process paged address spaces, optionally backed by numpy arrays.

Each simulated process owns an :class:`AddressSpace`.  Buffers are allocated
page-aligned at unique virtual addresses.  On a verifying node the bytes are
real (``np.uint8``), so a CMA transfer physically moves data and every
collective's result can be checked against MPI semantics after a timed run.
A timing-only node (``verify=False``) gets *address-only* buffers: the same
addresses, lengths, guard pages and faults, but no backing array
(``data is None``) — no timing path reads bytes, and allocating them only
cost time and memory.  Byte access to such a buffer raises
:class:`AddressOnlyError`.

Address resolution is intentionally strict: an iovec that touches memory
outside any allocated buffer faults with ``EFAULT``, exactly the behaviour
tests rely on to catch mis-computed offsets in collective algorithms.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional

import numpy as np

from repro.kernel.errors import CMAError, EFAULT, ESRCH

__all__ = [
    "AddressOnlyError",
    "Buffer",
    "AddressSpace",
    "AddressSpaceManager",
    "copy_iov_bytes",
]

#: virtual address spacing between processes, keeps addr ranges disjoint
_VA_BASE = 0x7F00_0000_0000
_VA_STRIDE = 0x0000_1000_0000


class AddressOnlyError(RuntimeError):
    """Byte access to an address-only buffer (timing-only mode)."""


class Buffer:
    """A page-aligned allocation in one process's address space.

    An address-only buffer (``backed=False``) has ``data is None``.
    """

    __slots__ = ("space", "addr", "nbytes", "data", "name")

    def __init__(
        self,
        space: "AddressSpace",
        addr: int,
        nbytes: int,
        name: str,
        data: Optional[np.ndarray] = None,
        backed: bool = True,
    ):
        self.space = space
        self.addr = addr
        self.nbytes = nbytes
        # ``data`` lets the arena hand back a recycled (already re-zeroed)
        # array; a fresh allocation and a recycled one are indistinguishable
        # to callers.
        if data is None and backed:
            data = np.zeros(nbytes, dtype=np.uint8)
        self.data = data
        self.name = name

    @property
    def end(self) -> int:
        return self.addr + self.nbytes

    def fill(self, values: np.ndarray | int) -> None:
        self.view()[:] = values

    def view(self, offset: int = 0, nbytes: Optional[int] = None) -> np.ndarray:
        """A numpy view (no copy) of a byte range of this buffer."""
        if nbytes is None:
            nbytes = self.nbytes - offset
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise CMAError(EFAULT, f"view [{offset}, {offset + nbytes}) outside {self}")
        if self.data is None:
            raise AddressOnlyError(
                f"buffer {self.name!r} is address-only: timing-only mode "
                "(verify=False) allocates no bytes to read or write"
            )
        return self.data[offset : offset + nbytes]

    def iov(self, offset: int = 0, nbytes: Optional[int] = None) -> tuple[int, int]:
        """(address, length) pair for an iovec entry covering a range."""
        if nbytes is None:
            nbytes = self.nbytes - offset
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise CMAError(EFAULT, f"iov [{offset}, {offset + nbytes}) outside {self}")
        return (self.addr + offset, nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Buffer {self.name} @0x{self.addr:x} {self.nbytes}B>"


class AddressSpace:
    """One process's memory map: sorted, non-overlapping buffers."""

    def __init__(
        self, pid: int, page_size: int, va_base: int, backed: bool = True
    ):
        self.pid = pid
        self.page_size = page_size
        self.va_base = va_base
        self.backed = backed
        self._next_addr = va_base
        self._starts: list[int] = []  # sorted buffer base addresses
        self._buffers: list[Buffer] = []  # parallel to _starts
        # Recycled backing arrays from the last reset, keyed by exact size.
        self._arena: dict[int, list[np.ndarray]] = {}

    def allocate(self, nbytes: int, name: str = "buf") -> Buffer:
        """Allocate ``nbytes`` page-aligned bytes; returns the new buffer.

        After a :meth:`reset`, an exact-size request is served from the
        arena: the recycled array is re-zeroed (a stale correct answer from
        the previous run must not be able to satisfy verification) and the
        buffer gets a fresh address/name, so callers cannot tell it from a
        new ``np.zeros`` allocation.
        """
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        addr = self._next_addr
        data = None
        free = self._arena.get(nbytes)
        if free:
            data = free.pop()
            data[:] = 0
        buf = Buffer(self, addr, nbytes, name, data=data, backed=self.backed)
        pages = -(-nbytes // self.page_size)
        # leave one guard page between allocations so off-by-one iovecs fault
        self._next_addr += (pages + 1) * self.page_size
        idx = bisect.bisect_left(self._starts, addr)
        self._starts.insert(idx, addr)
        self._buffers.insert(idx, buf)
        return buf

    def reset(self) -> None:
        """Unmap everything; recycle the backing arrays for reuse.

        ``_next_addr`` returns to ``va_base`` so the next run hands out the
        *same* address sequence a fresh space would — addresses flow into
        iovecs, so this is part of the bit-exactness contract.  The arena is
        *replaced* (not extended) with the just-unmapped arrays: consecutive
        same-shape sweep points reuse everything, while a sweep that changes
        eta cannot accumulate unboundedly many stale sizes.  An address-only
        space has no arrays, so its arena stays empty.
        """
        arena: dict[int, list[np.ndarray]] = {}
        for buf in self._buffers:
            if buf.data is not None:
                arena.setdefault(buf.nbytes, []).append(buf.data)
        self._arena = arena
        self._starts.clear()
        self._buffers.clear()
        self._next_addr = self.va_base

    def resolve(self, addr: int, nbytes: int) -> tuple[Buffer, int]:
        """Map (addr, len) to (buffer, offset); EFAULT if out of bounds."""
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx >= 0:
            buf = self._buffers[idx]
            if addr + nbytes <= buf.end and addr >= buf.addr:
                return buf, addr - buf.addr
        raise CMAError(
            EFAULT,
            f"pid {self.pid}: [{addr:#x}, {addr + nbytes:#x}) not mapped",
        )

    def gather_bytes(self, iov: Iterable[tuple[int, int]]) -> np.ndarray:
        """Concatenate the bytes named by an iovec list (for reads)."""
        parts = []
        for addr, ln in iov:
            if ln == 0:
                continue
            buf, off = self.resolve(addr, ln)
            parts.append(buf.view(off, ln))
        if not parts:
            return np.zeros(0, dtype=np.uint8)
        if len(parts) == 1:
            # Single-range gather (the common case in collectives): a plain
            # copy of the view — np.concatenate would copy too, with setup
            # overhead on top.  Copied, not aliased: callers may scatter the
            # result back into this same space.
            return parts[0].copy()
        return np.concatenate(parts)

    def scatter_bytes(self, iov: Iterable[tuple[int, int]], data: np.ndarray) -> int:
        """Write ``data`` across the ranges of an iovec list (for writes).

        Stops when data runs out (partial fills are allowed, mirroring the
        syscall's byte-count return).  Returns bytes written.
        """
        pos = 0
        total = len(data)
        for addr, ln in iov:
            if pos >= total:
                break
            take = min(ln, total - pos)
            if take == 0:
                continue
            buf, off = self.resolve(addr, take)
            buf.view(off, take)[:] = data[pos : pos + take]
            pos += take
        return pos

    def total_pages(self, iov: Iterable[tuple[int, int]]) -> int:
        """Pages spanned by an iovec list (each entry rounded up separately,
        matching per-iovec pinning in ``process_vm_rw``)."""
        ps = self.page_size
        total = 0
        for addr, ln in iov:
            if ln == 0:
                continue
            first = addr // ps
            last = (addr + ln - 1) // ps
            total += last - first + 1
        return total


def copy_iov_bytes(
    src_space: AddressSpace,
    src_iov: Iterable[tuple[int, int]],
    dst_space: AddressSpace,
    dst_iov: Iterable[tuple[int, int]],
    nbytes: int,
) -> int:
    """Copy up to ``nbytes`` bytes from ``src_iov`` ranges to ``dst_iov``.

    Equivalent (including fault semantics — every source range resolves in
    full, destination ranges only as far as the data reaches) to::

        dst_space.scatter_bytes(dst_iov, src_space.gather_bytes(src_iov)[:nbytes])

    but the single-source-range common case copies straight from the source
    view instead of materialising a concatenated intermediate array.
    Returns bytes written.
    """
    entries = [(a, ln) for a, ln in src_iov if ln != 0]
    if len(entries) != 1:
        data = src_space.gather_bytes(src_iov)
        return dst_space.scatter_bytes(dst_iov, data[:nbytes])
    addr, ln = entries[0]
    sbuf, soff = src_space.resolve(addr, ln)
    data = sbuf.view(soff, min(ln, nbytes))
    pos = 0
    total = len(data)
    for daddr, dln in dst_iov:
        if pos >= total:
            break
        take = min(dln, total - pos)
        if take == 0:
            continue
        dbuf, doff = dst_space.resolve(daddr, take)
        chunk = data[pos : pos + take]
        if dbuf is sbuf:
            # Source and destination alias the same backing buffer (a
            # process copying within its own allocation): gather_bytes
            # would have detached the data; match that by copying first.
            chunk = chunk.copy()
        dbuf.view(doff, take)[:] = chunk
        pos += take
    return pos


class AddressSpaceManager:
    """The 'kernel view' of all processes on a node: pid -> address space.

    ``backed=False`` makes every space hand out address-only buffers.
    """

    def __init__(self, page_size: int, backed: bool = True):
        self.page_size = page_size
        self.backed = backed
        self._spaces: dict[int, AddressSpace] = {}
        self._n = 0

    def create(self, pid: int) -> AddressSpace:
        if pid in self._spaces:
            raise ValueError(f"pid {pid} already has an address space")
        space = AddressSpace(
            pid, self.page_size, _VA_BASE + self._n * _VA_STRIDE, self.backed
        )
        self._n += 1
        self._spaces[pid] = space
        return space

    def reset_spaces(self) -> None:
        """Reset every registered space (keeps pid registrations — a warm
        node re-registers the same pid set in the same order)."""
        for space in self._spaces.values():
            space.reset()

    def get(self, pid: int) -> AddressSpace:
        try:
            return self._spaces[pid]
        except KeyError:
            raise CMAError(ESRCH, f"no such pid {pid}") from None

    def __contains__(self, pid: int) -> bool:
        return pid in self._spaces
