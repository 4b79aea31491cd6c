"""Device memory handles and the device-side allocator.

Device buffers carry a host-side *shadow* of their contents so that
D2H transfers produce real bytes (the content-based deduplication in
FFM stage 3 hashes actual payloads).  Shadow updates are timing-free:
values never influence the schedule, only hashes.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.driver.errors import InvalidHandleError, InvalidValueError, OutOfMemoryError

#: Fake device address space base.
_DEVICE_BASE = 0xD000_0000_0000

_buffer_ids = itertools.count(1)


class DeviceBuffer:
    """A device allocation: fake device pointer plus content shadow."""

    def __init__(self, dptr: int, nbytes: int, label: str = "") -> None:
        if nbytes <= 0:
            raise InvalidValueError(f"device allocation size must be positive, got {nbytes}")
        self.dptr = dptr
        self.nbytes = int(nbytes)
        self.shadow = np.zeros(self.nbytes, dtype=np.uint8)
        self.label = label or f"devbuf_{dptr:#x}"
        self.freed = False
        self.buffer_id = next(_buffer_ids)
        #: Set for managed allocations: the paired host-visible buffer.
        self.managed_host = None
        #: Where a managed allocation's pages currently live ("host" or
        #: "device"); plain device allocations never change it.
        self.managed_residency = "host"

    def _check_live(self) -> None:
        if self.freed:
            raise InvalidHandleError(f"use of freed device buffer {self.label}")

    def read_shadow(self, offset: int = 0, size: int | None = None) -> np.ndarray:
        self._check_live()
        offset, size = self._bounds(offset, size)
        return self.shadow[offset : offset + size]

    def write_shadow(self, data, offset: int = 0) -> np.ndarray:
        """Store ``data``'s bytes at ``offset``; returns a read-only view
        of the bytes that landed (valid until the region is next written)."""
        self._check_live()
        raw = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
        offset, size = self._bounds(offset, int(raw.nbytes))
        landed = self.shadow[offset : offset + size]
        landed[...] = raw
        landed.flags.writeable = False
        return landed

    def fill_shadow(self, byte_value: int, offset: int = 0, size: int | None = None) -> None:
        self._check_live()
        offset, size = self._bounds(offset, size)
        self.shadow[offset : offset + size] = np.uint8(byte_value & 0xFF)

    def _bounds(self, offset: int, size: int | None) -> tuple[int, int]:
        if size is None:
            size = self.nbytes - offset
        if offset < 0 or size < 0 or offset + size > self.nbytes:
            raise InvalidValueError(
                f"device access [{offset}, {offset + size}) out of bounds for "
                f"{self.label} of {self.nbytes} bytes"
            )
        return offset, size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeviceBuffer({self.label!r} @{self.dptr:#x} {self.nbytes}B)"


class DeviceAllocator:
    """Bump allocator over the fake device address space.

    Tracks allocation/free counts and live bytes — the cuIBM analysis
    (millions of ``cudaMalloc``/``cudaFree`` pairs) and its fix are
    validated against these counters.
    """

    def __init__(self, capacity_bytes: int = 16 * 2**30) -> None:
        self.capacity = int(capacity_bytes)
        self._next = _DEVICE_BASE
        self._live: dict[int, DeviceBuffer] = {}
        self.live_bytes = 0
        self.peak_live_bytes = 0
        self.alloc_count = 0
        self.free_count = 0

    def allocate(self, nbytes: int, label: str = "") -> DeviceBuffer:
        if nbytes <= 0:
            raise InvalidValueError(f"device allocation size must be positive, got {nbytes}")
        if self.live_bytes + nbytes > self.capacity:
            raise OutOfMemoryError(
                f"device OOM: {self.live_bytes} live + {nbytes} requested "
                f"> {self.capacity} capacity"
            )
        dptr = self._next
        # 256-byte alignment, as cudaMalloc guarantees.
        self._next += (nbytes + 255) // 256 * 256 + 256
        buf = DeviceBuffer(dptr, nbytes, label)
        self._live[dptr] = buf
        self.live_bytes += nbytes
        self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)
        self.alloc_count += 1
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        if buf.dptr not in self._live or self._live[buf.dptr] is not buf:
            raise InvalidHandleError(f"free of unknown device buffer {buf!r}")
        del self._live[buf.dptr]
        buf.freed = True
        self.live_bytes -= buf.nbytes
        self.free_count += 1

    def lookup(self, dptr: int) -> DeviceBuffer:
        try:
            return self._live[dptr]
        except KeyError:
            raise InvalidHandleError(f"no live device buffer at {dptr:#x}") from None

    @property
    def live_count(self) -> int:
        return len(self._live)
