"""Page-aligned fake host address space.

Binary tools reason about raw addresses and page boundaries; the
paper's fix methodology even relies on page alignment (allocating
variables on page boundaries so ``mprotect`` can guard exactly them).
This allocator hands out non-overlapping page-aligned address ranges
for :class:`repro.hostmem.buffer.HostBuffer` objects and supports
range lookups ("which buffer owns address X?").
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING

from repro.hostmem.accesshooks import AccessHookRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hostmem.buffer import HostBuffer

#: Page size of the simulated host, matching the POWER8/9 systems the
#: paper ran on (64 KiB pages) would be exotic; we use the common 4 KiB.
PAGE_SIZE = 4096

#: Base of the fake heap; any recognisably-fake constant works.
_HEAP_BASE = 0x7F00_0000_0000


def _round_up_pages(nbytes: int) -> int:
    return max(1, (nbytes + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE


class HostAddressSpace:
    """Allocates fake page-aligned host address ranges.

    Also owns the access-hook registry shared by all buffers allocated
    from this space, and a clock callable so access events can be
    timestamped in virtual time.
    """

    def __init__(self, clock=None) -> None:
        self._next_addr = _HEAP_BASE
        # Sorted parallel arrays for fast address->buffer lookup.
        self._starts: list[int] = []
        self._buffers: list["HostBuffer"] = []
        self.hooks = AccessHookRegistry()
        self._clock = clock

    # ------------------------------------------------------------------
    def set_clock(self, clock) -> None:
        """Attach a ``VirtualClock`` used to timestamp access events."""
        self._clock = clock

    def now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    # ------------------------------------------------------------------
    def allocate(self, nbytes: int) -> int:
        """Reserve a page-aligned range of at least ``nbytes``; return base."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        addr = self._next_addr
        self._next_addr += _round_up_pages(nbytes) + PAGE_SIZE  # guard page
        return addr

    def register(self, buffer: "HostBuffer") -> None:
        idx = bisect.bisect_left(self._starts, buffer.address)
        self._starts.insert(idx, buffer.address)
        self._buffers.insert(idx, buffer)

    def unregister(self, buffer: "HostBuffer") -> None:
        idx = bisect.bisect_left(self._starts, buffer.address)
        if idx >= len(self._starts) or self._buffers[idx] is not buffer:
            raise KeyError(f"buffer at {buffer.address:#x} is not registered")
        del self._starts[idx]
        del self._buffers[idx]

    def find(self, address: int) -> "HostBuffer | None":
        """Return the live buffer containing ``address``, if any."""
        idx = bisect.bisect_right(self._starts, address) - 1
        if idx < 0:
            return None
        buf = self._buffers[idx]
        if buf.address <= address < buf.address + buf.nbytes:
            return buf
        return None

    @property
    def live_buffers(self) -> list["HostBuffer"]:
        return list(self._buffers)

    def close(self) -> None:
        """Forget every buffer and hook (the process has exited).

        Buffers point at their space and the space at its buffers, and
        a hook is usually a bound method of an object that holds the
        space; emptying both tables leaves no cycle through the space.
        """
        self._starts.clear()
        self._buffers.clear()
        self.hooks.clear()
