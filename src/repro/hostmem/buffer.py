"""Host buffers: numpy-backed, instrumentable, protectable.

A :class:`HostBuffer` is the unit of CPU memory an application shares
with the GPU.  All application accesses to GPU-visible data go through
:meth:`read` / :meth:`write` so that load/store instrumentation (FFM
stages 3 and 4) can observe them — the same contract a binary tool
gets from instrumenting load/store instructions.

Buffers are flat byte regions with a numpy dtype view for arithmetic
convenience.  ``pinned`` marks page-locked allocations
(``cudaMallocHost``); ``managed`` marks unified-memory allocations
(``cudaMallocManaged``), which both processors may touch.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.hostmem.accesshooks import AccessEvent
from repro.hostmem.allocator import HostAddressSpace
from repro.hostmem.protection import WriteProtection


class HostBuffer:
    """A tracked host memory region.

    Parameters
    ----------
    space:
        Owning address space (provides addresses, hooks, clock).
    shape, dtype:
        Numpy layout of the region.
    pinned:
        True for page-locked host memory.  Conditional-synchronization
        semantics in the runtime depend on this flag (an async D2H copy
        into *unpinned* memory silently synchronizes — §2.2).
    managed:
        True for unified-memory regions.
    label:
        Debugging/reporting name.
    """

    def __init__(
        self,
        space: HostAddressSpace,
        shape,
        dtype=np.float64,
        *,
        pinned: bool = False,
        managed: bool = False,
        label: str = "",
    ) -> None:
        self.space = space
        self.array = np.zeros(shape, dtype=dtype)
        #: The region as flat bytes: the one view every raw access,
        #: digest and typed view slices, made once.
        self._flat = self.array.reshape(-1).view(np.uint8)
        self.nbytes = int(self.array.nbytes)
        if self.nbytes == 0:
            raise ValueError("zero-sized host buffers are not allocatable")
        self.address = space.allocate(self.nbytes)
        self.pinned = bool(pinned)
        self.managed = bool(managed)
        self.label = label or f"hostbuf_{self.address:#x}"
        self.protection = WriteProtection()
        self.freed = False
        #: Monotonic store counter: every mutation path bumps it, so a
        #: cached digest is valid exactly while the generation matches.
        self.write_generation = 0
        self._digest_cache: dict[tuple[int, int], tuple[int, str]] = {}
        space.register(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def free(self) -> None:
        """Release the region; further accesses raise."""
        if self.freed:
            raise RuntimeError(f"double free of {self.label}")
        self.space.unregister(self)
        self.freed = True

    def _check_live(self) -> None:
        if self.freed:
            raise RuntimeError(f"use-after-free of {self.label}")

    # ------------------------------------------------------------------
    # Instrumented accessors
    # ------------------------------------------------------------------
    def read(self, offset: int = 0, size: int | None = None) -> np.ndarray:
        """Load ``size`` bytes at ``offset``; returns a read-only view.

        Fires registered access hooks.  ``size=None`` reads the whole
        buffer.  The returned view is flat bytes reinterpreted with the
        buffer's dtype where the slice is dtype-aligned, else raw bytes.
        """
        self._check_live()
        offset, size = self._bounds(offset, size)
        self._fire("load", offset, size)
        view = self._view(offset, size)
        view.flags.writeable = False
        return view

    def write(self, values, offset: int = 0) -> None:
        """Store ``values`` (array-like) at byte ``offset``.

        Fires access hooks and honours write protection.
        """
        self._check_live()
        arr = np.asarray(values)
        size = int(arr.nbytes)
        offset, size = self._bounds(offset, size)
        self.protection.check_store(self.address + offset, size)
        self._fire("store", offset, size)
        self.write_generation += 1
        target = self._view(offset, size)
        target[...] = arr.reshape(target.shape).astype(target.dtype, copy=False)

    def fill(self, value, offset: int = 0, size: int | None = None) -> None:
        """memset-style fill; counts as a store."""
        self._check_live()
        offset, size = self._bounds(offset, size)
        self.protection.check_store(self.address + offset, size)
        self._fire("store", offset, size)
        self.write_generation += 1
        self._view(offset, size)[...] = value

    # ------------------------------------------------------------------
    # Raw (uninstrumented) access — used by the simulator/driver itself,
    # which models DMA engines, not CPU instructions.
    # ------------------------------------------------------------------
    def raw_bytes(self, offset: int = 0, size: int | None = None) -> np.ndarray:
        self._check_live()
        offset, size = self._bounds(offset, size)
        return self._flat[offset : offset + size]

    def raw_write_bytes(self, data: np.ndarray, offset: int = 0) -> np.ndarray:
        """Store ``data``'s bytes at ``offset``; returns a read-only view
        of the bytes that landed (valid until the region is next written)."""
        self._check_live()
        data = np.asarray(data, dtype=np.uint8).reshape(-1)
        offset, size = self._bounds(offset, int(data.nbytes))
        self.write_generation += 1
        landed = self._flat[offset : offset + size]
        landed[...] = data
        landed.flags.writeable = False
        return landed

    # ------------------------------------------------------------------
    # Content digests (stage-3 transfer dedup fast path)
    # ------------------------------------------------------------------
    def content_digest(self, offset: int = 0, size: int | None = None,
                       *, digest_size: int = 16) -> str:
        """BLAKE2b hex digest of ``size`` bytes at ``offset``.

        Cached per (offset, size) window against :attr:`write_generation`:
        an unchanged buffer is hashed once, and every re-transfer of the
        same region is a dict hit.  Hashing goes through the buffer
        protocol directly — no intermediate ``tobytes`` copy — and is
        byte-for-byte the digest :func:`repro.core.stage3_memtrace.hash_payload`
        would compute for the transferred payload.
        """
        self._check_live()
        offset, size = self._bounds(offset, size)
        key = (offset, size)
        cached = self._digest_cache.get(key)
        if cached is not None and cached[0] == self.write_generation:
            return cached[1]
        digest = hashlib.blake2b(self._flat[offset : offset + size],
                                 digest_size=digest_size).hexdigest()
        self._digest_cache[key] = (self.write_generation, digest)
        return digest

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _bounds(self, offset: int, size: int | None) -> tuple[int, int]:
        if size is None:
            size = self.nbytes - offset
        if offset < 0 or size < 0 or offset + size > self.nbytes:
            raise IndexError(
                f"access [{offset}, {offset + size}) out of bounds for "
                f"{self.label} of {self.nbytes} bytes"
            )
        return offset, size

    def _view(self, offset: int, size: int) -> np.ndarray:
        window = self._flat[offset : offset + size]
        itemsize = self.array.dtype.itemsize
        if offset % itemsize == 0 and size % itemsize == 0:
            return window.view(self.array.dtype)
        return window

    def _fire(self, kind: str, offset: int, size: int) -> None:
        hooks = self.space.hooks
        if hooks.watch_all or (self.managed and hooks.active):
            hooks.fire(
                AccessEvent(
                    buffer=self,
                    kind=kind,
                    address=self.address + offset,
                    size=size,
                    time=self.space.now(),
                )
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f for f, on in (("P", self.pinned), ("M", self.managed)) if on
        )
        return f"HostBuffer({self.label!r} @{self.address:#x} {self.nbytes}B {flags})"
