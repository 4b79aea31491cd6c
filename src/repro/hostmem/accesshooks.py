"""Load/store access hook registry.

This is the reproduction's stand-in for Dyninst load/store
instrumentation: FFM stage 3 registers a hook to learn which
"instruction" first touches GPU-writable data after a
synchronization, and stage 4 registers one to timestamp that first
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hostmem.buffer import HostBuffer


@dataclass(frozen=True)
class AccessEvent:
    """One CPU load or store against a tracked host buffer.

    ``kind`` is ``"load"`` or ``"store"``.  ``address`` is the fake
    virtual address of the first byte touched; ``size`` the extent.
    ``time`` is the virtual CPU time of the access.
    """

    buffer: "HostBuffer"
    kind: str
    address: int
    size: int
    time: float


AccessHook = Callable[[AccessEvent], None]


class AccessHookRegistry:
    """Ordered set of access hooks with cheap is-empty fast paths.

    The registry is owned by a :class:`repro.hostmem.allocator.
    HostAddressSpace`; all buffers in that space report through it.
    Hooks are called in registration order.  A hook raising propagates
    to the application — instrumentation bugs should be loud.

    A hook added with ``managed_only=True`` acts on accesses to managed
    (unified-memory) buffers alone, as the driver's fault handler does.
    :attr:`watch_all` is true while some hook wants every access; when
    it is false, an access to an unmanaged buffer builds no event.
    """

    def __init__(self) -> None:
        self._hooks: list[AccessHook] = []
        self._managed_only: list[AccessHook] = []
        #: Some hook wants accesses to unmanaged buffers too.
        self.watch_all = False

    @property
    def active(self) -> bool:
        return bool(self._hooks)

    def add(self, hook: AccessHook, *,
            managed_only: bool = False) -> AccessHook:
        """Register ``hook``; returns it for later removal."""
        self._hooks.append(hook)
        if managed_only:
            self._managed_only.append(hook)
        self._update()
        return hook

    def remove(self, hook: AccessHook) -> None:
        try:
            self._hooks.remove(hook)
        except ValueError:
            raise KeyError("hook is not registered") from None
        if hook in self._managed_only:
            self._managed_only.remove(hook)
        self._update()

    def clear(self) -> None:
        self._hooks.clear()
        self._managed_only.clear()
        self._update()

    def _update(self) -> None:
        self.watch_all = len(self._hooks) > len(self._managed_only)

    def fire(self, event: AccessEvent) -> None:
        for hook in self._hooks:
            hook(event)
