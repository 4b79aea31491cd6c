"""Device operation descriptors.

A :class:`DeviceOp` is one unit of work executed by the GPU: a kernel,
a memory copy in either direction, a device-side memset, or the
never-ending probe kernel used by the instrumentation discovery test
(:mod:`repro.instr.discovery`).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field


class OpKind(enum.Enum):
    """Kind of device operation, which selects the executing engine."""

    KERNEL = "kernel"
    COPY_H2D = "copy_h2d"
    COPY_D2H = "copy_d2h"
    COPY_D2D = "copy_d2d"
    MEMSET = "memset"

    # Members are singletons, so identity hashing is equivalent to
    # Enum's Python-level name hash — and every simulated device op
    # hashes its kind several times (engine pick, per-kind counters).
    __hash__ = object.__hash__

    @property
    def is_copy(self) -> bool:
        return self in (OpKind.COPY_H2D, OpKind.COPY_D2H, OpKind.COPY_D2D)


_op_ids = itertools.count(1)

#: Issues the next op id; a bound C method, so the dataclass's default
#: factory makes no Python call per op.
_next_op_id = _op_ids.__next__


@dataclass(slots=True)
class DeviceOp:
    """A single GPU operation with its (eagerly computed) schedule.

    ``duration`` of :data:`math.inf` denotes the never-completing probe
    kernel; the scheduler treats an infinite operation as occupying its
    engine forever until it is cancelled via
    :meth:`repro.sim.device.GpuDevice.cancel_op`.

    Attributes
    ----------
    kind:
        Operation kind; picks the engine.
    duration:
        Device-side execution time in virtual seconds.
    stream_id:
        Stream the op was enqueued on.
    name:
        Human-readable label (kernel name, ``"memcpy_h2d"``...).
    nbytes:
        Payload size for copies/memsets, 0 for kernels.
    enqueue_time:
        CPU time at which the host enqueued the op.
    start_time / end_time:
        Device schedule, filled in by the device at enqueue.
    tag:
        Free-form metadata supplied by the caller (e.g. the driver call
        that produced the op) — flows into traces.
    """

    kind: OpKind
    duration: float
    stream_id: int
    name: str = ""
    nbytes: int = 0
    enqueue_time: float = 0.0
    start_time: float = 0.0
    end_time: float = 0.0
    cancelled: bool = False
    tag: dict = field(default_factory=dict)
    op_id: int = field(default_factory=_next_op_id)

    def __post_init__(self) -> None:
        if self.duration < 0.0:
            raise ValueError(f"operation duration must be >= 0, got {self.duration!r}")
        if self.nbytes < 0:
            raise ValueError(f"operation nbytes must be >= 0, got {self.nbytes!r}")

    @property
    def never_completes(self) -> bool:
        """True for the infinite probe kernel."""
        return math.isinf(self.duration) and not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceOp(#{self.op_id} {self.kind.value} {self.name!r} "
            f"stream={self.stream_id} [{self.start_time:.6f},{self.end_time:.6f}])"
        )
