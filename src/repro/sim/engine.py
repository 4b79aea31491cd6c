"""Device execution engines.

A GPU exposes a small number of hardware engines that execute
operations: one (or more) compute engines for kernels and DMA copy
engines for host/device transfers.  Pascal-class devices — the
hardware used in the paper's evaluation — have one compute engine
visible to the scheduler plus two copy engines, which is the default
engine set built by :class:`repro.sim.device.GpuDevice`.

An engine executes at most one operation at a time, in the order
operations are handed to it.
"""

from __future__ import annotations

import math

from repro.sim.ops import DeviceOp


class Engine:
    """A single serially-executing device engine.

    The engine keeps only the bookkeeping the eager scheduler needs:
    the time at which it becomes free, and the currently-infinite op if
    a never-completing probe kernel is occupying it.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.free_at = 0.0
        self.ops_executed = 0
        self.busy_time = 0.0
        self._infinite_op: DeviceOp | None = None

    @property
    def blocked_forever(self) -> bool:
        """True while a never-completing op occupies this engine."""
        return self._infinite_op is not None

    def schedule(self, op: DeviceOp, earliest_start: float) -> None:
        """Assign ``op`` to this engine, filling in its start/end times.

        ``earliest_start`` is the op's stream-dependency bound (it may
        not start before its predecessor in the same stream finished,
        nor before the host enqueued it).
        """
        if self._infinite_op is not None:  # blocked_forever, inlined
            # Work queued behind an infinite kernel never starts until
            # the kernel is cancelled; record a provisional infinite
            # schedule so waits on it never complete either.
            op.start_time = math.inf
            op.end_time = math.inf
            return
        op.start_time = max(earliest_start, self.free_at)
        op.end_time = op.start_time + op.duration
        if math.isinf(op.duration):
            self._infinite_op = op
            self.free_at = math.inf
        else:
            self.free_at = op.end_time
            self.busy_time += op.duration
        self.ops_executed += 1
        # No telemetry here: schedule() is the simulator's hottest call,
        # and busy_time/ops_executed already carry the running totals.
        # obs.record_device flushes them as gauges at stage end.

    def cancel_infinite(self, now: float) -> DeviceOp | None:
        """Cancel the infinite op (if any), freeing the engine at ``now``.

        Used by the sync-function discovery probe: the tool launches a
        never-completing kernel, observes where the CPU blocks, then
        tears the kernel down.  Returns the cancelled op.
        """
        op = self._infinite_op
        if op is None:
            return None
        op.cancelled = True
        op.end_time = now
        self._infinite_op = None
        self.free_at = now
        return op

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Engine({self.name!r} free_at={self.free_at})"
