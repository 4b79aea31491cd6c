"""The simulated GPU device.

:class:`GpuDevice` owns the streams and engines and performs eager
scheduling: each operation's start/end time is fixed at enqueue, which
is sound because the host enqueues in program order and all durations
are deterministic (see the package docstring of :mod:`repro.sim`).
"""

from __future__ import annotations

import math

from repro.sim.engine import Engine
from repro.sim.ops import DeviceOp, OpKind
from repro.sim.stream import Stream


class DeviceError(RuntimeError):
    """Invalid device usage (bad stream, cancel with queued work, ...)."""


class InfiniteWaitError(RuntimeError):
    """Raised when the host would wait forever on a never-completing op.

    The sync-function discovery probe relies on this: it launches an
    infinite kernel, calls a candidate synchronizing API, and catches
    this exception to learn where the CPU actually blocked.
    """


#: Engine class by operation kind.  Devices expose one or more compute
#: engines (concurrent kernels) plus two copy engines (one per
#: direction); memsets execute on a compute engine.
_ENGINE_FOR_KIND = {
    OpKind.KERNEL: "compute",
    OpKind.MEMSET: "compute",
    OpKind.COPY_H2D: "copy_h2d",
    OpKind.COPY_D2H: "copy_d2h",
    OpKind.COPY_D2D: "copy_h2d",
}


class GpuDevice:
    """A single GPU with streams, engines, and a complete op timeline.

    ``compute_engines`` models concurrent kernel execution: kernels
    from independent streams run in parallel up to that many at a time
    (the default of 1 matches the strictly serialized compute queue the
    evaluation workloads assume).
    """

    def __init__(self, device_id: int = 0, compute_engines: int = 1) -> None:
        if compute_engines < 1:
            raise DeviceError("a device needs at least one compute engine")
        self.device_id = device_id
        self.compute_engines = [Engine(f"compute_{i}")
                                for i in range(compute_engines)]
        self.engines: dict[str, Engine] = {
            "copy_h2d": Engine("copy_h2d"),
            "copy_d2h": Engine("copy_d2h"),
        }
        for engine in self.compute_engines:
            self.engines[engine.name] = engine
        self._stream_cls = Stream
        self.streams: dict[int, Stream] = {0: Stream(0)}
        self._next_stream_id = 1
        self.all_ops: list[DeviceOp] = []
        #: Running enqueue totals by :class:`OpKind`; flushed into the
        #: ``sim.ops_enqueued`` counter by :func:`repro.obs.record_device`
        #: at stage end rather than emitted per operation.
        self.ops_enqueued_by_kind: dict[OpKind, int] = {}

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    def create_stream(self) -> int:
        """Create a new stream and return its id."""
        sid = self._next_stream_id
        self._next_stream_id += 1
        self.streams[sid] = self._stream_cls(sid)
        return sid

    def destroy_stream(self, stream_id: int) -> None:
        if stream_id == 0:
            raise DeviceError("the default stream cannot be destroyed")
        if stream_id not in self.streams:
            raise DeviceError(f"no such stream {stream_id}")
        del self.streams[stream_id]

    def stream(self, stream_id: int):
        try:
            return self.streams[stream_id]
        except KeyError:
            raise DeviceError(f"no such stream {stream_id}") from None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def enqueue(self, op: DeviceOp, now: float) -> DeviceOp:
        """Schedule ``op`` at host time ``now`` and record it.

        The op may not start before (a) the host enqueued it, (b) its
        stream predecessor completed, and (c) its engine is free.
        """
        stream = self.stream(op.stream_id)
        op.enqueue_time = now
        engine = self._pick_engine(op)
        earliest = max(now, stream.last_end)
        engine.schedule(op, earliest)
        stream.record(op)
        self.all_ops.append(op)
        kind_counts = self.ops_enqueued_by_kind
        kind_counts[op.kind] = kind_counts.get(op.kind, 0) + 1
        return op

    def _pick_engine(self, op: DeviceOp) -> Engine:
        """Select the engine for an op: copies map 1:1; kernels go to
        the compute engine that frees up first."""
        kind = _ENGINE_FOR_KIND[op.kind]
        if kind != "compute":
            return self.engines[kind]
        engines = self.compute_engines
        if len(engines) == 1:
            return engines[0]
        return min(engines, key=lambda e: e.free_at)

    def stream_completion_time(self, stream_id: int) -> float:
        return self.stream(stream_id).completion_time()

    def busy_until(self) -> float:
        """Completion time of all work enqueued so far, on any stream."""
        if not self.streams:
            return 0.0
        return max(s.completion_time() for s in self.streams.values())

    # ------------------------------------------------------------------
    # Probe support
    # ------------------------------------------------------------------
    def cancel_op(self, op: DeviceOp, now: float) -> None:
        """Cancel a never-completing probe kernel.

        Only legal when no later work was enqueued on the op's stream
        (the discovery harness runs in a sandboxed machine where this
        holds by construction); otherwise the trailing ops would keep
        provisional infinite schedules.
        """
        stream = self.stream(op.stream_id)
        if stream.ops and stream.ops[-1] is not op:
            raise DeviceError("cannot cancel an op with later work queued behind it")
        if not op.never_completes:
            raise DeviceError("only never-completing ops can be cancelled")
        for engine in self.engines.values():
            if engine._infinite_op is op:
                engine.cancel_infinite(now)
                break
        stream.last_end = now

    # ------------------------------------------------------------------
    # Ground truth inspection (used by tests and validation benches)
    # ------------------------------------------------------------------
    def total_busy_time(self) -> float:
        return sum(e.busy_time for e in self.engines.values())

    def compute_idle_periods(self, until: float | None = None) -> list[tuple[float, float]]:
        """Idle gaps on the compute engine across the whole run.

        The expected-benefit estimator's upper bound (§3.5.1) is a
        statement about how much these gaps can contract; tests compare
        the estimator against this ground truth.
        """
        ops = sorted(
            (op for op in self.all_ops
             if _ENGINE_FOR_KIND[op.kind] == "compute" and not op.cancelled
             and not math.isinf(op.end_time)),
            key=lambda o: o.start_time,
        )
        # With several compute engines this reports gaps where *no*
        # engine is busy, the conservative reading of "GPU idle".
        gaps: list[tuple[float, float]] = []
        prev_end = 0.0
        for op in ops:
            if op.start_time > prev_end:
                gaps.append((prev_end, op.start_time))
            prev_end = max(prev_end, op.end_time)
        if until is not None and until > prev_end:
            gaps.append((prev_end, until))
        return gaps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GpuDevice(id={self.device_id} streams={len(self.streams)} "
            f"ops={len(self.all_ops)})"
        )
