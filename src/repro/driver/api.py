"""Public driver API and the internal synchronization funnel.

This module is the reproduction of ``libcuda.so`` as Figure 3 of the
paper draws it: a set of public entry points (``cuMemcpy``,
``cuCtxSynchronize``, ...), some of which synchronize *implicitly*
(``cuMemFree``, ``cuMemcpy``) or *conditionally*
(``cuMemcpyDtoHAsync`` into unpinned memory, ``cuMemsetD8`` on a
unified-memory address), all funnelling into one **shared internal
synchronization function** (:data:`INTERNAL_WAIT_SYMBOL`).

The CUPTI-like framework attached via :meth:`CudaDriver.attach_cupti`
is fed with exactly the gaps the paper documents (§2.2):

* synchronization activity records are produced **only** for the
  explicit ``cuCtxSynchronize`` / ``cuStreamSynchronize`` calls;
* implicit and conditional synchronizations produce API/memcpy records
  but no synchronization record;
* nothing at all is reported for the private API
  (:mod:`repro.driver.private`).

Direct instrumentation through the dispatcher sees everything,
including the internal funnel — which is what lets the FFM stages be
"honest".
"""

from __future__ import annotations

import functools
import math

import numpy as np
from typing import Callable

from repro.driver.dispatch import Dispatcher
from repro.driver.errors import InvalidHandleError, InvalidValueError
from repro.driver.handles import DeviceAllocator, DeviceBuffer
from repro.hostmem.allocator import HostAddressSpace
from repro.hostmem.buffer import HostBuffer
from repro.instr.stacks import CallStackTracker
from repro.sim.costs import KernelCost
from repro.sim.device import InfiniteWaitError
from repro.sim.machine import Machine
from repro.sim.ops import DeviceOp, OpKind

#: Symbol name of the internal function that implements every blocking
#: wait.  Deliberately non-obvious: FFM stage 1 must *discover* it with
#: the never-completing-kernel probe test, not assume it.
INTERNAL_WAIT_SYMBOL = "__int_wait_on_cc"

#: Other internal symbols — a realistic search space for discovery.
INTERNAL_ENQUEUE_SYMBOL = "__int_queue_submit"
INTERNAL_TRACK_SYMBOL = "__int_vm_track"

#: Copy-op kind → wire direction string (hot: one lookup per transfer).
_COPY_DIRECTION = {
    OpKind.COPY_H2D: "h2d", OpKind.COPY_D2H: "d2h", OpKind.COPY_D2D: "d2d",
}

#: ``kind.value`` of every op kind, as a dict: the enum's ``value``
#: property costs two Python calls, and every enqueue publishes it.
_OP_KIND_VALUE = {kind: kind.value for kind in OpKind}


class CudaEvent:
    """A CUDA event: a marker in a stream's timeline.

    ``fire_time`` is the virtual time at which the event signals
    (completion time of the work enqueued on the stream when the event
    was recorded).
    """

    __slots__ = ("fire_time", "recorded", "destroyed")

    def __init__(self) -> None:
        self.fire_time = 0.0
        self.recorded = False
        self.destroyed = False

    def _check_live(self) -> None:
        if self.destroyed:
            raise InvalidHandleError("use of destroyed CUDA event")


def _as_bytes(data) -> "np.ndarray":
    """Flatten any array-like into a contiguous uint8 byte view."""
    return np.ascontiguousarray(data).reshape(-1).view(np.uint8)


def driver_fn(name: str, layer: str = "driver") -> Callable:
    """Decorator: route a method through the dispatcher as ``name``.

    Public-layer calls are also reported to the attached CUPTI
    subscription (API interval records); internal and private layers
    are not — that is the black-box gap.  Nothing is built per call:
    :meth:`~repro.driver.dispatch.Dispatcher.call` receives the method
    itself, or, for a public call while a subscription is attached,
    ``recorded`` (built once, here), plus the call's arguments.
    """

    public = layer == "driver"

    def deco(fn: Callable) -> Callable:
        def recorded(self, *args, **kwargs):
            clock = self.machine.clock
            t0 = clock.now
            try:
                return fn(self, *args, **kwargs)
            finally:
                if self._cupti is not None:
                    self._cupti.record_api(name, layer, t0, clock.now)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            impl = recorded if public and self._cupti is not None else fn
            return self.dispatch.call(name, layer, impl, self, *args, **kwargs)

        wrapper._dispatch_symbol = (name, layer)
        return wrapper

    return deco


def internal_fn(name: str) -> Callable:
    return driver_fn(name, layer="driver-internal")


class CudaDriver:
    """The simulated GPU user-space driver."""

    def __init__(
        self,
        machine: Machine,
        hostspace: HostAddressSpace,
        stacks: CallStackTracker | None = None,
    ) -> None:
        self.machine = machine
        #: The machine's GPU, cost model and (frozen) cost parameters,
        #: kept here because nearly every entry point reads them.
        self.gpu = machine.gpu
        self.costs = machine.costs
        self.params = machine.costs.params
        self.hostspace = hostspace
        hostspace.set_clock(machine.clock)
        self.stacks = stacks if stacks is not None else CallStackTracker()
        self.dispatch = Dispatcher(machine, self.stacks)
        self.devmem = DeviceAllocator()
        self._cupti = None
        #: Managed (unified-memory) allocations by host buffer identity,
        #: for demand-migration fault handling.
        self._managed_by_host: dict[int, DeviceBuffer] = {}
        hostspace.hooks.add(self._uvm_fault_handler, managed_only=True)
        self._register_symbols()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _register_symbols(self) -> None:
        for attr in dir(type(self)):
            fn = getattr(type(self), attr, None)
            sym = getattr(fn, "_dispatch_symbol", None)
            if sym is not None:
                self.dispatch.register_symbol(*sym)

    def attach_cupti(self, subscription) -> None:
        """Attach the vendor performance framework (may be ``None``)."""
        self._cupti = subscription

    @property
    def cupti(self):
        return self._cupti

    # ------------------------------------------------------------------
    # Internal functions (Figure 3's right-hand side)
    # ------------------------------------------------------------------
    @internal_fn(INTERNAL_WAIT_SYMBOL)
    def _wait_for_completion(self, deadline: float, scope: str) -> float:
        """THE internal synchronization function.

        Every blocking path in the driver — explicit, implicit,
        conditional, and private — ends up here.  Blocks the host
        until ``deadline``; publishes the measured wait into its own
        call record and accumulates it into every enclosing record so
        entry/exit tracing of public functions can see the sync time
        spent inside them.
        """
        m = self.machine
        m.cpu_api(self.params.sync_poll_overhead, INTERNAL_WAIT_SYMBOL)
        if math.isinf(deadline):
            raise InfiniteWaitError(
                f"wait on never-completing device work (scope={scope})"
            )
        wait_start = m.clock.now
        waited = m.cpu_wait_until(deadline, scope)
        self.dispatch.publish(
            wait_duration=waited, wait_start=wait_start, scope=scope,
        )
        self._accumulate_wait_up(waited)
        return waited

    def _accumulate_wait_up(self, waited: float) -> None:
        """Add one wait of ``waited`` seconds to ``sync_wait_total`` and
        ``sync_wait_count`` in every in-flight ancestor record."""
        for frame in self.dispatch._frames[:-1]:
            meta = frame._meta
            if meta is None:
                frame._meta = {"sync_wait_total": 0.0 + waited,
                               "sync_wait_count": 1.0}
            else:
                meta["sync_wait_total"] = (meta.get("sync_wait_total", 0.0)
                                           + waited)
                meta["sync_wait_count"] = (meta.get("sync_wait_count", 0.0)
                                           + 1.0)

    @internal_fn(INTERNAL_ENQUEUE_SYMBOL)
    def _enqueue(self, op: DeviceOp) -> DeviceOp:
        """Submit one op to the device command queue."""
        self.gpu.enqueue(op, self.machine.clock.now)
        self.dispatch.publish(op_id=op.op_id, op_kind=_OP_KIND_VALUE[op.kind])
        return op

    @internal_fn(INTERNAL_TRACK_SYMBOL)
    def _track_alloc(self, what: str, nbytes: int) -> None:
        """Driver VM bookkeeping — exists to widen the symbol space."""
        self.dispatch.publish(what=what, nbytes=nbytes)

    def _uvm_fault_handler(self, event) -> None:
        """Demand migration for unified memory (§5.3).

        A CPU touch of a managed page whose data currently lives on the
        device makes the driver silently block until the producing GPU
        work finishes and the pages migrate back.  The transfer is
        performed *by the driver*: no CUPTI record, and no payload
        visible to tools before it completes — which is exactly why the
        paper's Diogenes cannot deduplicate unified-memory transfers.
        The blocking itself funnels through the internal wait, so
        direct instrumentation still observes a synchronization at the
        faulting instruction.
        """
        buf = event.buffer
        if not buf.managed:
            return
        dev = self._managed_by_host.get(id(buf))
        if dev is None or dev.managed_residency != "device":
            return
        p = self.params
        self.machine.cpu_api(p.page_fault_cost, "uvm-fault")
        migration = DeviceOp(
            kind=OpKind.COPY_D2H,
            duration=self.costs.copy_duration(buf.nbytes, "d2h"),
            stream_id=0, name="uvm_migration", nbytes=buf.nbytes,
            tag={"api": "uvm"},
        )
        self._enqueue(migration)
        # The faulting thread blocks until the migrated data is home.
        self._wait_for_completion(migration.end_time, scope="uvm-fault")
        buf.raw_write_bytes(dev.read_shadow(0, buf.nbytes))
        dev.managed_residency = "host"

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    @driver_fn("cuMemAlloc")
    def cuMemAlloc(self, nbytes: int, label: str = "") -> DeviceBuffer:
        """Allocate device memory.  Host-side cost, no synchronization."""
        self.machine.cpu_api(self.params.malloc_cost, "cuMemAlloc")
        buf = self.devmem.allocate(nbytes, label)
        self._track_alloc("device", nbytes)
        self.dispatch.publish(nbytes=nbytes, dptr=buf.dptr)
        return buf

    @driver_fn("cuMemFree")
    def cuMemFree(self, buf: DeviceBuffer) -> None:
        """Free device memory.

        **Implicitly synchronizes the whole device** before releasing
        the allocation — the behaviour behind the cuIBM and cumf_als
        findings.  CUPTI sees the API call but emits no
        synchronization record for the wait.
        """
        buf._check_live()
        self._wait_for_completion(self.gpu.busy_until(), scope="cuMemFree")
        self.machine.cpu_api(self.params.free_cost, "cuMemFree")
        if buf.managed_host is not None:
            buf.managed_host.free()
        self.devmem.free(buf)
        self.dispatch.publish(nbytes=buf.nbytes, dptr=buf.dptr)

    @driver_fn("cuMemAllocHost")
    def cuMemAllocHost(self, shape, dtype=None, label: str = "") -> HostBuffer:
        """Allocate pinned (page-locked) host memory."""
        self.machine.cpu_api(self.params.host_alloc_cost, "cuMemAllocHost")
        buf = HostBuffer(
            self.hostspace, shape, dtype if dtype is not None else np.float64,
            pinned=True, label=label,
        )
        # Pinned pages are CPU/GPU-shared: tools tracking GPU-writable
        # CPU memory (FFM stage 3) need to see the mapping.
        self.dispatch.publish_up(
            pinned_host_address=buf.address, pinned_nbytes=buf.nbytes,
        )
        return buf

    @driver_fn("cuMemFreeHost")
    def cuMemFreeHost(self, buf: HostBuffer) -> None:
        if not buf.pinned:
            raise InvalidValueError("cuMemFreeHost on non-pinned buffer")
        self.machine.cpu_api(self.params.api_call_overhead, "cuMemFreeHost")
        buf.free()

    @driver_fn("cuMemAllocManaged")
    def cuMemAllocManaged(self, shape, dtype=None, label: str = "") -> DeviceBuffer:
        """Allocate unified (managed) memory.

        Returns a :class:`DeviceBuffer` whose ``managed_host`` is the
        CPU-visible :class:`HostBuffer` view of the same allocation.
        """
        self.machine.cpu_api(self.params.managed_alloc_cost, "cuMemAllocManaged")
        host = HostBuffer(
            self.hostspace, shape, dtype if dtype is not None else np.float64,
            managed=True, label=label or "managed",
        )
        dev = self.devmem.allocate(host.nbytes, label=host.label)
        dev.managed_host = host
        self._managed_by_host[id(host)] = dev
        self._track_alloc("managed", host.nbytes)
        self.dispatch.publish(
            nbytes=host.nbytes, dptr=dev.dptr, host_address=host.address,
            managed=True,
        )
        self.dispatch.publish_up(
            managed_host_address=host.address, managed_nbytes=host.nbytes,
        )
        return dev

    # ------------------------------------------------------------------
    # Memory transfers
    # ------------------------------------------------------------------
    def _copy_op(self, kind: OpKind, nbytes: int, stream: int, api: str) -> DeviceOp:
        direction = _COPY_DIRECTION[kind]
        # (kind, duration, stream_id, name, nbytes) by position: an op is
        # built per transfer, and matching keywords is a measurable part
        # of that.
        return DeviceOp(kind, self.costs.copy_duration(nbytes, direction),
                        stream, f"memcpy_{direction}", nbytes,
                        tag={"api": api})

    @driver_fn("cuMemcpyHtoD")
    def cuMemcpyHtoD(
        self, dst: DeviceBuffer, src: HostBuffer,
        nbytes: int | None = None, dst_offset: int = 0, src_offset: int = 0,
    ) -> None:
        """Synchronous host-to-device copy (implicit synchronization)."""
        self._memcpy_htod(dst, src, nbytes, dst_offset, src_offset,
                          stream=0, synchronous=True, api="cuMemcpyHtoD")

    @driver_fn("cuMemcpyHtoDAsync")
    def cuMemcpyHtoDAsync(
        self, dst: DeviceBuffer, src: HostBuffer, stream: int = 0,
        nbytes: int | None = None, dst_offset: int = 0, src_offset: int = 0,
    ) -> None:
        """Asynchronous host-to-device copy.

        Truly asynchronous only from pinned source memory; from
        pageable memory the driver must staging-copy and the call
        becomes synchronous — a *conditional synchronization*.
        """
        self._memcpy_htod(dst, src, nbytes, dst_offset, src_offset,
                          stream=stream, synchronous=not src.pinned,
                          api="cuMemcpyHtoDAsync",
                          sync_reason=None if src.pinned else "pageable-src")

    def _memcpy_htod(self, dst, src, nbytes, dst_offset, src_offset, *,
                     stream, synchronous, api, sync_reason=None) -> None:
        """Copy host bytes into the device shadow, once.

        The source bytes go straight into ``dst``'s shadow; ``payload``
        and ``transfer_payload`` are a read-only *view* of the bytes
        that landed there, not a copy.  They hold the transferred bytes
        until the application next writes that device region, which
        cannot happen inside this call: a probe hashes the view before
        the root call returns (stage 3 does, at root exit), and a probe
        that keeps it longer must copy it.
        """
        if nbytes is None:
            nbytes = min(src.nbytes - src_offset, dst.nbytes - dst_offset)
        self.machine.cpu_api(self.params.api_call_overhead, api)
        op = self._copy_op(OpKind.COPY_H2D, nbytes, stream, api)
        self._enqueue(op)
        payload = dst.write_shadow(src.raw_bytes(src_offset, nbytes),
                                   dst_offset)
        self.dispatch.publish(
            nbytes=nbytes, direction="h2d", payload=payload,
            src_address=src.address + src_offset,
            dst_address=dst.dptr + dst_offset,
            op_id=op.op_id, synchronized=synchronous,
            sync_reason=sync_reason,
        )
        self.dispatch.publish_up(
            transfer_nbytes=nbytes, transfer_direction="h2d",
            transfer_dst=dst.dptr + dst_offset, transfer_payload=payload,
            transfer_src_buffer=src, transfer_src_offset=src_offset,
        )
        if synchronous:
            self._wait_for_completion(op.end_time, scope=api)
        if self._cupti is not None:
            self._cupti.record_memcpy(op, "h2d")

    @driver_fn("cuMemcpyDtoH")
    def cuMemcpyDtoH(
        self, dst: HostBuffer, src: DeviceBuffer,
        nbytes: int | None = None, dst_offset: int = 0, src_offset: int = 0,
    ) -> None:
        """Synchronous device-to-host copy (implicit synchronization)."""
        self._memcpy_dtoh(dst, src, nbytes, dst_offset, src_offset,
                          stream=0, synchronous=True, api="cuMemcpyDtoH")

    @driver_fn("cuMemcpyDtoHAsync")
    def cuMemcpyDtoHAsync(
        self, dst: HostBuffer, src: DeviceBuffer, stream: int = 0,
        nbytes: int | None = None, dst_offset: int = 0, src_offset: int = 0,
    ) -> None:
        """Asynchronous device-to-host copy.

        The paper's flagship conditional synchronization: when the
        destination was not allocated with ``cuMemAllocHost`` (i.e. is
        not pinned), the call silently performs a full synchronization
        that CUPTI never reports.
        """
        self._memcpy_dtoh(dst, src, nbytes, dst_offset, src_offset,
                          stream=stream, synchronous=not dst.pinned,
                          api="cuMemcpyDtoHAsync",
                          sync_reason=None if dst.pinned else "unpinned-dst")

    def _memcpy_dtoh(self, dst, src, nbytes, dst_offset, src_offset, *,
                     stream, synchronous, api, sync_reason=None) -> None:
        """Copy device shadow bytes into host memory, once.

        The shadow bytes go straight into ``dst``; ``payload`` and
        ``transfer_payload`` are a read-only *view* of the bytes that
        landed in the host buffer, under the same contract as
        :meth:`_memcpy_htod`: valid until the application next writes
        that region, so a probe that keeps it past the root call must
        copy it.
        """
        if nbytes is None:
            nbytes = min(src.nbytes - src_offset, dst.nbytes - dst_offset)
        self.machine.cpu_api(self.params.api_call_overhead, api)
        op = self._copy_op(OpKind.COPY_D2H, nbytes, stream, api)
        self._enqueue(op)
        # Device -> host DMA: the payload is whatever the device holds
        # once its prior stream work (the producing kernel) finished.
        payload = dst.raw_write_bytes(src.read_shadow(src_offset, nbytes),
                                      dst_offset)
        self.dispatch.publish(
            nbytes=nbytes, direction="d2h", payload=payload,
            src_address=src.dptr + src_offset,
            dst_address=dst.address + dst_offset,
            dst_buffer=dst,
            op_id=op.op_id, synchronized=synchronous,
            sync_reason=sync_reason,
        )
        self.dispatch.publish_up(
            transfer_nbytes=nbytes, transfer_direction="d2h",
            transfer_dst=dst.address + dst_offset, transfer_payload=payload,
            transfer_dst_buffer=dst, transfer_dst_offset=dst_offset,
        )
        if synchronous:
            self._wait_for_completion(op.end_time, scope=api)
        if self._cupti is not None:
            self._cupti.record_memcpy(op, "d2h")

    @driver_fn("cuMemcpyDtoD")
    def cuMemcpyDtoD(self, dst: DeviceBuffer, src: DeviceBuffer,
                     nbytes: int | None = None, stream: int = 0) -> None:
        """Device-to-device copy; asynchronous."""
        if nbytes is None:
            nbytes = min(src.nbytes, dst.nbytes)
        self.machine.cpu_api(self.params.api_call_overhead, "cuMemcpyDtoD")
        op = self._copy_op(OpKind.COPY_D2D, nbytes, stream, "cuMemcpyDtoD")
        self._enqueue(op)
        dst.write_shadow(src.read_shadow(0, nbytes).copy())
        self.dispatch.publish(nbytes=nbytes, direction="d2d", op_id=op.op_id)
        self.dispatch.publish_up(
            transfer_nbytes=nbytes, transfer_direction="d2d",
            transfer_dst=dst.dptr,
        )
        if self._cupti is not None:
            self._cupti.record_memcpy(op, "d2d")

    # ------------------------------------------------------------------
    # Memset
    # ------------------------------------------------------------------
    @driver_fn("cuMemsetD8")
    def cuMemsetD8(self, dst: DeviceBuffer, value: int,
                   nbytes: int | None = None, stream: int = 0) -> None:
        """Set device memory.

        On an ordinary device allocation this enqueues an asynchronous
        device-side memset.  On a **unified-memory address** whose
        pages are host-resident, the driver must first synchronize and
        then fault the pages — the conditional synchronization behind
        the AMG finding (§5.1).
        """
        if nbytes is None:
            nbytes = dst.nbytes
        self.machine.cpu_api(self.params.api_call_overhead, "cuMemsetD8")
        if dst.managed_host is not None:
            # Unified memory: synchronize, then set host-resident pages.
            self._wait_for_completion(self.gpu.busy_until(), scope="cuMemsetD8")
            p = self.params
            self.machine.cpu_api(
                p.page_fault_cost + self.costs.host_memop_duration(nbytes),
                "cuMemsetD8",
            )
            dst.managed_host.raw_write_bytes(
                np.full(nbytes, value & 0xFF, dtype=np.uint8)
            )
            dst.fill_shadow(value, 0, nbytes)
            dst.managed_residency = "host"
            self.dispatch.publish(nbytes=nbytes, managed=True, synchronized=True,
                                  sync_reason="unified-memory-dst")
            return
        op = DeviceOp(
            kind=OpKind.MEMSET,
            duration=self.costs.memset_duration(nbytes),
            stream_id=stream, name="memset", nbytes=nbytes,
            tag={"api": "cuMemsetD8"},
        )
        self._enqueue(op)
        dst.fill_shadow(value, 0, nbytes)
        self.dispatch.publish(nbytes=nbytes, managed=False, synchronized=False,
                              op_id=op.op_id)
        if self._cupti is not None:
            self._cupti.record_memset(op)

    # ------------------------------------------------------------------
    # Kernel launch
    # ------------------------------------------------------------------
    @driver_fn("cuLaunchKernel")
    def cuLaunchKernel(
        self,
        name: str,
        cost: KernelCost | float,
        stream: int = 0,
        writes=None,
    ) -> DeviceOp:
        """Launch a kernel asynchronously.

        ``cost`` is a :class:`KernelCost` or a plain duration in
        seconds (``math.inf`` launches the never-completing probe
        kernel used by sync-function discovery).  ``writes`` is an
        iterable of ``(buffer, array)`` pairs applied to device
        shadows (or managed host memory) when the kernel "executes" —
        values never affect timing, only downstream hashes and
        application results.
        """
        explicit = (float(cost) if isinstance(cost, (int, float))
                    else cost.duration)
        duration = (
            math.inf if explicit is not None and math.isinf(explicit)
            else self.costs.kernel_duration(cost)
        )
        self.machine.cpu_api(self.params.launch_overhead, "cuLaunchKernel")
        # (kind, duration, stream_id, name) by position, as in _copy_op.
        op = DeviceOp(OpKind.KERNEL, duration, stream, name,
                      tag={"api": "cuLaunchKernel"})
        self._enqueue(op)
        for target, data in (writes or ()):
            if isinstance(target, DeviceBuffer):
                if target.managed_host is not None:
                    # Unified memory: the result now lives on the device;
                    # CPU touches will demand-fault it back.
                    target.managed_residency = "device"
                target.write_shadow(data)
            elif isinstance(target, HostBuffer):
                target.raw_write_bytes(_as_bytes(data))
            else:
                raise InvalidValueError(
                    f"kernel write target must be a buffer, got {type(target)!r}"
                )
        self.dispatch.publish(kernel=name, op_id=op.op_id, stream=stream)
        if self._cupti is not None:
            self._cupti.record_kernel(op)
        return op

    @driver_fn("cuFuncGetAttributes")
    def cuFuncGetAttributes(self, name: str) -> dict:
        """Query kernel attributes — pure host-side cost, no device work.

        cuIBM issues one of these per Thrust dispatch, which is why it
        shows up so prominently in Table 2's HPCToolkit column.
        """
        self.machine.cpu_api(self.params.api_call_overhead, "cuFuncGetAttributes")
        return {"name": name, "maxThreadsPerBlock": 1024, "numRegs": 32}

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    @driver_fn("cuEventCreate")
    def cuEventCreate(self) -> "CudaEvent":
        self.machine.cpu_api(self.params.api_call_overhead,
                             "cuEventCreate")
        return CudaEvent()

    @driver_fn("cuEventDestroy")
    def cuEventDestroy(self, event: "CudaEvent") -> None:
        self.machine.cpu_api(self.params.api_call_overhead,
                             "cuEventDestroy")
        event.destroyed = True

    @driver_fn("cuEventRecord")
    def cuEventRecord(self, event: "CudaEvent", stream: int = 0) -> None:
        """Record an event: it fires when the stream's currently-enqueued
        work completes.  Host-side this is asynchronous."""
        event._check_live()
        self.machine.cpu_api(self.params.api_call_overhead,
                             "cuEventRecord")
        event.fire_time = self.gpu.stream_completion_time(stream)
        event.recorded = True
        self.dispatch.publish(stream=stream, fire_time=event.fire_time)

    @driver_fn("cuEventSynchronize")
    def cuEventSynchronize(self, event: "CudaEvent") -> None:
        """Block until the event fires — an *explicit* synchronization,
        reported by CUPTI like the other explicit syncs."""
        event._check_live()
        if not event.recorded:
            raise InvalidValueError("cuEventSynchronize on unrecorded event")
        t0 = self.machine.clock.now
        self._wait_for_completion(event.fire_time, scope="cuEventSynchronize")
        if self._cupti is not None:
            self._cupti.record_sync("event", t0, self.machine.clock.now,
                                    "cuEventSynchronize")

    @driver_fn("cuEventQuery")
    def cuEventQuery(self, event: "CudaEvent") -> bool:
        """Non-blocking poll: has the event fired yet?"""
        event._check_live()
        self.machine.cpu_api(self.params.api_call_overhead,
                             "cuEventQuery")
        return event.recorded and event.fire_time <= self.machine.clock.now

    @driver_fn("cuEventElapsedTime")
    def cuEventElapsedTime(self, start: "CudaEvent", end: "CudaEvent") -> float:
        """Milliseconds between two recorded events (device timeline)."""
        if not (start.recorded and end.recorded):
            raise InvalidValueError("cuEventElapsedTime on unrecorded event")
        self.machine.cpu_api(self.params.api_call_overhead,
                             "cuEventElapsedTime")
        return (end.fire_time - start.fire_time) * 1e3

    # ------------------------------------------------------------------
    # Streams & synchronization
    # ------------------------------------------------------------------
    @driver_fn("cuStreamCreate")
    def cuStreamCreate(self) -> int:
        self.machine.cpu_api(self.params.api_call_overhead, "cuStreamCreate")
        return self.gpu.create_stream()

    @driver_fn("cuStreamDestroy")
    def cuStreamDestroy(self, stream: int) -> None:
        self.machine.cpu_api(self.params.api_call_overhead, "cuStreamDestroy")
        self.gpu.destroy_stream(stream)

    @driver_fn("cuStreamQuery")
    def cuStreamQuery(self, stream: int) -> bool:
        """Non-blocking poll: has all work on ``stream`` completed?"""
        self.machine.cpu_api(self.params.api_call_overhead,
                             "cuStreamQuery")
        return self.gpu.stream_completion_time(stream) <= self.machine.clock.now

    @driver_fn("cuCtxSynchronize")
    def cuCtxSynchronize(self) -> None:
        """Explicit full-device synchronization.

        The only sync path (besides ``cuStreamSynchronize``) for which
        the CUPTI-like framework emits a synchronization record.
        """
        t0 = self.machine.clock.now
        self._wait_for_completion(self.gpu.busy_until(), scope="cuCtxSynchronize")
        if self._cupti is not None:
            self._cupti.record_sync("context", t0, self.machine.clock.now,
                                    "cuCtxSynchronize")

    @driver_fn("cuStreamSynchronize")
    def cuStreamSynchronize(self, stream: int) -> None:
        """Explicit single-stream synchronization (CUPTI-visible)."""
        t0 = self.machine.clock.now
        self._wait_for_completion(
            self.gpu.stream_completion_time(stream), scope="cuStreamSynchronize",
        )
        if self._cupti is not None:
            self._cupti.record_sync("stream", t0, self.machine.clock.now,
                                    "cuStreamSynchronize")
