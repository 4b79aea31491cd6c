"""The proprietary, non-public driver API.

The paper (§2.2) observes that Nvidia-created libraries such as cuBLAS
perform operations through private driver components that CUPTI never
reports — "the call and the operation it performs are not reported".
These functions reproduce that surface: they do real work (launches,
copies, synchronizations) through the same internal machinery as the
public API — including the Figure-3 wait funnel, so *direct*
instrumentation still sees their synchronizations — but they emit no
CUPTI records of any kind.

Implemented as free functions taking the driver to emphasise that they
are a separate linkage unit grafted onto ``libcuda``; they register
their symbols on the shared dispatcher at :func:`install`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.driver.api import CudaDriver
from repro.driver.handles import DeviceBuffer
from repro.hostmem.buffer import HostBuffer
from repro.sim.costs import KernelCost
from repro.sim.ops import DeviceOp, OpKind

PRIVATE_LAUNCH_SYMBOL = "__priv_submit_work"
PRIVATE_MEMCPY_SYMBOL = "__priv_dma"
PRIVATE_SYNC_SYMBOL = "__priv_fence"

_PRIVATE_SYMBOLS = (
    (PRIVATE_LAUNCH_SYMBOL, "driver-private"),
    (PRIVATE_MEMCPY_SYMBOL, "driver-private"),
    (PRIVATE_SYNC_SYMBOL, "driver-private"),
)


def install(driver: CudaDriver) -> None:
    """Register the private symbols on the driver's dispatcher.

    Idempotent; called by the execution-context factory so the private
    surface is always present, as it is in a real driver.
    """
    for name, layer in _PRIVATE_SYMBOLS:
        driver.dispatch.register_symbol(name, layer)


def private_launch(driver: CudaDriver, name: str, cost: KernelCost | float,
                   stream: int = 0, writes=None) -> DeviceOp:
    """Launch a kernel through the private path (CUPTI-invisible)."""

    def impl() -> DeviceOp:
        if isinstance(cost, (int, float)):
            kc = KernelCost(duration=float(cost))
        else:
            kc = cost
        duration = (
            math.inf if kc.duration is not None and math.isinf(kc.duration)
            else driver.costs.kernel_duration(kc)
        )
        driver.machine.cpu_api(driver.params.launch_overhead,
                               PRIVATE_LAUNCH_SYMBOL)
        op = DeviceOp(kind=OpKind.KERNEL, duration=duration, stream_id=stream,
                      name=name, tag={"api": PRIVATE_LAUNCH_SYMBOL})
        driver._enqueue(op)
        for target, data in (writes or ()):
            target.write_shadow(data)
        driver.dispatch.publish(kernel=name, op_id=op.op_id)
        return op

    return driver.dispatch.call(PRIVATE_LAUNCH_SYMBOL, "driver-private", impl)


def private_memcpy_dtoh(driver: CudaDriver, dst: HostBuffer, src: DeviceBuffer,
                        nbytes: int | None = None) -> None:
    """Synchronous D2H copy through the private path.

    Synchronizes through the internal funnel (Diogenes-visible) but
    produces neither an API nor a memcpy CUPTI record.
    """

    def impl() -> None:
        n = min(src.nbytes, dst.nbytes) if nbytes is None else nbytes
        driver.machine.cpu_api(driver.params.api_call_overhead,
                               PRIVATE_MEMCPY_SYMBOL)
        op = DeviceOp(
            kind=OpKind.COPY_D2H,
            duration=driver.costs.copy_duration(n, "d2h"),
            stream_id=0, name="priv_memcpy_d2h", nbytes=n,
            tag={"api": PRIVATE_MEMCPY_SYMBOL},
        )
        driver._enqueue(op)
        # One copy; the published payload is a view of the landed bytes
        # (see CudaDriver._memcpy_dtoh).
        payload = dst.raw_write_bytes(src.read_shadow(0, n))
        driver.dispatch.publish(
            nbytes=n, direction="d2h", payload=payload,
            src_address=src.dptr, dst_address=dst.address, dst_buffer=dst,
            op_id=op.op_id, synchronized=True, sync_reason="private-api",
        )
        driver.dispatch.publish_up(
            transfer_nbytes=n, transfer_direction="d2h",
            transfer_dst=dst.address, transfer_payload=payload,
            transfer_dst_buffer=dst, transfer_dst_offset=0,
        )
        driver._wait_for_completion(op.end_time, scope=PRIVATE_MEMCPY_SYMBOL)

    return driver.dispatch.call(PRIVATE_MEMCPY_SYMBOL, "driver-private", impl)


def private_memcpy_htod(driver: CudaDriver, dst: DeviceBuffer, src: HostBuffer,
                        nbytes: int | None = None) -> None:
    """Synchronous H2D copy through the private path (CUPTI-invisible)."""

    def impl() -> None:
        n = min(src.nbytes, dst.nbytes) if nbytes is None else nbytes
        driver.machine.cpu_api(driver.params.api_call_overhead,
                               PRIVATE_MEMCPY_SYMBOL)
        op = DeviceOp(
            kind=OpKind.COPY_H2D,
            duration=driver.costs.copy_duration(n, "h2d"),
            stream_id=0, name="priv_memcpy_h2d", nbytes=n,
            tag={"api": PRIVATE_MEMCPY_SYMBOL},
        )
        driver._enqueue(op)
        # One copy; the published payload is a view of the landed bytes
        # (see CudaDriver._memcpy_htod).
        payload = dst.write_shadow(src.raw_bytes(0, n))
        driver.dispatch.publish(
            nbytes=n, direction="h2d", payload=payload,
            src_address=src.address, dst_address=dst.dptr,
            op_id=op.op_id, synchronized=True, sync_reason="private-api",
        )
        driver.dispatch.publish_up(
            transfer_nbytes=n, transfer_direction="h2d",
            transfer_dst=dst.dptr, transfer_payload=payload,
            transfer_src_buffer=src, transfer_src_offset=0,
        )
        driver._wait_for_completion(op.end_time, scope=PRIVATE_MEMCPY_SYMBOL)

    return driver.dispatch.call(PRIVATE_MEMCPY_SYMBOL, "driver-private", impl)


def private_fence(driver: CudaDriver) -> None:
    """Full-device synchronization through the private path."""

    def impl() -> None:
        driver.machine.cpu_api(driver.params.api_call_overhead,
                               PRIVATE_SYNC_SYMBOL)
        driver._wait_for_completion(driver.gpu.busy_until(),
                                    scope=PRIVATE_SYNC_SYMBOL)

    return driver.dispatch.call(PRIVATE_SYNC_SYMBOL, "driver-private", impl)
