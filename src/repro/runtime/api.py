"""The CUDA runtime API.

Thin, faithful wrappers over the driver.  Each entry point:

* routes through the shared dispatcher in the ``"runtime"`` layer (so
  instrumentation can wrap runtime symbols too — HPCToolkit-style
  tools attribute to these names);
* charges a small host-side forwarding overhead;
* reports a runtime-API interval record to the attached CUPTI
  subscription (when present);
* forwards to the corresponding driver call, inheriting its implicit /
  conditional synchronization semantics.

Semantics cheat-sheet (all reproduced from the paper §2.2/§5.1):

====================  =============================================
call                  synchronization behaviour
====================  =============================================
cudaMemcpy            implicit full wait for the copy (+ stream order)
cudaMemcpyAsync D2H   *conditional*: syncs when dst is not pinned
cudaMemcpyAsync H2D   *conditional*: syncs when src is pageable
cudaFree              implicit full-device sync
cudaMemset            *conditional*: syncs on unified-memory dst
cudaDeviceSynchronize explicit (CUPTI-visible)
cudaThreadSynchronize deprecated alias of cudaDeviceSynchronize
cudaStreamSynchronize explicit (CUPTI-visible)
====================  =============================================
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.driver.api import CudaDriver
from repro.driver.handles import DeviceBuffer
from repro.hostmem.buffer import HostBuffer
from repro.sim.costs import KernelCost

#: Host-side cost of the runtime->driver forwarding shim.
_RUNTIME_SHIM_COST = 0.4e-6


def runtime_fn(name: str) -> Callable:
    """Decorator: dispatch a runtime method and emit its CUPTI record.

    The dispatched ``impl`` (forwarding charge, the method itself, the
    CUPTI API record) is built once, here, and handed to
    :meth:`~repro.driver.dispatch.Dispatcher.call` with the call's
    arguments, so a runtime call allocates no closure.
    """

    def deco(fn: Callable) -> Callable:
        def impl(self, *args, **kwargs):
            driver = self.driver
            machine = driver.machine
            t0 = machine.clock.now
            machine.cpu_api(_RUNTIME_SHIM_COST, name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                cupti = driver._cupti
                if cupti is not None:
                    cupti.record_api(name, "runtime", t0, machine.clock.now)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            return self.driver.dispatch.call(name, "runtime", impl,
                                             self, *args, **kwargs)

        wrapper._dispatch_symbol = (name, "runtime")
        return wrapper

    return deco


class CudaRuntime:
    """The application-facing CUDA runtime bound to one driver."""

    def __init__(self, driver: CudaDriver) -> None:
        self.driver = driver
        for attr in dir(type(self)):
            fn = getattr(type(self), attr, None)
            sym = getattr(fn, "_dispatch_symbol", None)
            if sym is not None:
                driver.dispatch.register_symbol(*sym)

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    @runtime_fn("cudaMalloc")
    def cudaMalloc(self, nbytes: int, label: str = "") -> DeviceBuffer:
        return self.driver.cuMemAlloc(nbytes, label)

    @runtime_fn("cudaFree")
    def cudaFree(self, buf: DeviceBuffer) -> None:
        self.driver.cuMemFree(buf)

    @runtime_fn("cudaMallocHost")
    def cudaMallocHost(self, shape, dtype=None, label: str = "") -> HostBuffer:
        return self.driver.cuMemAllocHost(shape, dtype, label)

    @runtime_fn("cudaFreeHost")
    def cudaFreeHost(self, buf: HostBuffer) -> None:
        self.driver.cuMemFreeHost(buf)

    @runtime_fn("cudaMallocManaged")
    def cudaMallocManaged(self, shape, dtype=None, label: str = "") -> DeviceBuffer:
        return self.driver.cuMemAllocManaged(shape, dtype, label)

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    @runtime_fn("cudaMemcpy")
    def cudaMemcpy(self, dst, src, nbytes: int | None = None,
                   dst_offset: int = 0, src_offset: int = 0) -> None:
        """Synchronous copy; direction inferred from argument types."""
        if isinstance(dst, DeviceBuffer) and isinstance(src, HostBuffer):
            self.driver.cuMemcpyHtoD(dst, src, nbytes, dst_offset, src_offset)
        elif isinstance(dst, HostBuffer) and isinstance(src, DeviceBuffer):
            self.driver.cuMemcpyDtoH(dst, src, nbytes, dst_offset, src_offset)
        elif isinstance(dst, DeviceBuffer) and isinstance(src, DeviceBuffer):
            self.driver.cuMemcpyDtoD(dst, src, nbytes)
        else:
            raise TypeError(
                f"cannot infer copy direction from ({type(dst).__name__}, "
                f"{type(src).__name__})"
            )

    @runtime_fn("cudaMemcpyAsync")
    def cudaMemcpyAsync(self, dst, src, stream: int = 0,
                        nbytes: int | None = None,
                        dst_offset: int = 0, src_offset: int = 0) -> None:
        """Asynchronous copy — but see the conditional-sync table above."""
        if isinstance(dst, DeviceBuffer) and isinstance(src, HostBuffer):
            self.driver.cuMemcpyHtoDAsync(dst, src, stream, nbytes,
                                          dst_offset, src_offset)
        elif isinstance(dst, HostBuffer) and isinstance(src, DeviceBuffer):
            self.driver.cuMemcpyDtoHAsync(dst, src, stream, nbytes,
                                          dst_offset, src_offset)
        elif isinstance(dst, DeviceBuffer) and isinstance(src, DeviceBuffer):
            self.driver.cuMemcpyDtoD(dst, src, nbytes, stream)
        else:
            raise TypeError(
                f"cannot infer copy direction from ({type(dst).__name__}, "
                f"{type(src).__name__})"
            )

    @runtime_fn("cudaMemset")
    def cudaMemset(self, dst: DeviceBuffer, value: int,
                   nbytes: int | None = None) -> None:
        self.driver.cuMemsetD8(dst, value, nbytes)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    @runtime_fn("cudaLaunchKernel")
    def cudaLaunchKernel(self, name: str, cost: KernelCost | float,
                         stream: int = 0, writes=None):
        return self.driver.cuLaunchKernel(name, cost, stream, writes)

    @runtime_fn("cudaFuncGetAttributes")
    def cudaFuncGetAttributes(self, name: str) -> dict:
        return self.driver.cuFuncGetAttributes(name)

    # ------------------------------------------------------------------
    # Synchronization & streams
    # ------------------------------------------------------------------
    @runtime_fn("cudaDeviceSynchronize")
    def cudaDeviceSynchronize(self) -> None:
        self.driver.cuCtxSynchronize()

    @runtime_fn("cudaThreadSynchronize")
    def cudaThreadSynchronize(self) -> None:
        """Deprecated alias of :meth:`cudaDeviceSynchronize`.

        Kept because the Rodinia Gaussian benchmark (and Table 2) use
        it by name.
        """
        self.driver.cuCtxSynchronize()

    @runtime_fn("cudaStreamQuery")
    def cudaStreamQuery(self, stream: int) -> bool:
        return self.driver.cuStreamQuery(stream)

    @runtime_fn("cudaStreamSynchronize")
    def cudaStreamSynchronize(self, stream: int) -> None:
        self.driver.cuStreamSynchronize(stream)

    @runtime_fn("cudaEventCreate")
    def cudaEventCreate(self):
        return self.driver.cuEventCreate()

    @runtime_fn("cudaEventDestroy")
    def cudaEventDestroy(self, event) -> None:
        self.driver.cuEventDestroy(event)

    @runtime_fn("cudaEventRecord")
    def cudaEventRecord(self, event, stream: int = 0) -> None:
        self.driver.cuEventRecord(event, stream)

    @runtime_fn("cudaEventSynchronize")
    def cudaEventSynchronize(self, event) -> None:
        self.driver.cuEventSynchronize(event)

    @runtime_fn("cudaEventQuery")
    def cudaEventQuery(self, event) -> bool:
        return self.driver.cuEventQuery(event)

    @runtime_fn("cudaEventElapsedTime")
    def cudaEventElapsedTime(self, start, end) -> float:
        return self.driver.cuEventElapsedTime(start, end)

    @runtime_fn("cudaStreamCreate")
    def cudaStreamCreate(self) -> int:
        return self.driver.cuStreamCreate()

    @runtime_fn("cudaStreamDestroy")
    def cudaStreamDestroy(self, stream: int) -> None:
        self.driver.cuStreamDestroy(stream)
