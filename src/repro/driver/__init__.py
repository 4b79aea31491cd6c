"""The simulated GPU user-space driver (the ``libcuda.so`` role).

Everything Diogenes measures funnels through this package:

* :mod:`repro.driver.dispatch` — the interceptable call layer; every
  public, internal, and private driver entry point routes through one
  dispatcher so instrumentation probes can wrap any of them (what
  Dyninst gives the real tool).
* :mod:`repro.driver.api` — the public driver API (``cuMemAlloc``,
  ``cuMemcpyHtoD``, ``cuCtxSynchronize`` ...) plus the *internal
  synchronization function* of Figure 3 that all blocking paths call.
* :mod:`repro.driver.private` — the proprietary non-public driver
  surface used by vendor libraries (our fake cuBLAS), invisible to the
  CUPTI-like framework but not to direct instrumentation.
* :mod:`repro.driver.handles` — device memory handles.
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "CudaDriver": "repro.driver.api",
    "INTERNAL_WAIT_SYMBOL": "repro.driver.api",
    "Dispatcher": "repro.driver.dispatch",
    "CudaDriverError": "repro.driver.errors",
    "InvalidHandleError": "repro.driver.errors",
    "DeviceAllocator": "repro.driver.handles",
    "DeviceBuffer": "repro.driver.handles",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
