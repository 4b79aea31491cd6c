"""CUDA runtime API layer (the ``libcudart`` role).

Applications program against :class:`repro.runtime.api.CudaRuntime` —
``cudaMalloc``, ``cudaMemcpy``, ``cudaDeviceSynchronize`` and friends —
which forwards to the driver (:mod:`repro.driver`) exactly the way the
real runtime forwards to ``libcuda``.  The runtime names are the ones
profilers display (Table 2 reports ``cudaFree``, not ``cuMemFree``).

:class:`repro.runtime.context.ExecutionContext` is the top-level bundle
a workload runs on: machine + host address space + driver + runtime +
stack tracker, built fresh for every run (FFM is a multi-*run* model).
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "CudaRuntime": "repro.runtime.api",
    "ExecutionContext": "repro.runtime.context",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
