"""Comparison profilers (the Table 2 baselines).

Reproductions of the two tools the paper compares Diogenes against:

* :mod:`repro.profilers.nvprof` — a CUPTI-summary profiler: exact
  per-API-call totals from activity records, inheriting every CUPTI
  blind spot, and crashing when the activity volume exceeds its
  buffers (as NVProf did on cuIBM, §5.2).
* :mod:`repro.profilers.hpctoolkit` — a sampling profiler attributing
  periodic samples to the in-flight API call, with an attribution-loss
  model for samples taken inside opaque driver waits (the paper
  observed HPCToolkit under-reporting long waits and left the cause
  open; we model it as unwind failures in vendor code).

Both report *resource consumption at points in the program* — the
paper's central argument is that this is not the same thing as
*obtainable benefit*, which is what Diogenes estimates instead.
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "ProfileEntry": "repro.profilers.base",
    "ProfileResult": "repro.profilers.base",
    "HpcToolkitProfiler": "repro.profilers.hpctoolkit",
    "NvprofCrashedError": "repro.profilers.nvprof",
    "NvprofProfiler": "repro.profilers.nvprof",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
