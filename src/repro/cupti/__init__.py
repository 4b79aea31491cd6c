"""CUPTI-like vendor performance data collection framework.

This is the *black box* of §2.2, reproduced gap-for-gap.  Tools built
on it (our NVProf- and HPCToolkit-like profilers) inherit:

* **No synchronization records for implicit/conditional syncs.**
  Only ``cuCtxSynchronize`` / ``cuStreamSynchronize`` (and their
  runtime wrappers) produce synchronization activity records;
  the waits inside ``cuMemFree``, ``cuMemcpy`` and unpinned
  ``cuMemcpyAsync`` are invisible.
* **No records for the private driver API.**  Vendor-library work
  (:mod:`repro.cublas`) is entirely unreported.
* **Bounded activity buffers.**  Like the real CUPTI, records land in
  fixed-size buffers; tools that cannot drain them fast enough lose
  data — and the NVProf reproduction crashes past a call-count limit,
  as observed on cuIBM in the paper (§5.2).
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "CuptiSubscription": "repro.cupti.activity",
    "ApiRecord": "repro.cupti.records",
    "KernelActivity": "repro.cupti.records",
    "MemcpyActivity": "repro.cupti.records",
    "MemsetActivity": "repro.cupti.records",
    "SyncActivity": "repro.cupti.records",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
