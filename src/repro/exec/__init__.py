"""Parallel stage execution and result caching (``repro.exec``).

The paper's Feed-Forward Measurement model re-executes the workload
once per collection stage, which it names as the tool's dominant cost
(8x-20x one uninstrumented run, §5.3).  Those runs are independent
given their upstream data, so this package executes them as jobs:

* :mod:`repro.exec.jobs` — picklable stage-run specs and the worker
  entry point (inline and pool paths share it);
* :mod:`repro.exec.executor` — the process-pool scheduler with a
  deterministic, input-ordered merge;
* :mod:`repro.exec.cache` — content-addressed on-disk result cache;
* :mod:`repro.exec.fingerprint` — cache keys: workload fingerprint,
  stage, tool configuration, and a whole-package code digest.

Wired into the tool via ``Diogenes(workload, executor=...)`` and the
CLI's ``--jobs`` / ``--cache-dir`` flags.  Design and invalidation
rules: ``docs/parallel_execution.md``.
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "ResultCache": "repro.exec.cache",
    "StageExecutor": "repro.exec.executor",
    "JobResult": "repro.exec.jobs",
    "StageJob": "repro.exec.jobs",
    "WorkloadSpec": "repro.exec.jobs",
    "execute_job": "repro.exec.jobs",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
