"""Workloads: the applications Diogenes is evaluated on.

Faithful behavioural models of the paper's four evaluation programs —
each computes real results with numpy and issues the same *pattern* of
GPU API calls (including the problematic ones) the original issues,
with the paper's fix available as a switch:

* :mod:`repro.apps.cumf_als` — ALS matrix factorization with the
  23-operation problematic sequence of Figure 6.
* :mod:`repro.apps.cuibm` — immersed-boundary CFD with per-call
  Thrust temporary alloc/free (the Figure 7 ``cudaFree`` fold).
* :mod:`repro.apps.amg` — algebraic multigrid with the
  unified-memory ``cudaMemset`` conditional sync.
* :mod:`repro.apps.rodinia_gaussian` — Gaussian elimination with the
  stray ``cudaThreadSynchronize``.

Plus :mod:`repro.apps.synthetic` pattern generators used heavily by
the test suite.
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "Workload": "repro.apps.base",
    "registry": "repro.apps.base",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
