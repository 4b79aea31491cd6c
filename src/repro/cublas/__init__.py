"""Fake vendor BLAS library built on the *private* driver API.

Reproduces the paper's observation that vendor libraries (cuBLAS)
perform driver operations through proprietary entry points that CUPTI
never reports, including hidden synchronizations.  Any workload using
this package exercises the "operations unreported by existing tools"
path of the evaluation.
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "CublasHandle": "repro.cublas.gemm",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
