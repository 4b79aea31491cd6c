"""Reproduction of "Diogenes: Looking For An Honest CPU/GPU Performance
Measurement Tool" (Welton & Miller, SC '19).

Public API tour
---------------
The fastest route is the tool itself::

    from repro import Diogenes
    from repro.apps.cumf_als import CumfAls

    report = Diogenes(CumfAls(iterations=10)).run()
    print(report.total_benefit_percent)

Layers (bottom-up):

* :mod:`repro.sim` — virtual-time CPU/GPU execution simulator.
* :mod:`repro.hostmem` — trackable host memory with load/store hooks.
* :mod:`repro.driver` / :mod:`repro.runtime` — CUDA-like driver and
  runtime with the paper's synchronization semantics;
  :mod:`repro.cublas` — a vendor library on the private API.
* :mod:`repro.cupti` — the vendor black box, gaps included.
* :mod:`repro.instr` — binary-instrumentation analogue.
* :mod:`repro.core` — the FFM model: collection stages, execution
  graph, expected-benefit estimator, groupings, reports, CLI.
* :mod:`repro.profilers` — NVProf/HPCToolkit-like baselines.
* :mod:`repro.apps` — evaluation workloads.

See DESIGN.md for the substitution table (what the paper used on real
hardware vs what this package builds) and EXPERIMENTS.md for
paper-vs-measured results per table and figure.
"""

from repro._lazy import exports

__version__ = "1.0.0"

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "Diogenes": "repro.core.diogenes",
    "DiogenesConfig": "repro.core.diogenes",
    "DiogenesReport": "repro.core.diogenes",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__ = exports(__name__, _EXPORTS)
