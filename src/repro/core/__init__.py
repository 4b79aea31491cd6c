"""The Feed Forward Measurement (FFM) model — the paper's contribution.

Five stages, four of them separate instrumented runs of the workload
(§3 of the paper), orchestrated by :class:`repro.core.diogenes.Diogenes`:

1. :mod:`repro.core.stage1_baseline` — baseline time + discovery of
   synchronizing call sites through the internal wait funnel.
2. :mod:`repro.core.stage2_tracing` — entry/exit traces of every sync
   and transfer operation.
3. :mod:`repro.core.stage3_memtrace` — protected-region memory tracing
   (sync necessity) and content-hash deduplication (duplicate
   transfers).
4. :mod:`repro.core.stage4_syncuse` — time from sync completion to
   first use of protected data.
5. :mod:`repro.core.analysis` — program graph construction
   (:mod:`repro.core.graph`), the expected-benefit algorithm of
   Figure 5 (:mod:`repro.core.benefit`), problem grouping
   (:mod:`repro.core.grouping`, :mod:`repro.core.sequences`), and
   ranked, JSON-exportable reports (:mod:`repro.core.report`).
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "AnalysisResult": "repro.core.analysis",
    "ProblemKind": "repro.core.analysis",
    "Diogenes": "repro.core.diogenes",
    "DiogenesConfig": "repro.core.diogenes",
    "Stage1Data": "repro.core.records",
    "Stage2Data": "repro.core.records",
    "Stage3Data": "repro.core.records",
    "Stage4Data": "repro.core.records",
    "TraceEvent": "repro.core.records",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
