"""Diogenes — the tool that drives the FFM model end to end (§4).

``Diogenes(workload).run()`` executes the four collection runs and the
analysis with no user interaction between stages, exactly like the
paper's tool ("no user involvement is necessary to advance Diogenes
through the stages").  The result object bundles every stage's data,
the ranked problems, groupings, sequences, and overhead accounting,
and exports to JSON (:mod:`repro.core.jsonio`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro.obs as obs
from repro.core.analysis import AnalysisResult, analyze
from repro.core.benefit import BenefitConfig
from repro.core.grouping import ProblemGroup, group_by_api, group_folded_function, group_single_point
from repro.core.records import Stage1Data, Stage2Data, Stage3Data, Stage4Data
from repro.core.sequences import Sequence, find_sequences
from repro.core.stage1_baseline import run_stage1
from repro.core.stage2_tracing import run_stage2
from repro.core.stage3_memtrace import run_stage3
from repro.core.stage4_syncuse import run_stage4
from repro.sim.machine import MachineConfig
from repro.stream.sink import active_sink


@dataclass(frozen=True)
class DiogenesConfig:
    """All tool knobs in one place.

    Overheads are the virtual cost of instrumentation snippets and are
    charged to the simulated clock (this is what makes collection runs
    8×–20× slower, §5.3).  Stage 1 must stay lightweight so the
    baseline time is honest; later stages may be expensive.
    """

    machine_config: MachineConfig = field(default_factory=MachineConfig)

    # Instrumentation snippet costs (virtual seconds per probe hit):
    # a Dyninst-style trampoline, snippet, and stack walk per event.
    baseline_probe_overhead: float = 0.3e-6
    tracing_probe_overhead: float = 3.0e-6
    memtrace_probe_overhead: float = 4.0e-6
    syncuse_probe_overhead: float = 3.0e-6
    loadstore_overhead: float = 1.5e-6

    #: Bytes/second the stage-3 hasher sustains (dynamic probe cost).
    hash_bandwidth: float = 1e9

    #: Transfer dedup matching policy ("content" or "content+dst").
    dedup_policy: str = "content"

    #: How the collection stages store traced events: ``"columnar"``
    #: (append-only column builders, :mod:`repro.core.colbuild`) or
    #: ``"rows"`` (the legacy per-event dataclass path).  Both engines
    #: produce byte-identical stage data and reports; columnar is an
    #: order of magnitude cheaper per event.
    record_engine: str = "columnar"

    #: Required syncs with a first-use delay at least this long are
    #: flagged misplaced.
    misplaced_min_delay: float = 50e-6

    #: Expected-benefit estimator options.
    benefit: BenefitConfig = field(default_factory=BenefitConfig)

    #: Minimum entries for a run of problems to be reported as a sequence.
    sequence_min_length: int = 2


@dataclass
class OverheadReport:
    """Collection cost accounting (§5.3)."""

    baseline_time: float
    stage_times: dict[str, float]

    @property
    def total_collection_time(self) -> float:
        return sum(self.stage_times.values())

    @property
    def overhead_multiple(self) -> float:
        """Total collection time as a multiple of one uninstrumented run."""
        if self.baseline_time <= 0:
            return 0.0
        return self.total_collection_time / self.baseline_time


@dataclass
class DiogenesReport:
    """Everything one Diogenes session produced."""

    workload_name: str
    stage1: Stage1Data
    stage2: Stage2Data
    stage3: Stage3Data
    stage4: Stage4Data
    analysis: AnalysisResult
    api_folds: list[ProblemGroup]
    single_points: list[ProblemGroup]
    folded_functions: list[ProblemGroup]
    sequences: list[Sequence]
    overhead: OverheadReport
    #: Run-to-run stability findings (§5.3): FFM matches operations
    #: across runs by call site + occurrence, so behaviour differences
    #: between the collection runs degrade the analysis.  Non-empty
    #: warnings mean results for the named sites are unreliable.
    warnings: list[str] = field(default_factory=list)

    @property
    def total_benefit(self) -> float:
        return self.analysis.total_benefit

    @property
    def total_benefit_percent(self) -> float:
        return self.analysis.percent(self.total_benefit)

    def to_json(self) -> dict:
        from repro.core.jsonio import report_to_json

        return report_to_json(self)


def stability_warnings(stage1: Stage1Data, stage2: Stage2Data,
                       stage3: Stage3Data) -> list[str]:
    """Cross-run consistency check (§5.3).

    FFM "performs best when the execution pattern of the application
    does not change dramatically between runs with the same inputs".
    We verify the testable core of that assumption: every static sync
    site must occur the same number of times in the baseline run and
    in the detailed-tracing run, and the sync occurrences the
    memory-tracing run saw must be a subset of the traced ones.
    """
    warnings: list[str] = []

    def site_label(key: tuple) -> str:
        return f"{key[-1]:#x}" if key else "<no application frames>"

    baseline_counts: dict[tuple, int] = {}
    for site in stage1.sync_sites:
        key = site.stack.address_key()
        baseline_counts[key] = baseline_counts.get(key, 0) + site.count

    traced_counts: dict[tuple, int] = {}
    for event in stage2.sync_events():
        key = event.site.address_key
        traced_counts[key] = traced_counts.get(key, 0) + 1

    for key, count in sorted(baseline_counts.items()):
        traced = traced_counts.get(key, 0)
        if traced != count:
            warnings.append(
                f"sync site {site_label(key)}: {count} occurrences in the "
                f"baseline run but {traced} in the tracing run — "
                "run-to-run behaviour differs; results for this site are "
                "unreliable"
            )
    for key in sorted(set(traced_counts) - set(baseline_counts)):
        warnings.append(
            f"sync site {site_label(key)}: synchronized in the tracing run but "
            "never in the baseline run — run-to-run behaviour differs"
        )

    stage3_sites = {r.site for r in stage3.sync_uses}
    stage2_sites = {e.site for e in stage2.sync_events()}
    stray = len(stage3_sites - stage2_sites)
    if stray:
        warnings.append(
            f"{stray} sync occurrences in the memory-tracing run have no "
            "counterpart in the tracing run — run-to-run behaviour differs"
        )
    return warnings


def assemble_report(workload_name: str, stage1: Stage1Data,
                    stage2: Stage2Data, stage3: Stage3Data,
                    stage4: Stage4Data, stage3_times: dict[str, float],
                    cfg: DiogenesConfig) -> DiogenesReport:
    """Stage 5: analysis + groupings + accounting over collected data.

    The single assembly path shared by the serial runner, the parallel
    executor, and ``diogenes batch`` — whatever produced the stage
    data, the analysis and the report structure are identical, which
    is what makes serial/parallel byte-identity checkable at all.
    """
    warnings = stability_warnings(stage1, stage2, stage3)
    with obs.span("stage.stage5_analysis") as analysis_span:
        analysis = analyze(
            stage1, stage2, stage3, stage4,
            misplaced_min_delay=cfg.misplaced_min_delay,
            benefit_config=cfg.benefit,
        )
        analysis_span.set(problems=len(analysis.problems),
                          graph_nodes=len(analysis.graph))
    obs.gauge("core.stage_wall_seconds", analysis_span.wall_duration,
              stage="stage5_analysis")
    ledger = obs.active_ledger()
    if ledger is not None:
        # Tool time the user waits on after collection; the columnar
        # engine's speedup shows up here (meta-only — body-safe).
        ledger.charge_analysis("stage5_analysis",
                               analysis_span.wall_duration)
    sink = active_sink()
    if sink is not None:
        # The streaming layer's final snapshot is this exact analysis
        # object — not a recomputation — which is what makes the
        # streaming/batch byte-identity property hold by construction.
        sink.analysis_completed(analysis)
    stage_times = {
        "stage1_baseline": stage1.execution_time,
        "stage2_tracing": stage2.execution_time,
        **stage3_times,
        "stage4_syncuse": stage4.execution_time,
    }
    for stage_name, seconds in stage_times.items():
        obs.gauge("core.stage_virtual_seconds", seconds,
                  stage=stage_name)
    return DiogenesReport(
        workload_name=workload_name,
        stage1=stage1,
        stage2=stage2,
        stage3=stage3,
        stage4=stage4,
        analysis=analysis,
        api_folds=group_by_api(analysis),
        single_points=group_single_point(analysis),
        folded_functions=group_folded_function(analysis),
        sequences=find_sequences(analysis, cfg.benefit,
                                 cfg.sequence_min_length),
        warnings=warnings,
        overhead=OverheadReport(
            baseline_time=stage1.execution_time,
            stage_times=stage_times,
        ),
    )


def report_from_stage_results(workload_name: str, results: dict[str, dict],
                              cfg: DiogenesConfig) -> DiogenesReport:
    """Assemble a report from executor stage output (JSON dicts).

    ``results`` is one workload's mapping from
    :meth:`repro.exec.executor.StageExecutor.run_workloads` — the raw
    per-stage JSON plus the derived ``"stage3"`` merge.
    """
    stage1 = Stage1Data.from_json(results["stage1"])
    stage2 = Stage2Data.from_json(results["stage2"])
    stage3 = Stage3Data.from_json(results["stage3"])
    stage4 = Stage4Data.from_json(results["stage4"])
    stage3_times = {
        "stage3_memtrace": results["stage3_memtrace"]["execution_time"],
        "stage3_hashing": results["stage3_hashing"]["execution_time"],
    }
    return assemble_report(workload_name, stage1, stage2, stage3, stage4,
                           stage3_times, cfg)


class Diogenes:
    """The automated multi-stage/multi-run tool.

    ``executor`` (a :class:`repro.exec.StageExecutor`) fans the
    collection runs out to worker processes and consults its result
    cache; without one, stages run serially in-process.  Both paths
    produce byte-identical reports.

    ``profile_dir`` enables per-stage cProfile capture
    (:mod:`repro.core.profiling`): each serial stage dumps
    ``<dir>/<stage>.prof``; with an executor, the whole fan-out dumps
    ``run_parallel.prof``.  Profiling never touches the virtual clock,
    so reports are byte-identical with it on or off.
    """

    def __init__(self, workload, config: DiogenesConfig | None = None,
                 *, executor=None, profile_dir=None) -> None:
        self.workload = workload
        self.config = config if config is not None else DiogenesConfig()
        self.executor = executor
        if profile_dir is not None:
            from repro.core.profiling import StageProfiler

            self.profiler = StageProfiler(profile_dir)
        else:
            self.profiler = None

    def _staged(self, name: str, fn, *args, **kwargs):
        if self.profiler is None:
            return fn(*args, **kwargs)
        return self.profiler.profile(name, fn, *args, **kwargs)

    def run(self) -> DiogenesReport:
        """Execute stages 1–5 and assemble the report."""
        with obs.span("diogenes.run",
                      workload=getattr(self.workload, "name",
                                       "workload")) as run_span:
            if self.executor is None:
                report = self._run_stages()
            else:
                report = self._run_stages_parallel()
            run_span.set(
                problems=len(report.analysis.problems),
                total_benefit=round(report.total_benefit, 9),
                warnings=len(report.warnings),
                overhead_multiple=round(report.overhead.overhead_multiple, 3),
            )
        obs.gauge("core.run_wall_seconds", run_span.wall_duration)
        return report

    def _run_stages(self) -> DiogenesReport:
        cfg = self.config
        stage1 = self._staged("stage1_baseline", run_stage1,
                              self.workload, cfg)
        stage2 = self._staged("stage2_tracing", run_stage2,
                              self.workload, stage1, cfg)
        # Separate collection runs for synchronization and transfer
        # detail (§4), merged into one Stage3Data.
        memtrace = self._staged("stage3_memtrace", run_stage3,
                                self.workload, stage1, cfg, mode="memtrace")
        hashing = self._staged("stage3_hashing", run_stage3,
                               self.workload, stage1, cfg, mode="hashing")
        stage3 = Stage3Data(
            execution_time=memtrace.execution_time,
            sync_uses=memtrace.sync_uses,
            transfer_hashes=hashing.transfer_hashes,
        )
        stage3_times = {
            "stage3_memtrace": memtrace.execution_time,
            "stage3_hashing": hashing.execution_time,
        }
        stage4 = self._staged("stage4_syncuse", run_stage4,
                              self.workload, stage1, stage3, cfg)
        return self._staged(
            "stage5_analysis", assemble_report,
            getattr(self.workload, "name", "workload"),
            stage1, stage2, stage3, stage4, stage3_times, cfg)

    def _run_stages_parallel(self) -> DiogenesReport:
        from repro.exec.jobs import WorkloadSpec

        spec = WorkloadSpec.for_workload(self.workload)
        if spec is None:
            raise ValueError(
                "parallel execution needs a registry-created workload "
                "(repro.apps.base.registry.create) so worker processes "
                "can rebuild it; this instance carries no registry stamp"
            )
        # Collection happens in worker processes the parent cannot
        # profile; capture the orchestration + analysis as one dump.
        results = self._staged("run_parallel", self.executor.run_workload,
                               spec, self.config)
        return report_from_stage_results(
            getattr(self.workload, "name", "workload"), results, self.config)
