"""Process-pool stage executor with deterministic merge.

The FFM pipeline per workload is a small DAG::

    stage1 ──┬── stage2
             ├── stage3_memtrace ──┐
             ├── stage3_hashing  ──┴─ (merge) ── stage4
             └──────────────────────────────────────┘

Runs are fanned out across workloads *and* across the independent
branches of each workload's DAG, on a :class:`ProcessPoolExecutor`.
Scheduling order and completion order never influence the output:
results are keyed by (workload, stage) and assembled in input order,
so a ``--jobs 4`` run is byte-identical to ``--jobs 1`` — the
determinism suite (``tests/test_determinism.py``) enforces this.

Each job is first looked up in the content-addressed
:class:`~repro.exec.cache.ResultCache` (when one is configured); hits
skip execution entirely and are *observable* — an ``exec.job`` span
with ``cache_hit=True`` and an ``exec.cache_hits`` counter — never
silent.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, field

import repro.obs as obs
from repro.exec.cache import ResultCache
from repro.exec.columnar import decode_tree
from repro.obs.context import ID_BLOCK
from repro.exec.fingerprint import (
    CACHE_SCHEMA_VERSION,
    code_fingerprint,
    config_to_json,
    digest_json,
)
from repro.exec.jobs import (
    STAGE1,
    STAGE2,
    STAGE3_HASHING,
    STAGE3_MEMTRACE,
    STAGE4,
    JobResult,
    StageJob,
    WorkloadSpec,
    execute_job,
    merge_stage3,
)


def _worker_init() -> None:
    """Pool-worker initializer: silence inherited observability.

    Under the fork start method a worker begins life with a copy of the
    parent's active collector; anything recorded into it is lost when
    the worker exits.  The executor re-emits per-job spans and metrics
    on the parent's collector instead, so workers run dark.
    """
    obs.disable()


#: Stage -> upstream dependencies, in deterministic order.  ``stage3``
#: is a *derived* dataset (the in-parent merge of the two stage-3
#: collection runs); it never executes as a job but participates as a
#: dependency.
_STAGE_PLAN: dict[str, tuple[str, ...]] = {
    STAGE1: (),
    STAGE2: (STAGE1,),
    STAGE3_MEMTRACE: (STAGE1,),
    STAGE3_HASHING: (STAGE1,),
    STAGE4: (STAGE1, "stage3"),
}


@dataclass
class _WorkloadRun:
    """Mutable scheduling state for one workload's DAG."""

    spec: WorkloadSpec
    results: dict[str, dict] = field(default_factory=dict)
    submitted: set[str] = field(default_factory=set)

    def ready(self) -> list[str]:
        return [
            stage for stage, deps in _STAGE_PLAN.items()
            if stage not in self.submitted
            and all(dep in self.results for dep in deps)
        ]

    def record(self, stage: str, data: dict) -> None:
        self.results[stage] = data
        # Derive the merged stage-3 dataset as soon as its parts exist.
        if ("stage3" not in self.results and STAGE3_MEMTRACE in self.results
                and STAGE3_HASHING in self.results):
            self.results["stage3"] = merge_stage3(
                self.results[STAGE3_MEMTRACE], self.results[STAGE3_HASHING])

    def done(self) -> bool:
        return all(stage in self.results for stage in _STAGE_PLAN)


class StageExecutor:
    """Fans independent stage runs out to worker processes.

    ``jobs=1`` executes every job inline (no pool, no pickling of the
    executor's own state) through the *same* job function the workers
    run.  Use as a context manager, or call :meth:`shutdown`.
    """

    def __init__(self, jobs: int = 1,
                 cache_dir: str | os.PathLike | None = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "StageExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _get_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_init)
        return self._pool

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------
    def job_key(self, job: StageJob) -> str:
        return digest_json({
            "schema": CACHE_SCHEMA_VERSION,
            "code": code_fingerprint(),
            "workload": job.workload.fingerprint(),
            "stage": job.stage,
            "config": job.config,
            "inputs": job.input_digests(),
        })

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_workload(self, spec: WorkloadSpec, config, *,
                     on_event=None) -> dict[str, dict]:
        """Run one workload's full stage DAG; see :meth:`run_workloads`."""
        return self.run_workloads([spec], config, on_event=on_event)[spec]

    def run_workloads(self, specs: list[WorkloadSpec], config, *,
                      on_event=None) -> dict[WorkloadSpec, dict[str, dict]]:
        """Run the stage DAG of every workload, fanned out together.

        Returns ``{spec: {stage: stage_json, ...}}`` including the
        derived ``"stage3"`` merge.  Assembly is input-ordered and
        content-keyed, so the mapping is identical whatever order the
        pool completed the jobs in.

        Under the calling thread's observability session the run is
        traced under an ``exec.run`` span.  Inline jobs record live
        into that session.  Pool jobs are *distributed-traced*: each
        carries a :class:`~repro.obs.context.SpanContext` pointing at
        ``exec.run`` plus a reserved span-id block, the worker ships
        its spans and ledger back, and they are stitched and merged
        here into one connected timeline.  ``on_event``, when given,
        is called with a plain dict after every job completion (the
        service's live-stream feed).
        """
        config_json = config_to_json(config)
        runs = {spec: _WorkloadRun(spec=spec) for spec in specs}
        inflight: dict[concurrent.futures.Future, tuple[WorkloadSpec, StageJob, str | None]] = {}

        # Held for the whole run: another thread may swap the
        # process-wide session while this one runs.
        session = obs.active()
        tr = session.tracer if session is not None else None
        handle = (tr.span("exec.run", workloads=len(specs), jobs=self.jobs,
                          cached=self.cache is not None)
                  if tr is not None else obs.span("exec.run"))
        with handle as root:
            stitch = {"session": session,
                      "parent_id": root.span_id if tr is not None else None,
                      "base_depth": root.depth + 1 if tr is not None else 0,
                      "on_event": on_event}
            while True:
                self._launch_ready(runs, config_json, inflight, stitch)
                if not inflight:
                    break
                done, _ = concurrent.futures.wait(
                    inflight, return_when=concurrent.futures.FIRST_COMPLETED)
                for future in done:
                    spec, job, key = inflight.pop(future)
                    result: JobResult = future.result()
                    self._record_result(runs[spec], job, key, result,
                                        cache_hit=False, stitch=stitch)
            incomplete = [spec.name for spec, run in runs.items()
                          if not run.done()]
            if incomplete:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"executor finished with incomplete workloads: {incomplete}")
        return {spec: run.results for spec, run in runs.items()}

    def _job_trace(self, stitch: dict, inline: bool) -> tuple | None:
        """Wire trace context for one pool job, or ``None`` (untraced
        run, or an inline job already recording live)."""
        session = stitch["session"]
        if session is None or inline:
            return None
        tr = session.tracer
        return (tr.trace_id, stitch["parent_id"], tr.reserve_ids(ID_BLOCK))

    # ------------------------------------------------------------------
    def _launch_ready(self, runs, config_json, inflight, stitch) -> None:
        """Submit (or satisfy from cache / run inline) every ready job.

        Cache hits unlock dependents immediately, so the loop keeps
        draining until nothing new becomes ready without executing.
        """
        progressed = True
        while progressed:
            progressed = False
            for spec, run in runs.items():
                for stage in run.ready():
                    run.submitted.add(stage)
                    inline = self.jobs == 1
                    job = StageJob(
                        workload=spec,
                        stage=stage,
                        config=config_json,
                        inputs={dep: run.results[dep]
                                for dep in _STAGE_PLAN[stage]},
                        trace=self._job_trace(stitch, inline),
                    )
                    key = self.job_key(job) if self.cache is not None else None
                    cached = self.cache.get(key) if key is not None else None
                    if cached is not None:
                        self._record_result(
                            run, job, key,
                            JobResult(stage=stage, workload=spec.name,
                                      data=cached, worker_pid=os.getpid(),
                                      wall_seconds=0.0),
                            cache_hit=True, stitch=stitch)
                        progressed = True
                    elif inline:
                        self._record_result(run, job, key, execute_job(job),
                                            cache_hit=False, stitch=stitch)
                        progressed = True
                    else:
                        inflight[self._get_pool().submit(execute_job, job)] = (
                            spec, job, key)

    def _record_result(self, run: _WorkloadRun, job: StageJob,
                       key: str | None, result: JobResult, *,
                       cache_hit: bool, stitch: dict) -> None:
        # ``result.data`` is the columnar wire/cache form: cache it
        # as-is, decode it for the scheduling state (input digests and
        # ``from_json`` loaders see exactly the classic row dicts).
        run.record(job.stage, decode_tree(result.data))
        if self.cache is not None and not cache_hit:
            self.cache.put(key, job.stage, job.workload.name, result.data)
        session = stitch["session"]
        if session is not None:
            if result.spans is not None:
                # Stitch the worker's shipped spans under this run's
                # ``exec.run`` span.  Spans are never cached — a cache
                # hit means no collection ran, so there is nothing to
                # trace.
                session.tracer.adopt(decode_tree(result.spans),
                                     parent_id=stitch["parent_id"],
                                     base_depth=stitch["base_depth"])
            if result.overhead is not None:
                session.ledger.merge_json(result.overhead)
            obs.event("exec.job.done", stage=job.stage,
                      workload=job.workload.name, cache_hit=cache_hit,
                      wall_seconds=round(result.wall_seconds, 6))
        if stitch["on_event"] is not None:
            stitch["on_event"]({
                "event": "stage.done", "stage": job.stage,
                "workload": job.workload.name, "cache_hit": cache_hit,
                "wall_seconds": round(result.wall_seconds, 6),
            })
        if session is None:
            return
        with session.tracer.span(
                "exec.job", stage=job.stage, workload=job.workload.name,
                cache_hit=cache_hit, worker=result.worker_pid,
                worker_wall_seconds=round(result.wall_seconds, 6)):
            pass
        if cache_hit:
            obs.count("exec.cache_hits", stage=job.stage)
        else:
            obs.count("exec.cache_misses", stage=job.stage)
            obs.count("exec.jobs_executed", stage=job.stage)
            obs.observe("exec.job_wall_seconds", result.wall_seconds,
                        stage=job.stage)
