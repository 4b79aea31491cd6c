"""Picklable stage-run job specs and the worker entry point.

FFM's collection runs are independent given their upstream data: each
stage builds a brand-new :class:`~repro.runtime.context.ExecutionContext`
("a fresh process per run"), so a run is fully described by *(workload,
stage, config, upstream stage data)*.  :class:`StageJob` captures that
description in plain picklable types, and :func:`execute_job` replays
it — in this process or in a pool worker, with identical results.

Stage data crosses the process boundary columnar-encoded
(:mod:`repro.exec.columnar`): the worker encodes its ``to_json`` dict
once, the parent decodes on receipt and caches the encoded form, so a
result computed by a worker, a result computed inline, and a result
read back from the on-disk cache are indistinguishable by
construction — the codec is exact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.exec.columnar import encode_tree
from repro.exec.fingerprint import (
    config_from_json,
    digest_json,
    workload_fingerprint,
)

#: Stage names understood by the executor, in topological order.
STAGE1 = "stage1"
STAGE2 = "stage2"
STAGE3_MEMTRACE = "stage3_memtrace"
STAGE3_HASHING = "stage3_hashing"
STAGE4 = "stage4"


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload as (registry name, constructor parameters).

    Parameters are stored as a sorted tuple of pairs so the spec is
    hashable and its fingerprint canonical.
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def from_params(cls, name: str, params: dict | None = None) -> "WorkloadSpec":
        return cls(name, tuple(sorted((params or {}).items())))

    @classmethod
    def for_workload(cls, workload) -> "WorkloadSpec | None":
        """Spec of a registry-created workload, else ``None``.

        :meth:`repro.apps.base.WorkloadRegistry.create` stamps the
        registry name and parameters onto each instance; hand-built
        workload objects carry no stamp and cannot be shipped to a
        worker process (the executor falls back to refusing them
        loudly rather than guessing).
        """
        name = getattr(workload, "_registry_name", None)
        if name is None:
            return None
        return cls.from_params(name, getattr(workload, "_registry_params", {}))

    def params_dict(self) -> dict:
        return dict(self.params)

    def create(self):
        """Instantiate the workload from the process-wide registry."""
        from repro.apps.base import registry

        return registry.create(self.name, **self.params_dict())

    def fingerprint(self) -> str:
        return workload_fingerprint(self.name, self.params_dict())


@dataclass(frozen=True)
class StageJob:
    """One collection run: everything a worker needs, picklable.

    ``inputs`` maps upstream stage names to their JSON data (e.g.
    stage 2 receives ``{"stage1": {...}}``).  The executor computes the
    cache key from the digests of exactly these inputs, so the key
    chains through the stage DAG.
    """

    workload: WorkloadSpec
    stage: str
    config: dict = field(hash=False)
    inputs: dict = field(default_factory=dict, hash=False)
    #: Wire-form :class:`repro.obs.context.SpanContext` — present on
    #: the pool jobs of a traced run.  Deliberately *not* part of
    #: the cache key (:meth:`StageExecutor.job_key` enumerates exactly
    #: the measurement-relevant fields): trace ids identify tool runs,
    #: not measurement content.
    trace: tuple | None = field(default=None, hash=False)

    def input_digests(self) -> dict[str, str]:
        return {name: digest_json(data)
                for name, data in sorted(self.inputs.items())}


@dataclass
class JobResult:
    """What a worker sends back: the stage payload plus attribution.

    ``data`` is the stage's ``to_json`` dict with its record lists
    columnar-encoded (:func:`repro.exec.columnar.encode_tree`) — the
    compact wire/cache form.  The executor decodes it before use.
    """

    stage: str
    workload: str
    data: dict
    worker_pid: int
    wall_seconds: float
    #: Columnar-encoded span batch (:meth:`Tracer.export_batch`) when
    #: the job ran traced; ``None`` otherwise (untraced, cache hit).
    spans: dict | None = None
    #: The worker ledger's ``as_json()`` export when the job ran
    #: traced — merged into the submitting session's ledger.
    overhead: dict | None = None


def _run_stage(job: StageJob, workload, config):
    """Dispatch to the right stage driver; returns a record object."""
    from repro.core.records import Stage1Data, Stage3Data
    from repro.core.stage1_baseline import run_stage1
    from repro.core.stage2_tracing import run_stage2
    from repro.core.stage3_memtrace import run_stage3
    from repro.core.stage4_syncuse import run_stage4

    if job.stage == STAGE1:
        return run_stage1(workload, config)
    if job.stage not in (STAGE2, STAGE3_MEMTRACE, STAGE3_HASHING, STAGE4):
        raise ValueError(f"unknown stage {job.stage!r}")
    stage1 = Stage1Data.from_json(job.inputs["stage1"])
    if job.stage == STAGE2:
        return run_stage2(workload, stage1, config)
    if job.stage == STAGE3_MEMTRACE:
        return run_stage3(workload, stage1, config, mode="memtrace")
    if job.stage == STAGE3_HASHING:
        return run_stage3(workload, stage1, config, mode="hashing")
    stage3 = Stage3Data.from_json(job.inputs["stage3"])
    return run_stage4(workload, stage1, stage3, config)


def stage_wire(data) -> dict:
    """The wire/cache payload of a stage-data object.

    Equals ``encode_tree(data.to_json())`` byte for byte, but lets
    stage data that was born columnar (:meth:`Stage2Data.to_wire`)
    emit the batch straight from its columns — the high-volume stage-2
    payload never materializes row dicts just to re-encode them.
    """
    to_wire = getattr(data, "to_wire", None)
    if to_wire is not None:
        return to_wire()
    return encode_tree(data.to_json())


def execute_job(job: StageJob) -> JobResult:
    """Run one stage job and return its JSON result.

    This is the pool-worker entry point, but it is also what the
    ``--jobs 1`` inline path calls, so both paths execute literally the
    same code.  Untraced jobs leave observability alone: inline jobs
    record on the caller's live collector, while pool workers have
    theirs disabled by the executor's process initializer (a forked
    worker inherits the parent's collector and would otherwise record
    into a copy nobody can read).  Pool jobs of a traced run carry a
    trace context and run under a local collector instead, shipping
    their spans home — see :func:`_execute_traced`.
    """
    if job.trace is not None:
        return _execute_traced(job)
    t0 = time.perf_counter()
    workload = job.workload.create()
    config = config_from_json(job.config)
    data = stage_wire(_run_stage(job, workload, config))
    return JobResult(
        stage=job.stage,
        workload=job.workload.name,
        data=data,
        worker_pid=os.getpid(),
        wall_seconds=time.perf_counter() - t0,
    )


def _execute_traced(job: StageJob) -> JobResult:
    """Run a stage job under a local tracer and ship its spans home.

    The worker's tracer is seeded from the job's
    :class:`~repro.obs.context.SpanContext`: same ``trace_id``, span
    ids minted from the parent-reserved block (collision-free by
    construction).  The whole run nests under a local ``exec.worker``
    root span; the finished spans travel back columnar-encoded in
    :attr:`JobResult.spans`, and the worker's perturbation ledger in
    :attr:`JobResult.overhead`, for the submitting session to stitch
    and merge.  Only pool jobs run here: inline jobs record live into
    the caller's session.
    """
    import repro.obs as obs
    from repro.obs.context import SpanContext

    ctx = SpanContext.from_wire(job.trace)
    t0 = time.perf_counter()
    tracer = obs.Tracer(trace_id=ctx.trace_id, id_base=ctx.id_base)
    bundle = obs.Observability(tracer=tracer)
    with obs.enabled(bundle):
        with tracer.span("exec.worker", stage=job.stage,
                         workload=job.workload.name, pid=os.getpid()):
            workload = job.workload.create()
            config = config_from_json(job.config)
            data = stage_wire(_run_stage(job, workload, config))
    bundle.ledger.charge_tracing(job.stage, len(tracer.spans))
    return JobResult(
        stage=job.stage,
        workload=job.workload.name,
        data=data,
        worker_pid=os.getpid(),
        wall_seconds=time.perf_counter() - t0,
        spans=encode_tree(tracer.export_batch(pid=os.getpid())),
        overhead=bundle.ledger.as_json(),
    )


def merge_stage3(memtrace: dict, hashing: dict) -> dict:
    """Merge the two split stage-3 collection runs into one dataset.

    Mirrors the serial path in :class:`repro.core.diogenes.Diogenes`:
    sync uses come from the memory-tracing run, transfer hashes from
    the hashing run, and the merged execution time is the memtrace
    run's (the convention the serial tool established).
    """
    return {
        "execution_time": memtrace["execution_time"],
        "sync_uses": memtrace["sync_uses"],
        "transfer_hashes": hashing["transfer_hashes"],
    }
