"""Paradyn-style single-run staged instrumentation (ablation support).

§2.1 of the paper: Paradyn performs its instrumentation stages within
*one* run, escalating detail on operations observed to be expensive —
and therefore "operations that are impactful can be missed if the
operation completes before Paradyn determines the operation is
important".  FFM's multi-run design exists to close exactly that gap.

This module implements the single-run alternative so the ablation
bench can measure the gap: the internal wait funnel is watched from
the start, but a call site only *graduates* to detailed tracing after
it has been observed ``escalation_threshold`` times (and accumulated
some wait) within the same run.  Everything before graduation is lost.

The output mirrors :class:`repro.core.records.Stage2Data` so the same
analysis can consume it; coverage is judged against a full multi-run
collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro.obs as obs
from repro.core.records import SiteKey, Stage2Data, TraceEvent
from repro.instr.discovery import discover_sync_function
from repro.instr.probes import CallRecord, Probe
from repro.runtime.context import ExecutionContext


@dataclass
class SingleRunResult:
    """Trace data collected by the one-run strategy, plus bookkeeping."""

    stage2: Stage2Data
    #: Dynamic sync operations that happened before their site graduated
    #: to detailed tracing — the information Paradyn-style staging loses.
    missed_operations: int = 0
    observed_operations: int = 0
    graduated_sites: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of dynamic sync operations captured in detail."""
        if self.observed_operations == 0:
            return 1.0
        return 1.0 - self.missed_operations / self.observed_operations


def run_single_run_collection(workload, *, escalation_threshold: int = 3,
                              machine_config=None) -> SingleRunResult:
    """Collect sync detail with single-run staged escalation.

    A site is identified by its stack address key.  Occurrences
    ``0 .. threshold-1`` of each site are only *counted* (cheap,
    Paradyn's resource-consumption watch); occurrence ``threshold`` and
    later are traced in detail.
    """
    if escalation_threshold < 0:
        raise ValueError("escalation threshold must be >= 0")
    evidence = discover_sync_function()
    ctx = ExecutionContext.create(machine_config)
    dispatch = ctx.driver.dispatch

    counts: dict[tuple, int] = {}
    events: list[TraceEvent] = []
    result = SingleRunResult(stage2=Stage2Data(execution_time=0.0))
    seq = 0

    def on_wait_exit(record: CallRecord) -> None:
        nonlocal seq
        root = dispatch.root_record
        root_record = root if root is not None else record
        key = root_record.stack.address_key()
        occurrence = counts.get(key, 0)
        counts[key] = occurrence + 1
        result.observed_operations += 1
        if occurrence < escalation_threshold:
            # Not yet deemed important: only the counter was updated;
            # the detailed record for this dynamic operation is lost.
            result.missed_operations += 1
            return
        if occurrence == escalation_threshold:
            result.graduated_sites += 1
        events.append(TraceEvent(
            seq=seq,
            api_name=root_record.name,
            stack=root_record.stack,
            site=SiteKey(key, occurrence),
            t_entry=root_record.t_entry,
            t_exit=ctx.machine.clock.now,
            sync_wait=record.meta.get("wait_duration", 0.0),
            is_sync=True,
        ))
        seq += 1

    probe = Probe({evidence.wait_symbol}, exit=on_wait_exit,
                  label="single-run", overhead_per_hit=1.0e-6)
    dispatch.attach(probe)
    try:
        workload.run(ctx)
    finally:
        # A raising workload still ends its process (so the run is
        # freed) and publishes whatever it accumulated.
        ctx.close()
        obs.record_probe(probe, stage="single_run")
        obs.record_device(ctx.machine.gpu)
        obs.record_run_overhead("single_run", ctx.machine)

    result.stage2 = Stage2Data(execution_time=ctx.elapsed, events=events)
    return result
