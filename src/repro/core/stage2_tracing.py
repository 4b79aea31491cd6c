"""FFM Stage 2 — Detailed Tracing (§3.2).

Traces every call to (1) the synchronizing functions stage 1
identified, (2) the predefined driver memory-transfer functions, and
(3) the internal synchronization funnel.  For each root operation we
record a stack trace, the time spent synchronizing (the portion inside
the funnel), and the total time in the call.
"""

from __future__ import annotations

import repro.obs as obs
from repro.core.colbuild import Stage2Builder, record_engine_of
from repro.core.records import Stage1Data, Stage2Data, TraceEvent
from repro.core.rootprobe import DEFAULT_TRANSFER_FUNCTIONS, RootCall, RootTracker
from repro.instr.probes import Probe
from repro.runtime.context import ExecutionContext
from repro.stream.sink import active_sink


def traced_function_set(stage1: Stage1Data) -> set[str]:
    """The stage-2 trace list: stage-1 sync functions + transfer APIs."""
    return set(stage1.synchronizing_functions) | set(DEFAULT_TRANSFER_FUNCTIONS)


def run_stage2(workload, stage1: Stage1Data, config) -> Stage2Data:
    """Run the detailed tracing stage on a fresh context."""
    ctx = ExecutionContext.create(config.machine_config)
    dispatch = ctx.driver.dispatch
    engine = record_engine_of(config)

    tracker = RootTracker(
        traced_function_set(stage1),
        probe_overhead=config.tracing_probe_overhead,
    )

    sink = active_sink() if engine == "columnar" else None
    if engine == "columnar":
        builder = Stage2Builder()
        if sink is not None:
            builder.sink = sink
            sink.stage_started("stage2_tracing", builder)
        append = builder.append

        def on_root_exit(root: RootCall) -> None:
            # The per-event hot path: ints/floats into columns, no
            # TraceEvent, no SiteKey, no meta dict forced into being.
            record = root.record
            append(record.stack, root.occurrence, record.name,
                   record.t_entry, record.t_exit, record._meta)
    else:
        events: list[TraceEvent] = []

        def on_root_exit(root: RootCall) -> None:
            record = root.record
            meta = record.meta
            events.append(TraceEvent(
                seq=root.seq,
                api_name=record.name,
                stack=record.stack,
                site=root.site,
                t_entry=record.t_entry,
                t_exit=record.t_exit,
                sync_wait=meta.get("sync_wait_total", 0.0),
                is_sync=meta.get("sync_wait_count", 0.0) > 0.0,
                is_transfer="transfer_nbytes" in meta,
                nbytes=int(meta.get("transfer_nbytes", 0)),
                direction=meta.get("transfer_direction", ""),
            ))

    tracker.on_root_exit.append(on_root_exit)
    dispatch.attach(tracker.probe)

    # Also probe the internal funnel itself (trace class 3).  The wait
    # durations already flow into root records via ``sync_wait_total``;
    # this probe charges the funnel's own instrumentation cost and
    # guards against syncs outside any traced root (none are expected,
    # but a driver is allowed to grow one).
    traced = traced_function_set(stage1)

    stray_syncs: list[float] = []

    def on_wait_exit(record) -> None:
        # The outermost in-flight dispatched call is the entry point the
        # application (or fault handler) used; a wait is stray only when
        # that entry point is not in the traced set.
        root = dispatch.root_record
        if root is None or root.name not in traced:
            stray_syncs.append(record.meta.get("wait_duration", 0.0))

    funnel_probe = Probe(
        {stage1.wait_symbol},
        exit=on_wait_exit,
        label="stage2-funnel",
        overhead_per_hit=config.tracing_probe_overhead,
    )
    dispatch.attach(funnel_probe)
    with obs.span("stage.stage2_tracing", clock=ctx.machine.clock,
                  workload=getattr(workload, "name", "workload")) as sp:
        try:
            workload.run(ctx)
        finally:
            # A raising workload still ends its process (so the run is
            # freed) and publishes whatever it accumulated.
            ctx.close()
            tracker.close()
            obs.record_probe(tracker.probe, stage="stage2_tracing")
            obs.record_probe(funnel_probe, stage="stage2_tracing")
            obs.record_device(ctx.machine.gpu)
            obs.record_run_overhead("stage2_tracing", ctx.machine)
        # Counters come from the builder in columnar mode — totalling
        # through ``events`` would materialize the whole row view.
        if engine == "columnar":
            n_events, syncs, transfers = (len(builder), builder.sync_count,
                                          builder.transfer_count)
        else:
            n_events = len(events)
            syncs = sum(1 for e in events if e.is_sync)
            transfers = sum(1 for e in events if e.is_transfer)
        obs.record_collection("stage2_tracing", n_events, engine)
        sp.set(events=n_events, syncs=syncs, transfers=transfers)
    obs.count("core.syncs_traced", syncs)
    obs.count("core.events_traced", n_events)
    obs.gauge("core.stage_wall_seconds", sp.wall_duration,
              stage="stage2_tracing")

    if stray_syncs:
        # Surface loudly: a sync outside every traced function means
        # stage 1 missed a synchronizing entry point.
        raise RuntimeError(
            f"{len(stray_syncs)} synchronizations occurred outside all traced "
            "functions; stage 1 sync-function list is incomplete"
        )

    instr_intervals = ctx.machine.timeline.spans(
        "api", ("instrumentation", "loadstore-instr"))
    if engine == "columnar":
        data = builder.finish(execution_time=ctx.elapsed,
                              instrumentation_intervals=instr_intervals)
        if sink is not None:
            sink.stage_finished("stage2_tracing", data)
        return data
    return Stage2Data(execution_time=ctx.elapsed, events=events,
                      instrumentation_intervals=instr_intervals)
