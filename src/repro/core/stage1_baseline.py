"""FFM Stage 1 — Baseline Measurement (§3.1).

Responsibilities, per the paper:

* identify the internal driver function that implements the blocking
  wait, using the never-completing-kernel probe tests (done in a
  sandbox by :mod:`repro.instr.discovery` before the measured run);
* run the application with *lightweight* instrumentation on only that
  internal function, collecting a stack trace per synchronization so
  the synchronizing application-called functions are known;
* record overall application execution time with behaviour as close
  to uninstrumented as possible.
"""

from __future__ import annotations

import repro.obs as obs
from repro.core.colbuild import Stage1Builder, record_engine_of
from repro.core.records import Stage1Data, SyncSite
from repro.instr.discovery import DiscoveryEvidence, discover_sync_function
from repro.instr.probes import CallRecord, Probe
from repro.runtime.context import ExecutionContext
from repro.stream.sink import active_sink


def run_stage1(workload, config, evidence: DiscoveryEvidence | None = None) -> Stage1Data:
    """Run the baseline measurement stage on a fresh context.

    ``config`` is a :class:`repro.core.diogenes.DiogenesConfig`.
    ``evidence`` allows reusing an earlier discovery result (the funnel
    does not move between runs of the same driver).
    """
    if evidence is None:
        evidence = discover_sync_function()
    wait_symbol = evidence.wait_symbol
    assert wait_symbol is not None

    ctx = ExecutionContext.create(config.machine_config)
    dispatch = ctx.driver.dispatch
    engine = record_engine_of(config)

    sink = active_sink() if engine == "columnar" else None
    if engine == "columnar":
        builder = Stage1Builder()
        if sink is not None:
            builder.sink = sink
            sink.stage_started("stage1_baseline", builder)

        def on_wait_exit(record: CallRecord) -> None:
            root = dispatch.root_record
            # The funnel can only be reached through some driver entry
            # point, so a root always exists; its name is the function
            # the *application* called.
            api_name = root.name if root is not None else record.name
            meta = record._meta
            builder.record_wait(
                api_name, record.stack,
                meta.get("wait_duration", 0.0) if meta else 0.0)
    else:
        sites: dict[tuple[str, tuple[int, ...]], SyncSite] = {}
        sync_functions: set[str] = set()

        def on_wait_exit(record: CallRecord) -> None:
            root = dispatch.root_record
            # The funnel can only be reached through some driver entry
            # point, so a root always exists; its name is the function the
            # *application* called (runtime, driver, or private symbol).
            api_name = root.name if root is not None else record.name
            sync_functions.add(api_name)
            key = (api_name, record.stack.address_key())
            site = sites.get(key)
            if site is None:
                site = sites[key] = SyncSite(api_name=api_name,
                                             stack=record.stack)
            site.count += 1
            site.total_wait += record.meta.get("wait_duration", 0.0)

    probe = Probe(
        {wait_symbol},
        exit=on_wait_exit,
        label="stage1-baseline",
        overhead_per_hit=config.baseline_probe_overhead,
    )
    dispatch.attach(probe)
    with obs.span("stage.stage1_baseline", clock=ctx.machine.clock,
                  workload=getattr(workload, "name", "workload")) as sp:
        try:
            workload.run(ctx)
        finally:
            # A raising workload still ends its process (so the run is
            # freed) and publishes whatever it accumulated.
            ctx.close()
            obs.record_probe(probe, stage="stage1_baseline")
            obs.record_device(ctx.machine.gpu)
            obs.record_run_overhead("stage1_baseline", ctx.machine)
        if engine == "columnar":
            sync_sites = builder.finish_sites()
            sync_function_names = builder.sync_functions
            waits = builder.wait_count
        else:
            sync_sites = list(sites.values())
            sync_function_names = sync_functions
            waits = sum(s.count for s in sync_sites)
        obs.record_collection("stage1_baseline", waits, engine)
        sp.set(sync_sites=len(sync_sites),
               sync_functions=len(sync_function_names))
    obs.gauge("core.stage_wall_seconds", sp.wall_duration,
              stage="stage1_baseline")

    data = Stage1Data(
        execution_time=ctx.elapsed,
        wait_symbol=wait_symbol,
        sync_sites=sync_sites,
        synchronizing_functions=sorted(sync_function_names),
        discovery_candidates=list(evidence.candidates),
    )
    if sink is not None:
        sink.stage_finished("stage1_baseline", data)
    return data
