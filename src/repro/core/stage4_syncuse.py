"""FFM Stage 4 — Sync-Use Analysis (§3.4).

For synchronizations stage 3 identified as *required*, measure the
time between the end of the synchronization and the first CPU access
to protected data.  A large gap means the synchronization is
potentially **misplaced**: it is needed for correctness but could be
moved later (closer to the use) to recover CPU/GPU overlap.

Only the instructions stage 3 identified as accessing protected data
are load/store-instrumented here, exactly as in the paper — the filter
keeps this stage's overhead proportional to the problem, not the
program.
"""

from __future__ import annotations

from dataclasses import dataclass

import repro.obs as obs
from repro.core.colbuild import Stage4Builder, record_engine_of
from repro.core.records import (
    FirstUseRecord,
    SiteKey,
    Stage1Data,
    Stage3Data,
    Stage4Data,
)
from repro.core.rootprobe import RootTracker
from repro.core.stage2_tracing import traced_function_set
from repro.hostmem.accesshooks import AccessEvent
from repro.instr.loadstore import LoadStoreInstrumenter, WatchedRegion
from repro.instr.probes import Probe
from repro.instr.stacks import StackTrace
from repro.runtime.context import ExecutionContext
from repro.stream.sink import active_sink

#: Entry points that create CPU memory the GPU can write directly:
#: unified-memory allocations and pinned (zero-copy-capable) host pages.
_MANAGED_ALLOC_FUNCTIONS = frozenset({
    "cudaMallocManaged", "cuMemAllocManaged",
    "cudaMallocHost", "cuMemAllocHost",
})


@dataclass
class _PendingSync:
    site: SiteKey
    end_time: float
    resolved: bool = False


def run_stage4(workload, stage1: Stage1Data, stage3: Stage3Data, config) -> Stage4Data:
    """Run the sync-use timing stage on a fresh context."""
    ctx = ExecutionContext.create(config.machine_config)
    dispatch = ctx.driver.dispatch

    #: Instruction addresses stage 3 saw touching protected data.
    target_instructions = {
        r.access_address for r in stage3.sync_uses if r.required and r.access_address
    }

    tracker = RootTracker(
        traced_function_set(stage1),
        probe_overhead=config.syncuse_probe_overhead,
    )
    loadstore = LoadStoreInstrumenter(
        ctx.hostspace, ctx.stacks, ctx.machine,
        overhead_per_access=config.loadstore_overhead,
    )

    engine = record_engine_of(config)
    sink = active_sink() if engine == "columnar" else None
    if engine == "columnar":
        builder = Stage4Builder()
        if sink is not None:
            builder.sink = sink
            sink.stage_started("stage4_syncuse", builder)
    else:
        first_uses: list[FirstUseRecord] = []
    pending: _PendingSync | None = None

    # Protected regions re-registered the same way stage 3 did.
    def on_root_exit(root) -> None:
        meta = root.record.meta
        if meta.get("transfer_direction") == "d2h":
            loadstore.regions.ensure(
                int(meta["transfer_dst"]), int(meta["transfer_nbytes"]),
                origin="d2h",
            )

    tracker.on_root_exit.append(on_root_exit)

    def on_managed_alloc(record) -> None:
        addr = record.meta.get("managed_host_address")
        if addr is not None:
            loadstore.regions.ensure(
                int(addr), int(record.meta["managed_nbytes"]), origin="managed",
            )
        pinned = record.meta.get("pinned_host_address")
        if pinned is not None:
            loadstore.regions.ensure(
                int(pinned), int(record.meta["pinned_nbytes"]), origin="pinned",
            )

    managed_probe = Probe(
        set(_MANAGED_ALLOC_FUNCTIONS), exit=on_managed_alloc,
        label="stage4-managed",
        overhead_per_hit=config.syncuse_probe_overhead,
    )

    # The funnel probe timestamps each synchronization's *end* and
    # attributes it to the in-flight traced root.
    if engine == "columnar":
        # Pending sync as [stack, occurrence, end_time, resolved]: site
        # identity stays two ints + an interned object until finish().
        def on_wait_exit(record) -> None:
            nonlocal pending
            root = tracker.current_root
            if root is None:  # pragma: no cover - stage 2 would have failed
                return
            pending = [root.record.stack, root.occurrence,
                       ctx.machine.clock.now, False]

        def on_access(event: AccessEvent, stack: StackTrace,
                      regions: list[WatchedRegion]) -> None:
            if pending is None or pending[3]:
                return
            leaf = stack.leaf
            if leaf is None or leaf.address not in target_instructions:
                return
            pending[3] = True
            builder.add_first_use(
                pending[0], pending[1],
                max(0.0, event.time - pending[2]))
    else:
        def on_wait_exit(record) -> None:
            nonlocal pending
            root = tracker.current_root
            if root is None:  # pragma: no cover - stage 2 would have failed
                return
            pending = _PendingSync(site=root.site,
                                   end_time=ctx.machine.clock.now)

        def on_access(event: AccessEvent, stack: StackTrace,
                      regions: list[WatchedRegion]) -> None:
            nonlocal pending
            if pending is None or pending.resolved:
                return
            leaf = stack.leaf
            if leaf is None or leaf.address not in target_instructions:
                return
            pending.resolved = True
            first_uses.append(FirstUseRecord(
                site=pending.site,
                first_use_delay=max(0.0, event.time - pending.end_time),
            ))

    funnel_probe = Probe(
        {stage1.wait_symbol}, exit=on_wait_exit,
        label="stage4-funnel",
        overhead_per_hit=config.syncuse_probe_overhead,
    )

    loadstore.on_access(on_access)

    dispatch.attach(tracker.probe)
    dispatch.attach(managed_probe)
    dispatch.attach(funnel_probe)
    loadstore.install()
    with obs.span("stage.stage4_syncuse", clock=ctx.machine.clock,
                  workload=getattr(workload, "name", "workload")) as sp:
        try:
            workload.run(ctx)
        finally:
            # A raising workload still ends its process (so the run is
            # freed) and publishes whatever it accumulated.
            loadstore.uninstall()
            ctx.close()
            tracker.close()
            for probe in (tracker.probe, managed_probe, funnel_probe):
                obs.record_probe(probe, stage="stage4_syncuse")
            obs.record_device(ctx.machine.gpu)
            obs.record_run_overhead("stage4_syncuse", ctx.machine)
        n_first_uses = len(builder) if engine == "columnar" else len(first_uses)
        obs.record_collection("stage4_syncuse", n_first_uses, engine)
        sp.set(first_uses=n_first_uses,
               target_instructions=len(target_instructions))
    obs.gauge("core.stage_wall_seconds", sp.wall_duration,
              stage="stage4_syncuse")

    if engine == "columnar":
        data = builder.finish(execution_time=ctx.elapsed)
        if sink is not None:
            sink.stage_finished("stage4_syncuse", data)
        return data
    return Stage4Data(execution_time=ctx.elapsed, first_uses=first_uses)
