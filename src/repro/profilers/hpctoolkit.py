"""HPCToolkit-like sampling profiler.

Attributes periodic virtual-time samples to the API call in flight at
each sample instant (the analogue of unwinding to the user-level
frame).  Samples landing outside any API call are attributed to
``<application>``.

Attribution loss
----------------
The paper observed HPCToolkit reporting substantially less time for
long blocking calls than expected (cumf_als ``cudaDeviceSynchronize``:
24.5% of execution where ~40% was expected) and left the cause under
investigation.  We model the plausible mechanism — stack unwinds that
fail inside opaque, frame-pointer-less vendor driver code — as a
configurable probability ``wait_unwind_failure`` that a sample taken
*while blocked in the internal wait* is misattributed to
``<application>``.  Set it to 0 for an ideal sampler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.rootprobe import RootTracker
from repro.driver.api import INTERNAL_WAIT_SYMBOL
from repro.instr.probes import Probe
from repro.profilers.base import ProfileResult, rank_entries
from repro.runtime.context import ExecutionContext
from repro.sim.machine import MachineConfig

#: Layers whose root calls are attribution targets.
_TARGET_LAYERS = ("runtime", "driver", "driver-private")


@dataclass
class _ApiInterval:
    name: str
    start: float
    end: float
    contains_wait: bool


class HpcToolkitProfiler:
    """Sampling profiler with per-API attribution."""

    tool_name = "hpctoolkit"

    def __init__(self, period: float = 200e-6, *,
                 wait_unwind_failure: float = 0.35,
                 seed: int = 0xDEAD,
                 machine_config: MachineConfig | None = None) -> None:
        if period <= 0:
            raise ValueError("sampling period must be positive")
        if not 0.0 <= wait_unwind_failure <= 1.0:
            raise ValueError("wait_unwind_failure must be a probability")
        self.period = period
        self.wait_unwind_failure = wait_unwind_failure
        self.seed = seed
        self.machine_config = machine_config

    def profile(self, workload) -> ProfileResult:
        ctx = ExecutionContext.create(self.machine_config)
        dispatch = ctx.driver.dispatch

        intervals: list[_ApiInterval] = []
        wait_windows: list[tuple[float, float]] = []

        # Track root API calls of every application-facing layer.
        all_symbols = set(dispatch.symbols_in_layer(*_TARGET_LAYERS))
        tracker = RootTracker(all_symbols, probe_overhead=0.0)

        def on_root_exit(root) -> None:
            rec = root.record
            intervals.append(_ApiInterval(
                name=rec.name, start=rec.t_entry, end=rec.t_exit,
                contains_wait=rec.meta.get("sync_wait_count", 0.0) > 0.0,
            ))

        tracker.on_root_exit.append(on_root_exit)
        dispatch.attach(tracker.probe)

        # Record the wait windows themselves so samples inside them can
        # be subjected to the unwind-failure model.
        def on_wait_exit(rec) -> None:
            start = rec.meta.get("wait_start")
            if start is not None:
                wait_windows.append((start, ctx.machine.clock.now))

        wait_probe = Probe({INTERNAL_WAIT_SYMBOL}, exit=on_wait_exit,
                           label="hpctoolkit-wait")
        dispatch.attach(wait_probe)
        try:
            workload.run(ctx)
        finally:
            ctx.close()
            tracker.close()

        execution_time = ctx.elapsed
        return self._summarise(workload, execution_time, intervals,
                               wait_windows)

    # ------------------------------------------------------------------
    def _summarise(self, workload, execution_time: float,
                   intervals: list[_ApiInterval],
                   wait_windows: list[tuple[float, float]]) -> ProfileResult:
        rng = random.Random(self.seed)
        intervals.sort(key=lambda iv: iv.start)
        wait_windows.sort()
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        for iv in intervals:
            calls[iv.name] = calls.get(iv.name, 0) + 1

        ii = 0  # interval cursor
        wi = 0  # wait-window cursor
        t = self.period
        while t < execution_time:
            while ii < len(intervals) and intervals[ii].end <= t:
                ii += 1
            name = "<application>"
            if ii < len(intervals) and intervals[ii].start <= t:
                name = intervals[ii].name
            while wi < len(wait_windows) and wait_windows[wi][1] <= t:
                wi += 1
            in_wait = (wi < len(wait_windows)
                       and wait_windows[wi][0] <= t < wait_windows[wi][1])
            if in_wait and rng.random() < self.wait_unwind_failure:
                name = "<application>"
            totals[name] = totals.get(name, 0.0) + self.period
            t += self.period

        totals.pop("<application>", None)
        return ProfileResult(
            tool=self.tool_name,
            workload_name=getattr(workload, "name", "workload"),
            execution_time=execution_time,
            entries=rank_entries(totals, calls, execution_time),
        )
