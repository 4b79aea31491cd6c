"""NVProf-like CUPTI-summary profiler.

Profiles a workload by attaching a CUPTI subscription and summing the
runtime-API interval records per function — the "API calls" section of
``nvprof``'s summary output.  Being CUPTI-based it inherits the
framework's blind spots:

* private-API work (vendor libraries) never appears;
* implicit and conditional synchronization time is *inside* the API
  call totals but never attributed to synchronization — the profiler
  reports consumption, not cause;
* past a record budget the tool crashes
  (:class:`NvprofCrashedError`), reproducing the NVProf crash the
  paper hit on cuIBM's >75 M driver calls.
"""

from __future__ import annotations

from repro.cupti.activity import CuptiOverflowError, CuptiSubscription
from repro.profilers.base import ProfileResult, rank_entries
from repro.runtime.context import ExecutionContext
from repro.sim.machine import MachineConfig

#: Default activity-record budget before the tool falls over.  Chosen
#: so the paper's call volumes reproduce the observed behaviour: the
#: scaled cuIBM workload exceeds it, the other three applications do
#: not.
DEFAULT_RECORD_LIMIT = 100_000


class NvprofCrashedError(RuntimeError):
    """The profiler crashed mid-run (activity buffers exhausted)."""

    def __init__(self, records: int) -> None:
        super().__init__(
            f"nvprof crashed after {records} activity records "
            "(CUPTI buffers exhausted)"
        )
        self.records = records


class NvprofProfiler:
    """Summary profiler over CUPTI activity records."""

    tool_name = "nvprof"

    def __init__(self, record_limit: int | None = DEFAULT_RECORD_LIMIT,
                 machine_config: MachineConfig | None = None) -> None:
        self.record_limit = record_limit
        self.machine_config = machine_config

    def profile(self, workload) -> ProfileResult:
        """Run the workload under CUPTI collection and summarise.

        Raises :class:`NvprofCrashedError` when the record budget is
        exhausted mid-run, like the real tool.
        """
        ctx = ExecutionContext.create(self.machine_config)
        cupti = CuptiSubscription(machine=ctx.machine,
                                  max_records=self.record_limit)
        ctx.driver.attach_cupti(cupti)
        try:
            workload.run(ctx)
        except CuptiOverflowError as exc:
            raise NvprofCrashedError(cupti.total_records) from exc
        finally:
            ctx.close()

        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        for rec in cupti.api_records:
            if rec.layer != "runtime":
                continue
            totals[rec.name] = totals.get(rec.name, 0.0) + rec.duration
            calls[rec.name] = calls.get(rec.name, 0) + 1

        execution_time = ctx.elapsed
        return ProfileResult(
            tool=self.tool_name,
            workload_name=getattr(workload, "name", "workload"),
            execution_time=execution_time,
            entries=rank_entries(totals, calls, execution_time),
        )
