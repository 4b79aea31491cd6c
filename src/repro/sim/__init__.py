"""Virtual-time CPU/GPU execution simulator.

This package is the hardware substrate for the Diogenes reproduction.
The paper ran on real Pascal GPUs; here every timing comes from a
deterministic discrete-event model driven by an analytic cost model
(:mod:`repro.sim.costs`).  Applications execute as ordinary Python on
the simulated CPU; GPU work is enqueued onto streams and scheduled
eagerly onto device engines.

Design notes
------------
* **Eager scheduling.**  Because the host enqueues operations in
  program order and all durations are deterministic, every GPU
  operation's start/end time is computable at enqueue time.  No event
  loop is needed; the "discrete event" structure collapses to a small
  amount of per-stream/per-engine bookkeeping, which keeps simulating
  hundreds of thousands of operations cheap.
* **Virtual time, real payloads.**  The clock is virtual (float
  seconds) so runs are reproducible; application arithmetic is real
  numpy so content-based deduplication downstream is honest.
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "VirtualClock": "repro.sim.clock",
    "CostModel": "repro.sim.costs",
    "GpuDevice": "repro.sim.device",
    "Engine": "repro.sim.engine",
    "Machine": "repro.sim.machine",
    "MachineConfig": "repro.sim.machine",
    "DeviceOp": "repro.sim.ops",
    "OpKind": "repro.sim.ops",
    "render_timeline": "repro.sim.render",
    "Stream": "repro.sim.stream",
    "CpuInterval": "repro.sim.trace",
    "GpuOpRecord": "repro.sim.trace",
    "TimelineRecorder": "repro.sim.trace",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
