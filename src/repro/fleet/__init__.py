"""Fleet mode: multi-node scale-out of the analysis service.

``diogenes serve`` remains the *coordinator* — the single owner of the
job queue, the report store, and the HTTP front door — while worker
nodes pull jobs, execute them through their own
:class:`repro.exec.StageExecutor`, and push reports plus trace spans
home: ``diogenes worker --coordinator URL`` processes over HTTP, and
the daemon's own ``--workers N`` node by direct calls.

* :mod:`repro.fleet.coordinator` — coordinator-side state: the worker
  registry, lease accounting, duplicate suppression (a stored report
  resolves a queued job; one whose report key is running waits), and
  the trace stitcher that roots every pushed span batch under one
  ``service.job`` tree;
* :mod:`repro.fleet.worker` — the worker-node loop: register, pull,
  heartbeat, execute, push — and the in-process link.

Any worker's pull claims the oldest eligible job: every node stores
the same bytes under the same key, so no job belongs to one node.
Delivery contract: jobs are leased, not handed over.  A worker that
stops heartbeating (crash, partition, SIGKILL) loses its lease and
the job returns to ``submitted`` for redelivery — at-least-once
execution, exactly-once *results*, because reports are
content-addressed and byte-deterministic so a duplicated execution
stores the identical bytes under the identical key.

Protocol, backpressure rules, and a runnable two-worker example:
``docs/service.md`` ("Fleet mode").
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "FleetCoordinator": "repro.fleet.coordinator",
    "WorkerInfo": "repro.fleet.coordinator",
    "WorkerNode": "repro.fleet.worker",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
