"""Persistent analysis service (``repro.service``).

The paper positions Diogenes as a tool developers come back to across
edit-rerun cycles; this package is that workflow as a long-lived
daemon instead of one-shot CLI invocations:

* :mod:`repro.service.queue` — persistent job queue
  (submitted/running/done/failed) with crash-safe resume and
  lease-based remote claims, in one sqlite/WAL database;
* :mod:`repro.service.store` — content-addressed report store keyed
  by (workload fingerprint, config digest, code fingerprint), with
  append-only run history, in a second sqlite/WAL database;
* :mod:`repro.service.daemon` — the asyncio HTTP/JSON server
  (``diogenes serve``) running submissions on fleet nodes
  (:mod:`repro.fleet`) — its own in-process one, ``--workers`` slots
  wide, and any ``diogenes worker`` it serves the protocol to —
  applying ``--max-queue`` backpressure, plus ``/metrics``
  Prometheus exposition;
* :mod:`repro.service.client` — the stdlib urllib client behind the
  ``submit`` / ``status`` / ``fetch`` / ``diff`` CLI subcommands and
  the worker loop, with jittered exponential backoff on connection
  errors and 429 (honouring ``Retry-After``).

Regression diffing itself is a core concern
(:mod:`repro.core.diffing`) so the explorer and the offline
``diogenes diff a.json b.json`` work without a running service; the
daemon's ``/diff`` endpoint serves the same diff over stored reports.
API reference and deployment notes: ``docs/service.md``.
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "ServiceDaemon": "repro.service.daemon",
    "DONE": "repro.service.queue",
    "FAILED": "repro.service.queue",
    "RUNNING": "repro.service.queue",
    "SUBMITTED": "repro.service.queue",
    "Job": "repro.service.queue",
    "JobQueue": "repro.service.queue",
    "ReportStore": "repro.service.store",
    "report_identity": "repro.service.store",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
