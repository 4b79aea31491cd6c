"""The report store under its sqlite-backend name.

The service persists through sqlite only: the job queue
(:class:`repro.service.queue.JobQueue`) and the report store
(:class:`repro.service.store.ReportStore`).  ``SqliteReportStore`` is
the same class as ``ReportStore``, so code that names the store this
way — the traced benchmark's timing hooks in
``benchmarks/e2e/launch.py`` among it — times the one real ``put``.
"""

from repro.service.store import ReportStore as SqliteReportStore

__all__ = ["SqliteReportStore"]
