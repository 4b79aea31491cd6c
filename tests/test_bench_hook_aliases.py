"""The traced benchmark's persistence hooks time the one queue and store.

``benchmarks/e2e/launch.py`` wraps ``put`` under two store names,
``repro.service.store.ReportStore`` and
``repro.service.sqlite.SqliteReportStore``, and the queue operations
under ``repro.service.queue.JobQueueBackend``.  Each name must be the
service's one class, so a traced run times the ``put`` and queue calls
that really run (``tests/test_bench_hooks.py`` checks they resolve).
"""

from __future__ import annotations


def test_both_store_names_are_the_one_store():
    import repro.service.sqlite
    import repro.service.store

    assert (repro.service.store.ReportStore
            is repro.service.sqlite.SqliteReportStore)


def test_queue_hook_name_is_the_one_queue():
    from repro.service import queue

    assert queue.JobQueueBackend is queue.JobQueue
