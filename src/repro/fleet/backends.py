"""Registry of pluggable queue and report-store backends.

The daemon persists through two seams —
:class:`~repro.service.queue.JobQueueBackend` and
:class:`~repro.service.store.ReportStoreBase` — and this registry
names the implementations so the CLI can select one with
``diogenes serve --backend sqlite``:

========  ==========================================  =========================================
name      queue                                       store
========  ==========================================  =========================================
file      :class:`repro.service.queue.FileJobQueue`   :class:`repro.service.store.ReportStore`
sqlite    :class:`repro.service.sqlite.SqliteJobQueue`  :class:`repro.service.sqlite.SqliteReportStore`
========  ==========================================  =========================================

Both pass the shared contract suites (``tests/test_queue_backends.py``,
``tests/test_store_backends.py``), written against the abstract
surfaces.
"""

from __future__ import annotations

import os

from repro.service.queue import FileJobQueue, JobQueueBackend
from repro.service.store import ReportStore, ReportStoreBase


def _sqlite_queue(path):
    from repro.service.sqlite import SqliteJobQueue

    return SqliteJobQueue(path)


def _sqlite_store(path):
    from repro.service.sqlite import SqliteReportStore

    return SqliteReportStore(path)


#: name -> (queue factory, store factory); factories take one path.
_BACKENDS: dict[str, tuple] = {
    "file": (FileJobQueue, ReportStore),
    "sqlite": (_sqlite_queue, _sqlite_store),
}


def backend_names() -> list[str]:
    return sorted(_BACKENDS)


def make_queue(backend: str, path: str | os.PathLike) -> JobQueueBackend:
    """Instantiate the named queue backend over ``path``."""
    try:
        queue_factory, _ = _BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"known: {backend_names()}") from None
    return queue_factory(path)


def make_store(backend: str, path: str | os.PathLike) -> ReportStoreBase:
    """Instantiate the named store backend over ``path``."""
    try:
        _, store_factory = _BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"known: {backend_names()}") from None
    return store_factory(path)
