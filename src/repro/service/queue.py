"""Persistent job queue for the analysis daemon, in one sqlite database.

States::

    submitted ──► running ──► done
                     │
                     └──────► failed

A job moves to ``running`` when it is *claimed*.  The daemon claims
only through the fleet protocol (:mod:`repro.fleet`), for its own
in-process node and for remote ``diogenes worker`` processes alike:
with a worker id and a *lease*.  The claim carries ``lease_expires``,
heartbeats extend it, and an expired lease returns the job to
``submitted`` for redelivery (:meth:`JobQueue.expire_leases`).
A restart leaves live leases alone — a remote worker is still
executing and will push its result home.  An unleased claim
(``worker=None``) is one whose claimer dies with the process;
:meth:`JobQueue.recover` (run at startup) moves such a job back to
``submitted`` immediately.

Re-running is always safe — stage execution is deterministic, and a
run that dies half-way stored nothing: its report lands in the
content-addressed store only when the run completes.

``<dir>/queue.db`` is the job table (WAL mode, one row per job): the
queue holds no copy of it in memory beyond its per-state counts, so a
long-lived daemon's memory does not grow with its job history.  Every
read is an indexed query, and every transition re-reads the job's row
and commits the change, in one transaction, before it is acted on.
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

SUBMITTED = "submitted"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Every state a job can be in, in lifecycle order.
STATES = (SUBMITTED, RUNNING, DONE, FAILED)

#: The state of a row whose record does not decode: no read returns
#: it and no count includes it, but it keeps its seq, so its job id is
#: never handed to a later submission.
_UNREADABLE = "unreadable"

#: Rows a job-table read fetches per query.
_PAGE = 16


@dataclass
class Job:
    """One workload-analysis submission, as persisted."""

    id: str
    workload: str
    params: dict
    config: dict
    report_key: str
    state: str = SUBMITTED
    error: str | None = None
    attempts: int = 0
    created: float = field(default_factory=time.time)
    updated: float = field(default_factory=time.time)
    #: Claiming worker id; ``None`` for an unleased claim.
    worker: str | None = None
    #: Lease deadline (``time.time``) for leased claims; ``None`` when
    #: unleased.  An expired lease returns the job to ``submitted``.
    lease_expires: float | None = None
    #: ``time.time`` of the most recent claim; ``None`` until first
    #: claimed.  ``claimed - created`` is the job's queue wait — the
    #: number the worker pull cadence directly controls.
    claimed: float | None = None
    #: Submitted with ``force``: a claim executes it even when its
    #: report was stored before it was submitted.
    force: bool = False

    def to_json(self) -> dict:
        # Not ``dataclasses.asdict``: this runs on every submit/claim/
        # persist and asdict's deepcopy machinery dominated the submit
        # hot path under load.  A shallow copy shares nothing with the
        # queue: every Job is a snapshot of its row.
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, data: dict) -> "Job":
        return cls(**data)


def connect(directory: str | os.PathLike,
            filename: str) -> sqlite3.Connection:
    """Open ``directory/filename`` the way the service's databases run.

    WAL mode, so a writer never blocks a reader on another connection
    (a second process inspecting the file, say).  With
    ``synchronous=NORMAL`` an OS crash may lose the *last* transactions
    but never corrupts the file; a lost transition re-runs its job,
    which is the crash model the service assumes everywhere (execution
    is deterministic, stores are content-addressed).  One connection
    serves every thread; callers serialize their calls with a lock.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(os.fspath(directory / filename),
                           check_same_thread=False)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    return conn


def _seq_of(job_id) -> int | None:
    """The row of ``job-{seq:06d}``; ``None`` for any other id
    (``job-1`` is not ``job-000001``) and past sqlite's integers."""
    digits = job_id[4:] if isinstance(job_id, str) else ""
    seq = int(digits) if digits.isdecimal() and len(digits) < 20 else 0
    return seq if 0 < seq < 2 ** 63 and job_id == f"job-{seq:06d}" else None


def _decode(data: str) -> Job | None:
    try:
        return Job.from_json(json.loads(data))
    except (ValueError, TypeError):
        return None  # unreadable record: skip, never crash the daemon


def _migrate(conn: sqlite3.Connection) -> None:
    """Bring ``queue.db`` to ``user_version`` 1, in one transaction.

    Version 1 is ``jobs(seq, state, data)`` with an index on
    ``(state, seq)``, so claim order is ``ORDER BY seq`` and a state's
    jobs are one index range.  Version 0 is a new file, or the earlier
    ``jobs(id, data)``: its rows move over keeping their ids, states,
    attempts and leases (a queued job lost here would never run); a
    row that does not decode keeps its id as an unreadable row, and
    one whose id is not ``job-{seq:06d}`` is dropped.
    """
    with conn:
        conn.execute("BEGIN IMMEDIATE")
        if conn.execute("PRAGMA user_version").fetchone()[0]:
            return
        # A new file takes the same path, through an empty old table.
        conn.execute("CREATE TABLE IF NOT EXISTS jobs ("
                     "id TEXT PRIMARY KEY, data TEXT NOT NULL)")
        conn.execute("ALTER TABLE jobs RENAME TO jobs_v0")
        conn.execute("CREATE TABLE jobs (seq INTEGER PRIMARY KEY, "
                     "state TEXT NOT NULL, data TEXT NOT NULL)")
        conn.execute("CREATE INDEX jobs_by_state ON jobs (state, seq)")
        for job_id, data in conn.execute("SELECT id, data FROM jobs_v0"):
            job, seq = _decode(data), _seq_of(job_id)
            if seq:
                readable = job is not None and job.id == job_id \
                    and job.state in STATES
                conn.execute("INSERT INTO jobs VALUES (?, ?, ?)",
                             (seq, job.state if readable else _UNREADABLE,
                              data))
        conn.execute("DROP TABLE jobs_v0")
        conn.execute("PRAGMA user_version = 1")


class JobQueue:
    """The daemon's job queue over one directory (``queue.db`` inside).

    Its memory is the connection, one re-entrant lock that serializes
    every call on it, and the per-state counts (seeded by one ``GROUP
    BY`` at open, then kept by each transition).  Every :class:`Job` it
    hands out is a snapshot of its row; a method that takes a ``Job``
    updates it in place from the row it commits.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        directory = pathlib.Path(directory)
        if any(directory.glob("job-*.json")):
            # Written by the former one-file-per-job queue: opening it
            # here would start an empty queue beside jobs that then
            # never run.
            raise ValueError(
                f"{directory} holds jobs of the retired file backend "
                "(job-*.json), which this version does not read; run "
                "them to completion with the previous release or use a "
                "fresh data directory")
        self._conn = connect(directory, "queue.db")
        _migrate(self._conn)
        self._lock = threading.RLock()
        self._counts = dict.fromkeys(STATES, 0)
        self._counts.update(self._conn.execute(
            "SELECT state, COUNT(*) FROM jobs WHERE state != ?"
            " GROUP BY state", (_UNREADABLE,)))
        self.recover()

    def close(self) -> None:
        self._conn.close()

    def _select(self, where: str = "", *args) -> Iterator[Job]:
        """Jobs matching ``where`` (``AND`` clauses bound to ``args``),
        oldest first.

        Rows are fetched ``_PAGE`` at a time and decoded as they are
        reached, so a caller that stops early (a pull stops at the first
        job it can claim) pays for the rows up to there, not for the
        table.  A row that does not decode could never be read, run or
        finished: when met, it becomes an unreadable row and leaves the
        counts.  It is not deleted, so ``submit`` never reuses its id.
        """
        after = 0
        while True:
            with self._lock:
                rows = self._conn.execute(
                    "SELECT seq, state, data FROM jobs WHERE seq > ?"
                    f" AND state != ? {where} ORDER BY seq LIMIT ?",
                    (after, _UNREADABLE, *args, _PAGE)).fetchall()
            for after, state, data in rows:
                if (job := _decode(data)) is not None:
                    yield job
                    continue
                with self._lock, self._conn:
                    self._counts[state] -= self._conn.execute(
                        "UPDATE jobs SET state = ? WHERE seq = ? AND state = ?",
                        (_UNREADABLE, after, state)).rowcount
            if len(rows) < _PAGE:
                return

    def _row(self, job_id: str) -> Job | None:
        seq = _seq_of(job_id)
        return next(self._select("AND seq = ?", seq), None) if seq else None

    def _write(self, job: Job, was: str | None = None) -> None:
        """Commit a job's record and move it in the counts from state
        ``was`` (``None``: a new job).  Lock held."""
        job.updated = time.time()
        with self._conn:
            self._conn.execute("REPLACE INTO jobs VALUES (?, ?, ?)",
                               (_seq_of(job.id), job.state,
                                json.dumps(job.to_json())))
        if was is not None:
            self._counts[was] -= 1
        self._counts[job.state] += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def recover(self) -> list[Job]:
        """Crash-safe resume: requeue orphaned ``running`` jobs.

        An unleased claim (``worker is None``) was in flight inside the
        previous process and died with it — requeued unconditionally.
        A leased job survives a restart (a remote worker may still be
        executing it) and is requeued only once its lease has expired.
        """
        now = time.time()
        return self._requeue_running(
            lambda job: job.worker is None
            or (job.lease_expires or 0) <= now)

    def _requeue_running(self, due) -> list[Job]:
        """Requeue every running job ``due(job)`` picks; returns them."""
        with self._lock:
            jobs = [job for job in self._select("AND state = ?", RUNNING)
                    if due(job)]
            for job in jobs:
                self._requeue_locked(job)
        return jobs

    def _requeue_locked(self, job: Job) -> None:
        job.state, job.worker, job.lease_expires = SUBMITTED, None, None
        self._write(job, RUNNING)

    def submit(self, workload: str, params: dict, config: dict,
               report_key: str, *, state: str = SUBMITTED,
               error: str | None = None, force: bool = False) -> Job:
        """Enqueue one submission (or record it directly ``done`` when
        the report store already holds its result)."""
        with self._lock:
            (last,) = self._conn.execute(
                "SELECT MAX(seq) FROM jobs").fetchone()
            job = Job(id=f"job-{(last or 0) + 1:06d}", workload=workload,
                      params=dict(params), config=dict(config),
                      report_key=report_key, state=state, error=error,
                      force=force)
            self._write(job)
            return job

    def claim_next(self, *, worker: str | None = None,
                   lease_seconds: float | None = None) -> Job | None:
        """Oldest submitted job, atomically moved to ``running``.

        ``worker``/``lease_seconds`` stamp a lease on the claim; the
        default (both ``None``) is an unleased claim.
        """
        for job in self.waiting():
            claimed = self.claim_job(job.id, worker=worker,
                                     lease_seconds=lease_seconds)
            if claimed is not None:
                return claimed
        return None

    def claim_job(self, job_id: str, *, worker: str | None = None,
                  lease_seconds: float | None = None) -> Job | None:
        """Claim one *specific* submitted job, or ``None`` if it is no
        longer claimable (raced by another puller)."""
        with self._lock:
            job = self._row(job_id)
            if job is None or job.state != SUBMITTED:
                return None
            job.state, job.worker, job.claimed = RUNNING, worker, time.time()
            job.attempts += 1
            job.lease_expires = (job.claimed + lease_seconds
                                 if lease_seconds is not None else None)
            self._write(job, SUBMITTED)
            return job

    def heartbeat(self, job_id: str, worker: str,
                  lease_seconds: float) -> Job | None:
        """Extend a leased claim; ``None`` when the lease is
        lost (job requeued, finished, or claimed by someone else)."""
        with self._lock:
            job = self._row(job_id)
            if job is None or job.state != RUNNING or job.worker != worker:
                return None
            job.lease_expires = time.time() + lease_seconds
            self._write(job, RUNNING)
            return job

    def expire_leases(self, now: float | None = None) -> list[Job]:
        """Return every expired-lease job to ``submitted`` for
        redelivery; returns the requeued jobs."""
        now = time.time() if now is None else now
        return self._requeue_running(
            lambda job: job.worker is not None
            and job.lease_expires is not None and job.lease_expires <= now)

    def _still_running(self, job: Job) -> bool:
        """Refresh ``job`` from its row (lock held); whether the row
        still runs under the worker ``job`` named."""
        fresh = self._row(job.id)
        if fresh is None:
            return False
        held = fresh.state == RUNNING and fresh.worker == job.worker
        vars(job).update(vars(fresh))
        return held

    def requeue(self, job: Job, error: str | None = None) -> bool:
        """Explicitly return one running job to ``submitted`` (fleet
        retry path), preserving its attempt count, if it still runs
        under ``job.worker``; returns whether it did.  ``error``, if
        given, stays visible while the job waits for redelivery."""
        with self._lock:
            held = self._still_running(job)
            if held:
                job.error = error or job.error
                self._requeue_locked(job)
        return held

    def fail_running(self, job: Job, error: str,
                     announce: Callable[[Job], None]) -> bool:
        """Fail ``job`` for good (fleet final-failure path) if it still
        runs under ``job.worker``; returns whether it did.

        ``announce(job)`` runs just before the transition, under the
        lock that claims and lease expiry take, so the failure can be
        published before it is observable and no claim comes between
        the check and the transition."""
        with self._lock:
            held = self._still_running(job)
            if held:
                announce(job)
                self.mark_failed(job, error)
        return held

    def mark_done(self, job: Job, report_key: str | None = None) -> None:
        self._finish(job, DONE, None, report_key)

    def mark_failed(self, job: Job, error: str) -> None:
        self._finish(job, FAILED, error)

    def _finish(self, job: Job, state: str, error: str | None,
                report_key: str | None = None) -> None:
        with self._lock:
            fresh = self._row(job.id)
            if fresh is None:
                raise KeyError(f"no such job: {job.id}")
            was = fresh.state
            fresh.state, fresh.error, fresh.lease_expires = state, error, None
            fresh.report_key = report_key or fresh.report_key
            self._write(fresh, was)
        vars(job).update(vars(fresh))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        """The job with this id; ``None`` for any other string."""
        with self._lock:
            return self._row(job_id)

    def jobs(self) -> list[Job]:
        """Every job, oldest first."""
        return list(self._select())

    def jobs_in_state(self, state: str) -> list[Job]:
        """Jobs currently in ``state``, oldest first."""
        return list(self._select("AND state = ?", state))

    def waiting(self, report_key: str | None = None) -> Iterator[Job]:
        """Submitted jobs (of ``report_key``, if given), oldest first,
        read as they are reached: a pull pays for the jobs ahead of the
        one it claims, not for the queue's depth.  ``instr`` passes over
        a row that does not name ``report_key`` without decoding it."""
        jobs = self._select("AND state = ? AND instr(data, ?)",
                            SUBMITTED, report_key or "")
        return (job for job in jobs if report_key in (None, job.report_key))

    def active_leases(self, now: float | None = None) -> int:
        """Running jobs held under a live lease."""
        now = time.time() if now is None else now
        return sum(job.worker is not None and (job.lease_expires or 0) > now
                   for job in self.jobs_in_state(RUNNING))

    def counts(self) -> dict[str, int]:
        """``{state: job count}`` for all four states (zeros included)."""
        with self._lock:
            return {state: self._counts[state] for state in STATES}

    def depth(self) -> int:
        """Jobs waiting to run."""
        return self.counts()[SUBMITTED]


#: The name the traced benchmark (``benchmarks/e2e/launch.py``) times
#: queue operations under.
JobQueueBackend = JobQueue
