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

The job set lives in memory; ``<dir>/queue.db`` (WAL mode, one row
per job) is its durable mirror, read back at startup.  Every
transition is persisted, in one transaction, before it is acted on.
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
import threading
import time
from dataclasses import dataclass, field

SUBMITTED = "submitted"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Every state a job can be in, in lifecycle order.
STATES = (SUBMITTED, RUNNING, DONE, FAILED)


def _oldest_first(job_ids) -> list[str]:
    """Job ids in submission order.  Ids are ``job-`` and a sequence
    number padded to six digits, so past ``job-999999`` a longer id is
    a later one."""
    return sorted(job_ids, key=lambda job_id: (len(job_id), job_id))


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
        # Hand-rolled rather than ``dataclasses.asdict``: this runs on
        # every submit/claim/persist and asdict's deepcopy machinery
        # dominated the submit hot path under load.
        data = dict(self.__dict__)
        data["params"] = dict(self.params)
        data["config"] = dict(self.config)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Job":
        return cls(**data)


def connect(directory: str | os.PathLike,
            filename: str) -> sqlite3.Connection:
    """Open ``directory/filename`` the way the service's databases run.

    WAL mode, so writers never block readers: the event loop answers
    ``/jobs`` while a slot thread persists a transition.  With
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


class JobQueue:
    """The daemon's job queue over one directory (``queue.db`` inside).

    Claim ordering, leases, per-state counts and crash recovery run on
    the in-memory job dict under one lock; :meth:`_persist` mirrors
    each transition into sqlite before the call returns.
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
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS jobs ("
            "  id TEXT PRIMARY KEY,"
            "  data TEXT NOT NULL)")
        self._conn.commit()
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._seq = 0
        self._counts = dict.fromkeys(STATES, 0)
        # Incremental indexes so the hot paths never scan the full
        # job table: ids waiting to be claimed, and ids running (the
        # leases among them).  Submit, pull and lease-sweep rates under
        # load are bounded by these, not by the job history.
        self._pending: set[str] = set()
        self._running: set[str] = set()
        for (data,) in self._conn.execute("SELECT data FROM jobs"):
            try:
                job = Job.from_json(json.loads(data))
            except (ValueError, TypeError):
                continue  # unreadable record: skip, never crash the daemon
            self._jobs[job.id] = job
            self._counts[job.state] = self._counts.get(job.state, 0) + 1
            self._index(job)
            try:
                self._seq = max(self._seq, int(job.id.split("-")[1]))
            except (IndexError, ValueError):
                pass
        self.recover()

    def close(self) -> None:
        self._conn.close()

    def _persist(self, job: Job) -> None:
        """Durably write one job's current state."""
        job.updated = time.time()
        self._conn.execute("INSERT OR REPLACE INTO jobs VALUES (?, ?)",
                           (job.id, json.dumps(job.to_json())))
        self._conn.commit()

    def _transition(self, job: Job, state: str) -> None:
        """Move a job between states, keeping counts incremental.

        Counts are maintained here rather than recomputed on demand so
        ``counts()`` — called on every ``/submit`` for gauges and
        backpressure — stays O(states) however deep the queue gets.
        """
        self._counts[job.state] -= 1
        job.state = state
        self._counts[state] = self._counts.get(state, 0) + 1
        self._index(job)

    def _index(self, job: Job) -> None:
        """Keep the pending/running indexes in step with a job's state."""
        self._pending.discard(job.id)
        self._running.discard(job.id)
        if job.state == SUBMITTED:
            self._pending.add(job.id)
        elif job.state == RUNNING:
            self._running.add(job.id)

    def _leases_locked(self) -> list[Job]:
        """Running jobs held under a lease (worker id and deadline)."""
        return [job for job in map(self._jobs.get,
                                   _oldest_first(self._running))
                if job.worker is not None and job.lease_expires is not None]

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
        requeued = []
        with self._lock:
            for job_id in _oldest_first(self._running):
                job = self._jobs[job_id]
                if job.worker is not None and (
                        job.lease_expires or 0) > now:
                    continue  # live lease: leave it running
                self._requeue_locked(job)
                requeued.append(job)
        return requeued

    def _requeue_locked(self, job: Job) -> None:
        self._transition(job, SUBMITTED)
        job.worker = None
        job.lease_expires = None
        self._persist(job)

    def submit(self, workload: str, params: dict, config: dict,
               report_key: str, *, state: str = SUBMITTED,
               error: str | None = None, force: bool = False) -> Job:
        """Enqueue one submission (or record it directly ``done`` when
        the report store already holds its result)."""
        with self._lock:
            self._seq += 1
            job = Job(id=f"job-{self._seq:06d}", workload=workload,
                      params=dict(params), config=dict(config),
                      report_key=report_key, state=state, error=error,
                      force=force)
            self._jobs[job.id] = job
            self._counts[state] = self._counts.get(state, 0) + 1
            self._index(job)
            self._persist(job)
            return job

    def claim_next(self, *, worker: str | None = None,
                   lease_seconds: float | None = None) -> Job | None:
        """Oldest submitted job, atomically moved to ``running``.

        ``worker``/``lease_seconds`` stamp a lease on the claim; the
        default (both ``None``) is an unleased claim.
        """
        with self._lock:
            for job_id in _oldest_first(self._pending):
                job = self._jobs[job_id]
                self._claim_locked(job, worker, lease_seconds)
                return job
        return None

    def claim_job(self, job_id: str, *, worker: str | None = None,
                  lease_seconds: float | None = None) -> Job | None:
        """Claim one *specific* submitted job, or ``None`` if it is no
        longer claimable (raced by another puller)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != SUBMITTED:
                return None
            self._claim_locked(job, worker, lease_seconds)
            return job

    def _claim_locked(self, job: Job, worker: str | None,
                      lease_seconds: float | None) -> None:
        self._transition(job, RUNNING)
        job.attempts += 1
        job.claimed = time.time()
        job.worker = worker
        job.lease_expires = (time.time() + lease_seconds
                             if lease_seconds is not None else None)
        self._persist(job)

    def heartbeat(self, job_id: str, worker: str,
                  lease_seconds: float) -> Job | None:
        """Extend a leased claim; ``None`` when the lease is
        lost (job requeued, finished, or claimed by someone else)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != RUNNING or job.worker != worker:
                return None
            job.lease_expires = time.time() + lease_seconds
            self._persist(job)
            return job

    def expire_leases(self, now: float | None = None) -> list[Job]:
        """Return every expired-lease job to ``submitted`` for
        redelivery; returns the requeued jobs."""
        now = time.time() if now is None else now
        expired = []
        with self._lock:
            for job in self._leases_locked():
                if job.lease_expires <= now:
                    self._requeue_locked(job)
                    expired.append(job)
        return expired

    def requeue(self, job: Job) -> None:
        """Explicitly return one running job to ``submitted``
        (fleet retry path), preserving its attempt count."""
        with self._lock:
            if job.state == RUNNING:
                self._requeue_locked(job)

    def mark_done(self, job: Job, report_key: str | None = None) -> None:
        with self._lock:
            if report_key is not None:
                job.report_key = report_key
            self._transition(job, DONE)
            job.error = None
            job.lease_expires = None
            self._persist(job)

    def mark_failed(self, job: Job, error: str) -> None:
        with self._lock:
            self._transition(job, FAILED)
            job.error = error
            job.lease_expires = None
            self._persist(job)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every job, oldest first."""
        with self._lock:
            return [self._jobs[job_id]
                    for job_id in _oldest_first(self._jobs)]

    def jobs_in_state(self, state: str) -> list[Job]:
        """Jobs currently in ``state``, oldest first.

        Submitted and running jobs come from their indexes; only the
        terminal states scan the job history.
        """
        with self._lock:
            index = {SUBMITTED: self._pending,
                     RUNNING: self._running}.get(state)
            if index is not None:
                return [self._jobs[job_id]
                        for job_id in _oldest_first(index)]
            return [self._jobs[job_id] for job_id in _oldest_first(self._jobs)
                    if self._jobs[job_id].state == state]

    def active_leases(self, now: float | None = None) -> int:
        """Running jobs held under a live lease."""
        now = time.time() if now is None else now
        with self._lock:
            return sum(1 for job in self._leases_locked()
                       if job.lease_expires > now)

    def counts(self) -> dict[str, int]:
        """``{state: job count}`` for all four states (zeros included)."""
        with self._lock:
            return {state: self._counts.get(state, 0) for state in STATES}

    def depth(self) -> int:
        """Jobs waiting to run."""
        return self.counts()[SUBMITTED]

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)


#: The name the traced benchmark (``benchmarks/e2e/launch.py``) times
#: queue operations under.
JobQueueBackend = JobQueue
