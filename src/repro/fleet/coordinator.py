"""Coordinator-side fleet state: workers, leases, duplicate
suppression, and trace stitching.

The daemon owns one :class:`FleetCoordinator`.  Nodes reach it through
a :class:`~repro.fleet.worker.LocalLink` of direct calls: the daemon's
in-process node holds one, and the ``/fleet/*`` routes remote nodes
call are thin JSON shims over another, so the protocol logic is
testable without a socket.

Scheduling rules applied by :meth:`FleetCoordinator.pull`, in order,
per submitted job (oldest first), so any worker's pull claims the
oldest eligible job:

1. **store dedup** — the report already exists (another node pushed it
   since submit time): the job is marked done on the spot, no
   execution anywhere.  A ``force`` job skips this check: it was
   submitted to re-run a report already stored;
2. **in-flight dedup** — another running job carries the same report
   key: skipped, the eventual completion will resolve this one too.
   One lock spans the running-key scan and the claim, so the check is
   exact for every pair of pullers: remote workers, and the slots of
   one local node.

Liveness feeds only ``/fleet/workers``, the live-worker gauge and the
held-pull cap: a worker is live until it has been silent for two
leases or a lease it held expires (:meth:`FleetCoordinator.expire`).

Completions are validated against the lease (worker id must match the
claim) and against identity: the worker recomputes the report
identity from its own code tree, and a key mismatch with the
coordinator's submit-time key means the fleet is running skewed code
— the job fails loudly rather than archiving bytes under a wrong key.
A *stale* completion (lease expired, job already redelivered or
finished elsewhere) is acknowledged, not applied as the job's
completion: results are content-addressed, so the stale bytes are
identical to any winner's.  They are banked, and queued submissions
of the key — the requeued job itself included — resolve from them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import repro.obs as obs
from repro.obs.tracer import Tracer
from repro.service.queue import DONE, RUNNING, SUBMITTED, Job
from repro.service.store import ReportIdentity

#: Default lease duration handed to workers at register/pull time.
DEFAULT_LEASE_SECONDS = 30.0

#: Failed executions are redelivered until a job has been attempted
#: this many times, then the job fails for good.
DEFAULT_RETRY_LIMIT = 3


@dataclass
class WorkerInfo:
    """One registered worker node, as the coordinator sees it."""

    id: str
    registered: float = field(default_factory=time.time)
    last_seen: float = field(default_factory=time.time)
    jobs_completed: int = 0
    jobs_failed: int = 0
    #: A lease it held expired after ``last_seen``: presumed dead.
    lease_expired: bool = False

    def to_json(self, now: float, ttl: float) -> dict:
        return {
            "id": self.id,
            "registered": self.registered,
            "last_seen": self.last_seen,
            "live": not self.lease_expired and now - self.last_seen <= ttl,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
        }


class StaleLeaseError(Exception):
    """A heartbeat or completion arrived for a lease no longer held."""


class FleetCoordinator:
    """Worker registry + pull/complete protocol over the job queue."""

    def __init__(self, queue, store, *,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 publish=None) -> None:
        self.queue = queue
        self.store = store
        self.lease_seconds = lease_seconds
        self.retry_limit = DEFAULT_RETRY_LIMIT
        #: ``publish(job_id, event_name, **fields)`` — the daemon's
        #: live event stream; a no-op default keeps this testable bare.
        self._publish = publish or (lambda job_id, name, **fields: None)
        self.workers: dict[str, WorkerInfo] = {}
        #: Guards the registry, and makes each pull's scan and claim
        #: one step.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(self, worker_id: str) -> dict:
        """Idempotently register a worker; returns its lease terms."""
        if not worker_id or not isinstance(worker_id, str):
            raise ValueError("worker id must be a non-empty string")
        with self._lock:
            info = self.workers.get(worker_id)
            if info is None:
                info = self.workers[worker_id] = WorkerInfo(id=worker_id)
            info.last_seen = time.time()
            info.lease_expired = False
            obs.count("service.fleet_registrations", worker=worker_id)
            return {
                "worker": worker_id,
                "lease_seconds": self.lease_seconds,
                "workers": sorted(self.workers),
            }

    def touch(self, worker_id: str) -> WorkerInfo:
        """Refresh liveness; unknown workers are auto-registered (a
        coordinator restart forgets the registry but not the queue —
        returning workers must not be turned away)."""
        with self._lock:
            info = self.workers.get(worker_id)
            if info is None:
                info = self.workers[worker_id] = WorkerInfo(id=worker_id)
            info.last_seen = time.time()
            info.lease_expired = False
            return info

    def live_workers(self) -> set[str]:
        return {info["id"] for info in self.workers_json() if info["live"]}

    def workers_json(self) -> list[dict]:
        """Registered workers, by id; one silent for two leases, or
        whose lease expired since it was last heard from, is not live."""
        now = time.time()
        with self._lock:
            return [info.to_json(now, 2 * self.lease_seconds)
                    for _, info in sorted(self.workers.items())]

    # ------------------------------------------------------------------
    # Pull / heartbeat
    # ------------------------------------------------------------------
    def pull(self, worker_id: str) -> Job | None:
        """Claim the oldest eligible submitted job for this worker."""
        self.touch(worker_id)
        with self._lock:
            inflight = {job.report_key
                        for job in self.queue.jobs_in_state(RUNNING)}
            for job in self.queue.waiting():
                if not job.force and self.store.contains(job.report_key):
                    # Another execution pushed this report since submit
                    # time: resolve without running anything, observably.
                    self._resolve_from_store(job)
                    continue
                if job.report_key in inflight:
                    obs.count("service.fleet_dedup_suppressed")
                    continue
                claimed = self.queue.claim_job(
                    job.id, worker=worker_id,
                    lease_seconds=self.lease_seconds)
                if claimed is None:
                    continue  # resolved meanwhile; keep scanning
                obs.count("service.fleet_pulls", worker=worker_id)
                self._publish(claimed.id, "job.leased", worker=worker_id,
                              attempts=claimed.attempts)
                return claimed
        return None

    def heartbeat(self, worker_id: str, job_id: str,
                  snapshot: dict | None = None) -> Job:
        """Extend the worker's lease; raises on a lost lease.

        ``snapshot`` is an optional rolling streaming snapshot from the
        worker's in-flight run (see :mod:`repro.stream`); it is relayed
        into the job's home ``/events`` stream, so ``diogenes tail``
        against the coordinator sees ranked problems while the job is
        still executing on a remote worker.
        """
        self.touch(worker_id)
        job = self.queue.heartbeat(job_id, worker_id, self.lease_seconds)
        if job is None:
            raise StaleLeaseError(
                f"lease on {job_id} is no longer held by {worker_id} "
                "(expired and redelivered, or already finished)")
        if snapshot is not None:
            self._publish(job.id, "stream.snapshot", worker=worker_id,
                          **snapshot)
        return job

    def expire(self) -> list[Job]:
        """Requeue expired leases; called periodically by the daemon.

        Each expired lease's holder leaves the live set until it is
        next heard from.  A holder the registry does not know (the
        coordinator restarted since it claimed) is skipped."""
        # Requeueing clears ``job.worker``: read the holders first.
        holders = {job.id: job.worker
                   for job in self.queue.jobs_in_state(RUNNING)}
        expired = self.queue.expire_leases()
        with self._lock:
            for job in expired:
                info = self.workers.get(holders.get(job.id))
                if info is not None:
                    info.lease_expired = True
        for job in expired:
            obs.count("service.fleet_lease_expiries")
            self._publish(job.id, "job.lease_expired",
                          attempts=job.attempts)
        return expired

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def complete(self, worker_id: str, job_id: str, identity: dict,
                 report: dict, trace_batch: dict | None,
                 snapshot: dict | None = None) -> dict:
        """Accept a pushed result: store the report, stitch the trace,
        resolve the job (and any queued duplicates of its key).

        ``snapshot`` is the worker's final streaming snapshot (see
        :mod:`repro.stream`), relayed into the job's home ``/events``
        stream before the terminal event so a tailing client sees the
        full ranked problem list arrive ahead of ``job.done``.
        """
        info = self.touch(worker_id)
        job = self.queue.get(job_id)
        if job is None:
            raise KeyError(f"no such job: {job_id}")
        identity = ReportIdentity(identity)
        key = identity.key()
        if key != job.report_key:
            # The worker's code tree disagrees with the coordinator's:
            # the same (workload, config) produced a different identity.
            error = (f"identity mismatch: worker {worker_id} computed "
                     f"report key {key[:12]}… but the job was submitted "
                     f"under {job.report_key[:12]}… — fleet nodes are "
                     "running skewed code")
            self._fail_for_good(job, worker_id, error, trace_batch)
            obs.count("service.fleet_identity_mismatches")
            raise ValueError(error)
        stale = not (job.state == RUNNING and job.worker == worker_id)
        if not self.store.contains(key):
            self.store.put(identity, report, job_id=job_id)
        self._store_trace(job, worker_id, trace_batch)
        if stale:
            # The lease was lost (count it: stale completions mean
            # leases are too short), but the bytes are banked.  A
            # requeued job resolves now, its final snapshot first,
            # instead of waiting for a pull that may never come.
            obs.count("service.fleet_stale_completions")
            if job.state == SUBMITTED:
                self._resolve_from_store(job, snapshot, worker_id)
            self._resolve_duplicates(key)
            return {"job": job.to_json(), "stale": True}
        self._finish(job, snapshot, worker_id, worker=worker_id)
        with self._lock:
            info.jobs_completed += 1
        obs.count("service.jobs_completed", result="done")
        obs.count("service.fleet_completions", worker=worker_id)
        self._resolve_duplicates(key)
        return {"job": job.to_json(), "stale": False}

    def _resolve_duplicates(self, key: str) -> None:
        """Mark queued submissions of an already-stored key done."""
        for other in self.queue.waiting(key):
            self._resolve_from_store(other)

    def _resolve_from_store(self, job: Job, snapshot: dict | None = None,
                            worker_id: str | None = None) -> None:
        """Mark one queued job done from the store, observably."""
        if self.queue.claim_job(job.id) is not None:  # else a pull won
            self._finish(job, snapshot, worker_id, served_from="store")
            obs.count("service.fleet_dedup_resolved")

    def _finish(self, job: Job, snapshot: dict | None, worker_id: str | None,
                **done) -> None:
        """Relay the final snapshot, publish ``job.done``, mark the job
        done — in that order: an ``/events`` long-poll that observes
        the terminal state must already see the terminal event."""
        if snapshot is not None:
            self._publish(job.id, "stream.snapshot", worker=worker_id,
                          **snapshot)
        self._publish(job.id, "job.done", report_key=job.report_key, **done)
        self.queue.mark_done(job, job.report_key)

    def _store_trace(self, job: Job, worker_id: str,
                     trace_batch: dict | None) -> str | None:
        """Stitch and store a pushed span batch (the first one stored
        wins); returns the batch's trace id."""
        if not trace_batch:
            return None
        if self.store.get_trace(job.id) is None:
            self.store.put_trace(
                job.id, stitch_trace(job, worker_id, trace_batch))
        return trace_batch.get("trace_id")

    def _fail_for_good(self, job: Job, worker_id: str, error: str,
                       trace_batch: dict | None) -> None:
        # Trace and terminal event (which triggers the flight dump)
        # land before the transition makes the failure observable.
        trace_id = self._store_trace(job, worker_id, trace_batch)
        self._publish(job.id, "job.failed", worker=worker_id, error=error,
                      trace_id=trace_id)
        self.queue.mark_failed(job, error)

    def fail(self, worker_id: str, job_id: str, error: str,
             trace_batch: dict | None = None) -> dict:
        """Record a worker-side failure; redeliver or fail the job.

        ``trace_batch`` is the failed attempt's span batch, stored when
        the failure is final."""
        info = self.touch(worker_id)
        job = self.queue.get(job_id)
        if job is None:
            raise KeyError(f"no such job: {job_id}")
        with self._lock:
            info.jobs_failed += 1
        retry = job.attempts < self.retry_limit
        # A requeue that finds the lease gone (expired and claimed
        # again since ``get``) is as stale as one seen gone here.
        if job.state != RUNNING or job.worker != worker_id or (
                retry and not self.queue.requeue(job, error)):
            obs.count("service.fleet_stale_completions")
            return {"job": job.to_json(), "stale": True}
        if retry:
            self._publish(job.id, "job.requeued", worker=worker_id,
                          error=error, attempts=job.attempts)
        else:
            self._fail_for_good(job, worker_id, error, trace_batch)
            obs.count("service.jobs_completed", result="failed")
        return {"job": job.to_json(), "stale": False}

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def refresh_gauges(self) -> None:
        """Fleet-facing gauges: leases, liveness, per-worker counts."""
        obs.gauge("service.leases_active", self.queue.active_leases())
        obs.gauge("service.fleet_workers_live", len(self.live_workers()))
        with self._lock:
            for info in self.workers.values():
                obs.gauge("service.worker_jobs", info.jobs_completed,
                          worker=info.id)


def stitch_trace(job: Job, worker_id: str, batch: dict) -> dict:
    """Root a worker's span batch under one ``service.job`` tree.

    The worker recorded its spans under its own tracer (root:
    ``fleet.worker.job``); here the coordinator opens the canonical
    ``service.job`` request span, adopts the batch beneath it, and
    widens the root to cover the children — one connected tree per
    job, same shape local execution produces, with the worker's spans
    on their own Chrome-trace lane (the batch pid).
    """
    rows = batch.get("spans", ())
    base = max((row.get("span_id", 0) for row in rows), default=0)
    tracer = Tracer(trace_id=batch.get("trace_id"), id_base=base)
    with tracer.span("service.job", job=job.id, workload=job.workload,
                     worker=worker_id):
        pass
    root = tracer.spans[0]
    adopted = tracer.adopt(batch, parent_id=root.span_id, base_depth=1)
    ends = [sp.wall_end for sp in adopted if sp.wall_end is not None]
    starts = [sp.wall_start for sp in adopted]
    if starts:
        root.wall_start = min(root.wall_start, min(starts))
    if ends:
        root.wall_end = max(root.wall_end, max(ends))
    return {
        "job_id": job.id,
        "trace_id": tracer.trace_id,
        "worker": worker_id,
        "spans": [sp.to_json() for sp in tracer.spans],
        "chrome_trace": tracer.to_chrome_trace(),
    }
