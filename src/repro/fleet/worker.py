"""The worker-node loop: register, pull, heartbeat, execute, push.

``diogenes worker --coordinator URL`` runs one :class:`WorkerNode`.
The worker is a *client* of the coordinator — same HTTP/JSON protocol,
same :class:`~repro.service.client.ServiceClient` (so it inherits the
client's backoff-and-retry behaviour for free) — and owns nothing
durable: all queue and store state lives with the coordinator, whose
report store is the service's one cache.  ``diogenes serve --workers
N`` runs the same node in-process, N slots wide, over a
:class:`LocalLink` instead of HTTP.

Per job:

1. ``POST /fleet/pull`` claims the oldest eligible job under a lease.
   With nothing to claim, the coordinator holds the pull up to
   ``poll_interval`` seconds and answers as soon as a job is submitted,
   so an idle worker starts a new job without a polling delay;
2. a daemon thread heartbeats every ``lease/3`` seconds so the lease
   outlives any honest execution;
3. the job runs through this node's own
   :class:`repro.exec.StageExecutor` under a ``fleet.worker.job`` span,
   inside a per-job :func:`~repro.instr.stacks.interning_scope` and a
   per-job observability session (the job's own tracer over the
   process session's metrics, ledger and log);
4. the report plus the finished span batch go home via
   ``POST /fleet/complete``; failures (with their span batch) go via
   ``POST /fleet/fail``.

The worker re-derives the report identity from *its own* code tree
and ships it with the result; the coordinator refuses a mismatch, so
a fleet running skewed code fails loudly instead of archiving bytes
under the wrong key.

Crash model: if this process dies mid-job (SIGKILL, OOM, power), the
heartbeats stop, the lease expires, and the coordinator returns the
job to ``submitted`` for another node — at-least-once execution.  A
SIGTERM is gentler: :meth:`WorkerNode.stop` lets the in-flight job
finish and push home before the loop exits (graceful drain).
"""

from __future__ import annotations

import os
import socket
import threading

import repro.obs as obs
from repro.core.diogenes import report_from_stage_results
from repro.exec import StageExecutor
from repro.exec.fingerprint import config_from_json
from repro.exec.jobs import WorkloadSpec
from repro.fleet.coordinator import StaleLeaseError
from repro.instr.stacks import interning_scope
from repro.obs.tracer import Tracer
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import report_identity
from repro.stream import StreamAnalyzer, subscribed


def default_worker_id() -> str:
    """``<hostname>-<pid>`` — unique per process, readable in traces."""
    return f"{socket.gethostname()}-{os.getpid()}"


class LocalLink:
    """The fleet protocol as direct calls into a coordinator.

    The ``fleet_*`` calls of :class:`ServiceClient` with their HTTP
    error statuses, minus the wire: no JSON and no report codec (the
    ``/fleet/*`` routes are JSON shims over a link).  ``publish`` puts
    a node's live events — ``job.running``, ``stage.*``, every rolling
    ``stream.snapshot`` — straight into the home ``/events`` stream.
    """

    def __init__(self, fleet, publish) -> None:
        self.fleet = fleet
        self.publish = publish

    @staticmethod
    def _call(method, *args, **kwargs):
        try:
            return method(*args, **kwargs)
        except KeyError as exc:
            raise ServiceError(str(exc.args[0]), status=404) from exc
        except (StaleLeaseError, ValueError) as exc:
            raise ServiceError(str(exc), status=409) from exc
        except Exception as exc:  # noqa: BLE001 - a server's 500
            raise ServiceError(f"{type(exc).__name__}: {exc}",
                               status=500) from exc

    def fleet_register(self, worker: str) -> dict:
        return self._call(self.fleet.register, worker)

    def fleet_pull(self, worker: str) -> dict | None:
        """Answered at once (no ``wait``): the daemon's slots sleep on
        its wake event between pulls instead."""
        job = self._call(self.fleet.pull, worker)
        return None if job is None else job.to_json()

    def fleet_heartbeat(self, worker: str, job_id: str,
                        snapshot: dict | None = None) -> dict:
        return self._call(self.fleet.heartbeat, worker, job_id,
                          snapshot=snapshot).to_json()

    def fleet_complete(self, worker: str, job_id: str, identity: dict,
                       report: dict, trace: dict | None = None,
                       snapshot: dict | None = None) -> dict:
        return self._call(self.fleet.complete, worker, job_id, identity,
                          report, trace, snapshot=snapshot)

    def fleet_fail(self, worker: str, job_id: str, error: str,
                   trace: dict | None = None) -> dict:
        return self._call(self.fleet.fail, worker, job_id, error, trace)


class WorkerNode:
    """One fleet worker node attached to a coordinator.

    ``coordinator`` is the coordinator's URL, or a :class:`LocalLink`
    for the daemon's in-process node, whose slots claim through the
    coordinator themselves and call :meth:`process` (:meth:`run`'s held
    pulls are an HTTP feature).  :meth:`process` is safe to call from
    several threads at once (one per slot): its per-job state lives in
    the call.
    """

    def __init__(self, coordinator, *, worker_id: str | None = None,
                 jobs: int = 1, poll_interval: float = 0.2,
                 on_event=None) -> None:
        self.worker_id = worker_id or default_worker_id()
        self.client = (ServiceClient(coordinator)
                       if isinstance(coordinator, str) else coordinator)
        self.executor = StageExecutor(jobs=jobs)
        self.poll_interval = poll_interval
        #: The process session of jobs run where none is active
        #: (``diogenes worker``).
        self._session = obs.Observability()
        #: Lease duration, learned from the coordinator at register time.
        self.lease_seconds: float = 30.0
        #: Jobs :meth:`run` executed and pushed home.
        self.jobs_completed = 0
        self._stop = threading.Event()
        self._on_event = on_event or (lambda name, **fields: None)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request a graceful drain: finish the in-flight job, exit."""
        self._stop.set()

    # ------------------------------------------------------------------
    def register(self) -> dict:
        reply = self.client.fleet_register(self.worker_id)
        self.lease_seconds = float(reply.get("lease_seconds",
                                             self.lease_seconds))
        self._on_event("worker.registered", worker=self.worker_id,
                       lease_seconds=self.lease_seconds)
        return reply

    def run(self, max_jobs: int | None = None) -> int:
        """Pull-execute-push until :meth:`stop` (or ``max_jobs`` done).

        Each pull is held by the coordinator for up to ``poll_interval``
        seconds and answered as soon as a job can be claimed, so an idle
        worker re-pulls at once after an empty answer, and a graceful
        stop takes effect within one ``poll_interval``.

        Returns the number of jobs executed.  Coordinator outages are
        survived by waiting and re-pulling — the client already retries
        transient connection errors; a still-unreachable coordinator
        just means an idle worker, never a dead one.
        """
        self.register()
        executed = 0
        try:
            while not self._stop.is_set():
                if max_jobs is not None and executed >= max_jobs:
                    break
                try:
                    job = self.client.fleet_pull(self.worker_id,
                                                 wait=self.poll_interval)
                except ServiceError as exc:
                    self._on_event("worker.pull_error", error=str(exc))
                    if self._stop.wait(min(2.0, self.poll_interval * 10)):
                        break
                    continue
                if job is None:
                    continue
                # Counted here, on the loop's one thread: process() may
                # run on several slot threads at once.
                self.jobs_completed += self.process(job)
                executed += 1
        finally:
            self.executor.shutdown()
            if isinstance(self.client, ServiceClient):
                self.client.close()  # built from a URL: ours to close
            self._on_event("worker.stopped", worker=self.worker_id,
                           executed=executed)
        return executed

    # ------------------------------------------------------------------
    def process(self, job: dict) -> bool:
        """Execute one pulled job record and push the outcome home.

        Returns ``True`` when the result was completed (even if the
        coordinator acknowledged it as stale), ``False`` on failure.
        """
        job_id = job["id"]
        # An in-process link publishes live events home directly; over
        # HTTP the heartbeat thread relays the latest rolling snapshot.
        live = getattr(self.client, "publish", None)
        rolling: dict = {}

        def on_snapshot(snapshot: dict) -> None:
            if snapshot["final"]:
                return  # rides the completion push
            if live is not None:
                live(job_id, "stream.snapshot", worker=self.worker_id,
                     **snapshot)
            else:
                rolling["snapshot"] = snapshot

        # The job's session, confined to this thread: its own tracer
        # (the spans go home with the result) over the process
        # session's metrics, ledger and log, so inline stages record
        # live as under `diogenes run` and the ledger calibrates once.
        base = obs.active() or self._session
        session = obs.Observability(tracer=Tracer(), metrics=base.metrics,
                                    ledger=base.ledger, log=base.log)
        tracer = session.tracer
        stop_heartbeat = threading.Event()
        beats = threading.Thread(
            target=self._heartbeat_loop,
            args=(job_id, stop_heartbeat, rolling),
            name=f"heartbeat-{job_id}", daemon=True)
        beats.start()
        self._on_event("worker.job_started", job=job_id,
                       workload=job["workload"])
        on_stage = None
        if live is not None:
            live(job_id, "job.running", trace_id=tracer.trace_id,
                 workload=job["workload"])
            on_stage = lambda e: live(job_id, e.pop("event"), **e)  # noqa: E731
        try:
            # Everything interned while the job runs is dropped with
            # the scope; the report leaves it as plain JSON.
            with interning_scope(), obs.enabled(session):
                config = config_from_json(job["config"])
                spec = WorkloadSpec.from_params(job["workload"],
                                                job["params"])
                identity = report_identity(spec, config)
                # With jobs=1 the stages run inline on this thread, so
                # the thread-scoped subscription tails the live
                # builders; with a process pool only the final snapshot
                # (from report assembly) exists.
                analyzer = StreamAnalyzer(
                    misplaced_min_delay=config.misplaced_min_delay,
                    benefit_config=config.benefit, publish=on_snapshot)
                with tracer.span("fleet.worker.job", job=job_id,
                                 workload=job["workload"],
                                 worker=self.worker_id), \
                        subscribed(analyzer):
                    results = self.executor.run_workload(
                        spec, config, on_event=on_stage)
                    report = report_from_stage_results(
                        getattr(spec.create(), "name", spec.name),
                        results, config).to_json()
        except Exception as exc:  # noqa: BLE001 - any failure fails the job
            stop_heartbeat.set()
            beats.join()
            error = f"{type(exc).__name__}: {exc}"
            self._on_event("worker.job_failed", job=job_id, error=error)
            self._push(lambda: self.client.fleet_fail(
                self.worker_id, job_id, error,
                tracer.export_batch(pid=os.getpid())), job_id)
            return False
        stop_heartbeat.set()
        beats.join()
        pushed = self._push(lambda: self.client.fleet_complete(
            self.worker_id, job_id, dict(identity), report,
            tracer.export_batch(pid=os.getpid()),
            snapshot=analyzer.final), job_id)
        if pushed:
            self._on_event("worker.job_completed", job=job_id)
        return pushed

    def _push(self, call, job_id: str) -> bool:
        """Deliver a completion/failure; a push lost to a dead
        coordinator is abandoned (the lease will expire and the job be
        redelivered — correctness never depends on this push landing)."""
        try:
            call()
            return True
        except ServiceError as exc:
            self._on_event("worker.push_failed", job=job_id,
                           error=str(exc))
            obs.count("fleet.worker_push_failures")
            return False

    def _heartbeat_loop(self, job_id: str, stop: threading.Event,
                        rolling: dict) -> None:
        """Extend the lease every ``lease/3`` seconds while executing,
        relaying the job's latest unsent rolling snapshot, if any.

        A failed heartbeat (coordinator briefly down, or the lease
        already lost) never interrupts the execution: the completion
        push is idempotent and the coordinator resolves staleness.
        """
        interval = max(0.05, self.lease_seconds / 3.0)
        sent_version = 0
        while not stop.wait(interval):
            snapshot = rolling.get("snapshot")
            if snapshot is not None and snapshot["version"] <= sent_version:
                snapshot = None  # already relayed this version
            elif snapshot is not None:
                sent_version = snapshot["version"]
            try:
                self.client.fleet_heartbeat(self.worker_id, job_id,
                                            snapshot=snapshot)
            except ServiceError as exc:
                self._on_event("worker.heartbeat_lost", job=job_id,
                               error=str(exc))
                if exc.status == 409:
                    break  # lease gone for good; stop renewing
        if isinstance(self.client, ServiceClient):
            self.client.close()  # this thread's pooled connection
