"""The analysis daemon: an asyncio HTTP/JSON front end over the FFM
pipeline.

``diogenes serve`` turns the one-shot CLI into a persistent service:
clients submit (workload, params, config) tuples, fleet nodes run
them through the existing :class:`repro.exec.StageExecutor`, and every
finished :class:`~repro.core.diogenes.DiogenesReport` lands in the
:class:`~repro.service.store.ReportStore` keyed by (workload
fingerprint, config digest, code fingerprint).  A re-submission of an
unchanged workload is answered from the store without executing a
single stage job — the feed-forward loop, as a service.  The report
store is the service's one cache: nodes keep no stage-result cache.

``--workers N`` runs one of those nodes in-process, N slots wide: it
claims, leases, and completes through the same
:class:`~repro.fleet.FleetCoordinator` calls a remote ``diogenes
worker`` makes over HTTP, so every job takes one execution path.

Everything is standard library: the HTTP layer is a deliberately
small HTTP/1.1 subset over ``asyncio`` streams (JSON in, JSON out,
keep-alive with an idle timeout; a client sending ``Connection:
close`` gets one-shot behaviour), because the reproduction may not
add dependencies.

Routes::

    GET  /healthz             liveness + job counts
    GET  /metrics             Prometheus text (service + pipeline metrics)
    POST /submit              {"workload", "params"?, "config"?, "force"?}
    GET  /jobs                all jobs + per-state counts
    GET  /jobs/<id>           one job
    GET  /reports/<key>       stored report JSON, the bytes stored at put
                              time (no decode on fetch; byte-equal to
                              `diogenes run --json`)
    GET  /trace/<job-id>      the job's distributed trace (request span +
                              executor + worker spans, one connected tree)
    GET  /events?job=<id>     long-poll live job events (&after=<seq>,
                              &timeout=<seconds>); `diogenes tail` sits here
    GET  /history[?workload=] run history, oldest first
    GET  /diff?a=<key>&b=<key>  regression diff of two stored reports
    POST /shutdown            finish in-flight work and exit

Fleet routes (coordinator side of :mod:`repro.fleet`)::

    POST /fleet/register      {"worker"} -> lease terms + known workers
    POST /fleet/pull          {"worker", "wait"?} -> oldest eligible job,
                              leased; with none, held up to "wait"
                              seconds until one can be claimed
    POST /fleet/heartbeat     {"worker", "job"} -> lease extended (409 if lost)
    POST /fleet/complete      {"worker", "job", "identity", "report", "trace"}
    POST /fleet/fail          {"worker", "job", "error", "trace"?}
    GET  /fleet/workers       registered workers + liveness

Backpressure: with ``--max-queue N``, ``/submit`` answers **429** with
a ``Retry-After`` header once ``N`` jobs are waiting; the client backs
off and retries.  The queue and the store each persist to one
sqlite database under the data directory; SIGTERM drains gracefully —
in-flight jobs finish, queue state is already persisted per
transition, and the process exits 0.

Each executed job runs in its own thread-scoped observability session:
a per-job tracer (so concurrent slots never share span stacks) rooted
at the node's ``fleet.worker.job`` span, over the daemon's metrics,
ledger and log; the coordinator stitches the finished batch
under a ``service.job`` request span carrying the job id and persists
the tree beside the report store, keyed by job id.  On any final
``job.failed`` the event ring is dumped to
``<data-dir>/flight/<job-id>.jsonl`` (the flight recorder).

Crash safety: the job queue is persistent (`repro.service.queue`);
a job whose node died is requeued and re-executed — when its lease
expires, or at restart if the node was this daemon's own — which is
safe because execution is deterministic and both stores are
content-addressed and transactional.
"""

from __future__ import annotations

import asyncio
import collections
import json
import math
import os
import signal
import threading
import time
import urllib.parse

import repro.obs as obs
from repro.apps.base import registry
from repro.core.diffing import SchemaMismatchError, diff_reports, diff_to_json
from repro.core.diogenes import DiogenesConfig
from repro.exec.columnar import decode_tree
from repro.exec.fingerprint import (
    config_from_json,
    config_to_json,
    digest_json,
)
from repro.exec.jobs import WorkloadSpec
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.worker import LocalLink, WorkerNode, default_worker_id
from repro.service.client import ServiceError
from repro.service.queue import DONE, FAILED, RUNNING, STATES, Job, JobQueue
from repro.service.store import ReportStore, report_identity

#: Events retained per job for the ``/events`` stream.
_EVENTS_PER_JOB = 1000

#: Finished jobs whose ``/events`` streams are kept whole; an older
#: finished job keeps only its terminal event.
_FINISHED_STREAMS = 64

#: Idle keep-alive connections are closed after this many seconds so
#: abandoned clients can't pin handler tasks forever.
_KEEPALIVE_IDLE_SECONDS = 30.0

#: Longest server-side wait one long-poll (``/events``, a held
#: ``/fleet/pull``) may ask for.
_MAX_POLL_SECONDS = 30.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            429: "Too Many Requests", 500: "Internal Server Error"}


class _HttpError(Exception):
    """Routed straight to a JSON error response."""

    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def _node_id(data_dir: str) -> str:
    """The in-process node's id, made once per data directory (the
    first daemon's ``<hostname>-<pid>``): a restarted daemon is the
    same fleet node."""
    path = os.path.join(data_dir, "node-id")
    if not os.path.exists(path):
        with open(path + ".tmp", "w") as fp:
            fp.write(default_worker_id() + "\n")
        os.replace(path + ".tmp", path)  # a crash leaves no empty id
    with open(path) as fp:
        return fp.read().strip()


class ServiceDaemon:
    """One long-lived analysis service over one data directory.

    ``data_dir`` holds everything the daemon persists: the job queue
    (``queue/queue.db``) and the report store (``store/store.db``).
    A ``queue/`` of the retired file backend (``job-*.json``) is
    refused with a ``ValueError``, not ignored.
    ``workers`` is the slot count of the in-process fleet node (0:
    none, a pure coordinator); ``jobs`` is the process fan-out each
    analysis may use (1 = inline in the slot thread).  The node's id
    lives in ``<data-dir>/node-id``; jobs still leased to it from a
    previous process are requeued at once, whatever ``workers`` is.
    """

    def __init__(self, data_dir: str | os.PathLike, *, workers: int = 2,
                 jobs: int = 1, max_queue: int | None = None,
                 lease_seconds: float = 30.0) -> None:
        if workers < 0:
            # 0 is a pure coordinator: nothing executes locally, all
            # work is pulled by `diogenes worker` processes.
            raise ValueError(f"workers must be >= 0, got {workers}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max-queue must be >= 1, got {max_queue}")
        self.data_dir = os.fspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.queue = JobQueue(os.path.join(self.data_dir, "queue"))
        self.store = ReportStore(os.path.join(self.data_dir, "store"))
        node_id = _node_id(self.data_dir)
        for job in self.queue.jobs_in_state(RUNNING):
            if job.worker == node_id:  # its previous process is gone
                self.queue.requeue(job)
        self.workers = workers
        self.max_queue = max_queue
        self.fleet = FleetCoordinator(self.queue, self.store,
                                      lease_seconds=lease_seconds,
                                      publish=self._publish)
        # One shared default config: submits without an explicit
        # config (the common case) skip rebuilding the nested
        # dataclasses per request — and skip re-encoding/digesting
        # them, which profiling showed dominated the submit path.
        self._default_config = DiogenesConfig()
        self._default_config_json = config_to_json(self._default_config)
        self._default_config_digest = digest_json(self._default_config_json)
        #: Direct calls into the coordinator: the in-process node's
        #: transport, and what the ``/fleet/*`` routes decode onto.
        self.link = LocalLink(self.fleet, self._publish)
        #: The node the ``workers`` slots share (one id, one executor).
        self.node = (WorkerNode(self.link, worker_id=node_id, jobs=jobs)
                     if workers else None)
        self.session: obs.Observability | None = None
        #: Set once the server socket is bound (the ephemeral-port case).
        self.bound_port: int | None = None
        self.started = threading.Event()
        self._stop: asyncio.Event | None = None
        #: Set by :meth:`_notify` to wake idle slots.
        self._wake = threading.Event()
        #: Set by :meth:`_notify` (then replaced) to wake held pulls.
        self._pulls_woken = asyncio.Event()
        #: Open connections (handler task -> writer), and the writers
        #: of those waiting for their next request.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._idle: set[asyncio.StreamWriter] = set()
        #: Per-job live event streams for ``/events`` (worker threads
        #: append under the lock; the asyncio side reads snapshots).
        #: A job's ``seq`` climbs from its last retained event, so the
        #: first retained one tells how many were trimmed.
        self._events: dict[str, list[dict]] = {}
        self._events_lock = threading.Lock()
        #: (job id, terminal event) of the finished jobs whose streams
        #: are whole, oldest first.
        self._finished: collections.deque = collections.deque()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self, host: str = "127.0.0.1", port: int = 8123) -> None:
        """Serve until ``POST /shutdown`` (blocking entry point)."""
        asyncio.run(self._serve(host, port))

    def _ensure_obs(self) -> None:
        """Keep the daemon's metrics session installed.

        The observability collector is process-global; anything else
        in the process calling ``obs.enable``/``obs.disable`` (another
        library, a test fixture) would otherwise silently disconnect
        the ``/metrics`` endpoint.  The daemon owns its process, so it
        re-installs its session before recording.
        """
        if self.session is not None and obs.active() is not self.session:
            obs.enable(self.session)

    async def _serve(self, host: str, port: int) -> None:
        self.session = obs.enable()
        self._stop = asyncio.Event()
        self._install_signal_handlers()
        server = await asyncio.start_server(self._handle, host, port)
        self.bound_port = server.sockets[0].getsockname()[1]
        if self.node is not None:
            self.node.register()
        slots = [threading.Thread(target=self._slot, name=f"slot-{i}")
                 for i in range(self.workers)]
        for slot in slots:
            slot.start()
        sweep_task = asyncio.create_task(self._lease_sweep_loop())
        self._refresh_gauges()
        self.started.set()
        try:
            await self._stop.wait()
        finally:
            self._initiate_stop()
            server.close()
            await self._close_connections()
            await server.wait_closed()
            for slot in slots:
                await asyncio.to_thread(slot.join)
            sweep_task.cancel()
            await asyncio.gather(sweep_task, return_exceptions=True)
            if self.node is not None:
                self.node.executor.shutdown()
            self.queue.close()
            self.store.close()
            obs.disable()

    def _install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT drain gracefully: stop claiming, finish the
        in-flight job (queue state persists per transition), exit 0.

        Signal handlers only attach on a main-thread event loop; tests
        running the daemon inside a helper thread simply do without.
        """
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._initiate_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                return

    def _initiate_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()
        self._notify()

    def _notify(self) -> None:
        """Wake whatever waits for work: the local slots and every held
        ``/fleet/pull``, which rescan the queue (event-loop thread)."""
        self._wake.set()
        woken, self._pulls_woken = self._pulls_woken, asyncio.Event()
        woken.set()

    async def _close_connections(self) -> None:
        """Answer, then close, every open connection: held long-polls
        (woken by the stop) and requests in flight answer, and idle
        keep-alive connections close.  So the loop's teardown cancels
        no handler mid-request, and ``Server.wait_closed`` (which from
        Python 3.12.1 waits for every connection) returns."""
        deadline = time.monotonic() + _KEEPALIVE_IDLE_SECONDS
        while self._connections and time.monotonic() < deadline:
            for writer in list(self._idle):
                writer.close()
            await asyncio.wait(list(self._connections), timeout=0.05)
        for writer in self._connections.values():
            writer.transport.abort()  # a peer stalled mid-request

    async def _lease_sweep_loop(self) -> None:
        """Return expired-lease jobs to ``submitted`` for redelivery."""
        interval = max(0.05, self.fleet.lease_seconds / 3.0)
        while not self._stop.is_set():
            try:
                await asyncio.wait_for(self._stop.wait(), timeout=interval)
                return
            except (TimeoutError, asyncio.TimeoutError):
                pass
            if self.fleet.expire():
                self._notify()  # slots and held pulls may pick them up

    def _slot(self) -> None:
        """One slot of the local node, on its own thread: claim and
        execute jobs until shutdown.

        The event loop never blocks on a claim's queue write, and every
        job of the slot allocates on this one thread.  (Spread over a
        shared pool's threads, jobs spread over as many malloc arenas,
        and peak RSS grows with their count.)
        """
        while not self._stop.is_set():
            # Cleared before the claim, so a submit landing during it is
            # never slept through.
            self._wake.clear()
            self._ensure_obs()
            job = self.fleet.pull(self.node.worker_id)
            if job is None:
                self._wake.wait(0.2)
            else:
                self._execute(job)

    def _execute(self, job: Job) -> None:
        """One slot's per-job step: the node executes and pushes home."""
        self.node.process(job.to_json())

    def _publish(self, job_id: str, name: str, **fields) -> None:
        """Append one event to a job's live stream (thread-safe); a
        ``job.failed`` (always final) also dumps it to the flight
        recorder, whichever node ran the job."""
        with self._events_lock:
            stream = self._events.setdefault(job_id, [])
            event = {"seq": stream[-1]["seq"] + 1 if stream else 1,
                     "ts": time.time(), "event": name, "job": job_id,
                     **fields}
            stream.append(event)
            # Bounded: a runaway job must not grow memory without limit.
            if len(stream) > _EVENTS_PER_JOB:
                dropped = len(stream) - _EVENTS_PER_JOB
                del stream[:dropped]
                obs.count("service.events_dropped_total", dropped)
        if name == "job.failed":
            self._dump_flight(job_id, fields.get("trace_id"))
        if name in ("job.done", "job.failed"):
            # Bounded over any number of jobs: an older finished stream
            # shrinks to its terminal event, all a late ``/events``
            # reader or ``diogenes tail`` needs.
            with self._events_lock:
                self._finished.append((job_id, event))
                if len(self._finished) > _FINISHED_STREAMS:
                    oldest, terminal = self._finished.popleft()
                    self._events[oldest] = [terminal]

    def _job_events(self, job_id: str, after: int) -> list[dict]:
        with self._events_lock:
            stream = self._events.get(job_id, ())
            events = [e for e in stream if e["seq"] > after]
            first = stream[0]["seq"] if stream else 1
            if first > 1 and after < first - 1:
                # Events past this cursor were trimmed.  A synthetic
                # marker surfaces the gap — its seq is the last missed
                # one, so the client's cursor still advances correctly.
                events.insert(0, {
                    "seq": first - 1, "ts": time.time(),
                    "event": "events.dropped", "job": job_id,
                    "count": first - 1 - after,
                })
            return events

    def _dump_flight(self, job_id: str, trace_id: str | None) -> None:
        """Flight recorder: preserve a failed job's last events."""
        flight_dir = os.path.join(self.data_dir, "flight")
        os.makedirs(flight_dir, exist_ok=True)
        path = os.path.join(flight_dir, f"{job_id}.jsonl")
        with open(path, "w") as fp:
            for event in self._job_events(job_id, 0):
                fp.write(json.dumps({**event, "trace_id": trace_id},
                                    sort_keys=True) + "\n")

    def _refresh_gauges(self) -> None:
        counts = self.queue.counts()
        obs.gauge("service.queue_depth", counts["submitted"])
        for state in STATES:
            obs.gauge("service.jobs", counts[state], state=state)
        obs.gauge("service.store_reports", len(self.store))
        # Intern-table sizes: scraping /metrics between jobs shows the
        # per-job interning scopes gone and the capped caches in bound.
        obs.record_intern_tables()
        self.fleet.refresh_gauges()

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """One connection: serve requests until the peer is done.

        HTTP/1.1 keep-alive — connection setup/teardown dominated
        sustained submit throughput, so clients that omit
        ``Connection: close`` (the :class:`ServiceClient` pool, fleet
        workers polling for jobs) reuse the connection.  urllib-based
        callers send ``Connection: close`` and get the old one-shot
        behaviour.
        """
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while await self._handle_request(reader, writer):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            finally:
                del self._connections[task]

    async def _handle_request(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> bool:
        """Serve one request; True to keep the connection open."""
        t0 = time.perf_counter()
        route = "unknown"
        self._ensure_obs()
        try:
            self._idle.add(writer)
            try:
                request = await asyncio.wait_for(
                    reader.readline(), timeout=_KEEPALIVE_IDLE_SECONDS)
            except (TimeoutError, asyncio.TimeoutError):
                return False  # idle keep-alive connection: reclaim it
            finally:
                self._idle.discard(writer)
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                return False
            method, target = parts[0], parts[1]
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = await reader.readexactly(
                int(headers.get("content-length", 0) or 0))
            extra_headers: dict[str, str] = {}
            try:
                route, status, payload = await self._route(method, target,
                                                           body, reader)
            except _HttpError as exc:
                status, payload = exc.status, {"error": str(exc)}
                extra_headers = exc.headers
            except ServiceError as exc:
                status, payload = exc.status, {"error": str(exc)}
            except SchemaMismatchError as exc:
                status, payload = 409, {"error": str(exc)}
            except Exception as exc:  # noqa: BLE001 - never kill the server
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"}
            shutdown = route == "shutdown" and status == 200
            close = (shutdown
                     or headers.get("connection", "").lower() == "close"
                     or self._stop.is_set())
            if route == "metrics" and status == 200:
                raw = payload["text"].encode()
                await self._write(writer, status, raw,
                                  "text/plain; version=0.0.4", close=close)
            elif route == "dashboard" and status == 200:
                await self._write(writer, status, payload["html"].encode(),
                                  "text/html; charset=utf-8", close=close)
            elif route == "report" and status == 200:
                await self._write(writer, status, payload["raw"],
                                  "application/json", close=close)
            else:
                # Compact encoding keeps json on its C fast path —
                # indented output forces the pure-Python encoder, which
                # dominated the submit hot path under load.  (Stored
                # report bytes, served above, stay indented.)
                await self._write(
                    writer, status,
                    json.dumps(payload).encode(),
                    "application/json", extra_headers, close=close)
            obs.count("service.requests", route=route, status=str(status))
            obs.observe("service.request_seconds",
                        time.perf_counter() - t0, route=route)
            if shutdown:
                self._initiate_stop()
            return not close
        except (asyncio.IncompleteReadError, ConnectionError):
            return False  # client went away mid-request; nothing to answer

    async def _write(self, writer: asyncio.StreamWriter, status: int,
                     body, content_type: str,
                     extra_headers: dict[str, str] | None = None, *,
                     close: bool = True) -> None:
        extras = "".join(f"{name}: {value}\r\n"
                         for name, value in (extra_headers or {}).items())
        connection = "close" if close else "keep-alive"
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extras}"
                f"Connection: {connection}\r\n\r\n")
        # Two writes, no concatenation: a stored report body goes to
        # the transport without being copied into a joined bytes object.
        writer.write(head.encode())
        writer.write(body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, target: str, body: bytes,
                     reader: asyncio.StreamReader) -> tuple[str, int, dict]:
        url = urllib.parse.urlsplit(target)
        query = urllib.parse.parse_qs(url.query)
        segments = [s for s in url.path.split("/") if s]

        if url.path == "/events" and method == "GET":
            return "events", 200, await self._handle_events(query)

        if url.path == "/healthz" and method == "GET":
            self._refresh_gauges()
            return "healthz", 200, {"status": "ok",
                                    "jobs": self.queue.counts(),
                                    "store_reports": len(self.store)}
        if url.path == "/metrics" and method == "GET":
            self._refresh_gauges()
            return "metrics", 200, {
                "text": self.session.metrics.to_prometheus()}
        if url.path == "/dashboard" and method == "GET":
            from repro.service.dashboard import DASHBOARD_HTML

            return "dashboard", 200, {"html": DASHBOARD_HTML}
        if url.path == "/submit" and method == "POST":
            return "submit", 200, self._handle_submit(body)
        if url.path == "/jobs" and method == "GET":
            return "jobs", 200, {
                "jobs": [job.to_json() for job in self.queue.jobs()],
                "counts": self.queue.counts()}
        if segments[:1] == ["jobs"] and len(segments) == 2 and method == "GET":
            job = self.queue.get(segments[1])
            if job is None:
                raise _HttpError(404, f"no such job: {segments[1]}")
            return "job", 200, job.to_json()
        if segments[:1] == ["reports"] and len(segments) == 2 \
                and method == "GET":
            # The bytes written at put time go to the socket with no
            # JSON decode or re-encode on the fetch path.
            raw = self.store.get_bytes(segments[1])
            if raw is None:
                raise _HttpError(404, f"no stored report under key "
                                      f"{segments[1]}")
            return "report", 200, {"raw": raw}
        if segments[:1] == ["trace"] and len(segments) == 2 \
                and method == "GET":
            trace = self.store.get_trace(segments[1])
            if trace is None:
                raise _HttpError(404, f"no trace stored for job "
                                      f"{segments[1]} (traces exist only "
                                      "for executed jobs)")
            return "trace", 200, trace
        if url.path == "/history" and method == "GET":
            workload = query.get("workload", [None])[0]
            return "history", 200, {
                "history": self.store.history(workload)}
        if url.path == "/diff" and method == "GET":
            return "diff", 200, self._handle_diff(query)
        if segments[:1] == ["fleet"]:
            return await self._route_fleet(method, url.path, segments, body,
                                           reader)
        if url.path == "/shutdown" and method == "POST":
            return "shutdown", 200, {"status": "stopping"}
        raise _HttpError(404, f"no route for {method} {url.path}")

    async def _route_fleet(self, method: str, path: str,
                           segments: list[str], body: bytes,
                           reader: asyncio.StreamReader
                           ) -> tuple[str, int, dict]:
        """Coordinator side of the worker protocol (see repro.fleet)."""
        if segments == ["fleet", "workers"] and method == "GET":
            return "fleet.workers", 200, {
                "workers": self.fleet.workers_json(),
                "live": sorted(self.fleet.live_workers())}
        if method != "POST" or len(segments) != 2:
            raise _HttpError(404, f"no route for {method} {path}")
        try:
            request = json.loads(body or b"{}")
        except ValueError as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}")
        if not isinstance(request, dict):
            raise _HttpError(400, "fleet request body must be an object")

        def field(name: str) -> str:
            value = request.get(name)
            if not isinstance(value, str) or not value:
                raise _HttpError(400, f'fleet {segments[1]} needs a '
                                      f'"{name}" string field')
            return value

        def optional(name: str) -> dict | None:
            value = request.get(name)
            return value if isinstance(value, dict) else None

        action, link = segments[1], self.link
        if action == "register":
            return "fleet.register", 200, link.fleet_register(field("worker"))
        if action == "pull":
            worker, wait = field("worker"), request.get("wait", 0)
            if isinstance(wait, bool) or not isinstance(wait, (int, float)) \
                    or not math.isfinite(wait) or wait < 0:
                raise _HttpError(400, 'fleet pull "wait" must be a finite '
                                      'number of seconds >= 0')
            return "fleet.pull", 200, {
                "job": await self._held_pull(worker, wait, reader)}
        if action == "heartbeat":
            return "fleet.heartbeat", 200, {"job": link.fleet_heartbeat(
                field("worker"), field("job"), snapshot=optional("snapshot"))}
        if action == "complete":
            worker, job_id = field("worker"), field("job")
            identity, report = optional("identity"), optional("report")
            if identity is None or report is None:
                raise _HttpError(400, 'fleet complete needs "identity" and '
                                      '"report" object fields')
            # Decode, store put and trace stitch do real work; keep the
            # event loop responsive while they run.
            reply = await asyncio.to_thread(lambda: link.fleet_complete(
                worker, job_id, identity, decode_tree(report),
                optional("trace"), snapshot=optional("snapshot")))
            self._notify()
            return "fleet.complete", 200, reply
        if action == "fail":
            reply = await asyncio.to_thread(
                link.fleet_fail, field("worker"), field("job"),
                request.get("error") or "unknown", optional("trace"))
            self._notify()
            return "fleet.fail", 200, reply
        raise _HttpError(404, f"no fleet action {action!r}")

    async def _held_pull(self, worker: str, wait: float,
                         reader: asyncio.StreamReader) -> dict | None:
        """Claim a job for ``worker``; with none to claim, hold the pull
        up to ``wait`` seconds and rescan whenever :meth:`_notify` wakes
        it.  ``None`` when the wait runs out or the daemon stops.

        The wait is capped at ``_MAX_POLL_SECONDS`` and at one lease,
        half the silence after which a worker is no longer live, so a
        held worker stays live.  A peer that closed its end during the
        hold is never leased a job.
        """
        deadline = time.monotonic() + min(wait, _MAX_POLL_SECONDS,
                                          self.fleet.lease_seconds)
        while not self._stop.is_set():
            woken = self._pulls_woken  # taken before the scan: no lost wake
            job = self.link.fleet_pull(worker)
            remaining = deadline - time.monotonic()
            if job is not None or remaining <= 0:
                return job
            try:
                await asyncio.wait_for(woken.wait(), remaining)
            except (TimeoutError, asyncio.TimeoutError):
                return None
            if reader.at_eof() or reader.exception() is not None:
                return None  # the peer hung up: lease it nothing
        return None

    def _handle_submit(self, body: bytes) -> dict:
        if self.max_queue is not None \
                and self.queue.depth() >= self.max_queue:
            # Backpressure: the queue is saturated.  Shed the request
            # *before* parsing or enqueueing anything; the Retry-After
            # hint scales with how far over the line we are, and the
            # client's retry loop honours it.
            depth = self.queue.depth()
            retry_after = max(1, min(30, depth // max(1, self.max_queue)))
            obs.count("service.backpressure_rejections")
            raise _HttpError(
                429, f"queue saturated: {depth} submitted jobs "
                     f"(--max-queue {self.max_queue}); retry later",
                headers={"Retry-After": str(retry_after)})
        try:
            request = json.loads(body or b"{}")
        except ValueError as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}")
        if not isinstance(request, dict) or "workload" not in request:
            raise _HttpError(400, 'submit body must be an object with a '
                                  '"workload" field')
        name = request["workload"]
        params = request.get("params") or {}
        if name not in registry.names():
            raise _HttpError(400, f"unknown workload {name!r}; "
                                  f"known: {registry.names()}")
        try:
            registry.create(name, **params)
        except (TypeError, ValueError) as exc:
            # A parameter the workload does not take (TypeError) or
            # rejects, such as an unknown replay trace (ValueError).
            raise _HttpError(400, f"bad params for {name!r}: {exc}")
        config_json = request.get("config")
        if config_json is None:
            # Default-config submits (the common case) reuse one
            # pre-encoded config and its digest — re-encoding the
            # nested config dataclasses dominated submit throughput.
            config = self._default_config
            config_encoded = self._default_config_json
            config_digest = self._default_config_digest
        else:
            try:
                config = config_from_json(config_json)
            except (TypeError, KeyError, ValueError) as exc:
                raise _HttpError(400, f"bad config: {exc}")
            config_encoded = config_to_json(config)
            config_digest = None
        spec = WorkloadSpec.from_params(name, params)
        identity = report_identity(spec, config,
                                   config_digest=config_digest)
        key = identity.key()
        obs.count("service.jobs_submitted", workload=name)
        cached = self.store.contains(key) and not request.get("force")
        if cached:
            # Served from the report store: the job is born done and no
            # stage executes — observable, never silent.
            obs.count("service.store_hits")
            job = self.queue.submit(name, params, config_encoded,
                                    key, state=DONE)
            self._publish(job.id, "job.done", report_key=key,
                          served_from="store")
        else:
            obs.count("service.store_misses")
            job = self.queue.submit(name, params, config_encoded, key,
                                    force=bool(request.get("force")))
            self._publish(job.id, "job.submitted", workload=name)
            self._notify()
        # No gauge refresh here: /metrics refreshes at scrape time, and
        # per-submit refreshes measurably cap sustained throughput.
        return {"job": job.to_json(), "cached": cached}

    async def _handle_events(self, query: dict[str, list[str]]) -> dict:
        """Long-poll one job's live event stream.

        Returns immediately when events newer than ``after`` exist or
        the job is already terminal; otherwise waits — up to
        ``timeout`` seconds (capped server-side), or until the daemon
        stops — for the next event.
        The worker threads publish; this coroutine only naps and
        snapshots, so a slow tail never blocks the executor.
        """
        job_id = query.get("job", [None])[0]
        if job_id is None:
            raise _HttpError(400, "events needs ?job=<job-id>"
                                  "[&after=<seq>][&timeout=<seconds>]")
        job = self.queue.get(job_id)
        if job is None:
            raise _HttpError(404, f"no such job: {job_id}")
        try:
            after = int(query.get("after", ["0"])[0])
            timeout = float(query.get("timeout", ["10"])[0])
        except ValueError as exc:
            raise _HttpError(400, f"bad events query: {exc}")
        if not math.isfinite(timeout):
            raise _HttpError(400, "bad events query: timeout must be a "
                                  f"finite number of seconds, not {timeout}")
        deadline = time.perf_counter() + min(timeout, _MAX_POLL_SECONDS)
        while True:
            # State before events: terminal events are published before
            # the queue transition, so a terminal state read *first*
            # guarantees the final `job.done`/`job.failed` event is
            # already in the snapshot that follows.
            job = self.queue.get(job_id)
            terminal = job.state in (DONE, FAILED)
            events = self._job_events(job_id, after)
            if events or terminal or self._stop.is_set() \
                    or time.perf_counter() >= deadline:
                last_seq = events[-1]["seq"] if events else after
                return {"job": job_id, "state": job.state,
                        "events": events, "last_seq": last_seq,
                        "done": terminal}
            await asyncio.sleep(0.05)

    def _handle_diff(self, query: dict[str, list[str]]) -> dict:
        keys = [query.get(side, [None])[0] for side in ("a", "b")]
        if None in keys:
            raise _HttpError(400, "diff needs ?a=<report-key>&b=<report-key>")
        reports = []
        for key in keys:
            report = self.store.get(key)
            if report is None:
                raise _HttpError(404, f"no stored report under key {key}")
            reports.append(report)
        # SchemaMismatchError propagates to a 409 response.
        return diff_to_json(diff_reports(*reports))
