"""Stdlib HTTP client for the analysis daemon.

The CLI's ``submit`` / ``status`` / ``fetch`` / ``diff`` subcommands
speak the daemon's JSON API through this class — stdlib
:mod:`http.client` over per-thread keep-alive connections, no
dependencies, same wire format the curl examples in
``docs/service.md`` use.  Service-side errors surface as
:class:`ServiceError` carrying the HTTP status and the server's
``error`` message verbatim, so a schema refusal from the differ reads
the same through the CLI as through curl.

Retries: connection errors and **429 Too Many Requests** are retried
with capped exponential backoff plus full jitter (decorrelated waits,
so a thundering herd of clients spreads out).  A 429 carrying a
``Retry-After`` header waits at least that long — the daemon's
backpressure signal is an instruction, not a suggestion.  Every other
HTTP error is surfaced immediately: a 400 or 404 will not get better
by asking again.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

from repro.exec.columnar import encode_tree
from repro.service.queue import DONE, FAILED

#: Transient-failure retry schedule (attempt n sleeps up to
#: ``min(_BACKOFF_CAP, _BACKOFF_BASE * 2**n)`` seconds, jittered).
_BACKOFF_BASE = 0.1
_BACKOFF_CAP = 5.0


class ServiceError(RuntimeError):
    """An error response from the daemon (or no daemon at all).

    ``status`` is the HTTP status (``None`` for connection failures);
    ``retry_after`` carries a 429's ``Retry-After`` seconds, if any.
    """

    def __init__(self, message: str, status: int | None = None,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ServiceClient:
    """One daemon endpoint, e.g. ``ServiceClient("http://127.0.0.1:8123")``.

    ``retries`` bounds how many times a *transient* failure (connection
    refused/reset, HTTP 429) is retried before the error surfaces;
    ``0`` disables retrying entirely.
    """

    def __init__(self, base_url: str = "http://127.0.0.1:8123", *,
                 timeout: float = 60.0, retries: int = 4) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        parsed = urllib.parse.urlsplit(self.base_url)
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        # One persistent keep-alive connection per thread: the daemon
        # speaks HTTP/1.1 keep-alive, and reconnecting per request is
        # what bounded sustained submit throughput.  Thread-local
        # because http.client connections are not thread-safe (the
        # worker's heartbeat thread shares this client object).
        self._pool = threading.local()

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._pool, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self._host, self._port,
                                              timeout=self.timeout)
            self._pool.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._pool, "conn", None)
        if conn is not None:
            self._pool.conn = None
            try:
                conn.close()
            except OSError:  # pragma: no cover - close never matters
                pass

    def close(self) -> None:
        """Close this thread's pooled connection (others time out idle)."""
        self._drop_connection()

    def _request_once(self, method: str, path: str,
                      payload: dict | None = None, *,
                      _fresh: bool = False):
        data = (json.dumps(payload).encode()
                if payload is not None else None)
        conn = self._connection()
        try:
            conn.request(method, path, body=data,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = response.read()
        except (http.client.RemoteDisconnected,
                http.client.CannotSendRequest, BrokenPipeError) as exc:
            # A pooled connection the server has since closed (idle
            # timeout, restart).  The request never got an answer, so
            # retrying once on a fresh connection is safe and silent.
            self._drop_connection()
            if not _fresh:
                return self._request_once(method, path, payload,
                                          _fresh=True)
            raise ServiceError(
                f"cannot reach analysis service at {self.base_url}: "
                f"{exc} (is `diogenes serve` running?)") from exc
        except (http.client.HTTPException, OSError) as exc:
            self._drop_connection()
            raise ServiceError(
                f"cannot reach analysis service at {self.base_url}: "
                f"{exc} (is `diogenes serve` running?)") from exc
        if response.will_close:
            self._drop_connection()
        content_type = response.getheader("Content-Type", "")
        if response.status >= 400:
            detail = body.decode(errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except ValueError:
                pass
            retry_after = None
            header = response.getheader("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    pass
            raise ServiceError(f"{method} {path} -> HTTP "
                               f"{response.status}: {detail}",
                               status=response.status,
                               retry_after=retry_after)
        if content_type.startswith("application/json"):
            return json.loads(body)
        return body.decode()

    def _request(self, method: str, path: str, payload: dict | None = None):
        """One API call, with backoff-and-retry on transient failures."""
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except ServiceError as exc:
                transient = exc.status is None or exc.status == 429
                if not transient or attempt >= self.retries:
                    raise
                delay = min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** attempt))
                delay *= random.random()  # full jitter: spread the herd
                if exc.retry_after is not None:
                    delay = max(delay, exc.retry_after)
                time.sleep(delay)
                attempt += 1

    # ------------------------------------------------------------------
    # API surface, one method per route
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """Prometheus text exposition, as served at ``/metrics``."""
        return self._request("GET", "/metrics")

    def submit(self, workload: str, params: dict | None = None,
               config: dict | None = None, *, force: bool = False) -> dict:
        body: dict = {"workload": workload, "params": params or {}}
        if config is not None:
            body["config"] = config
        if force:
            body["force"] = True
        return self._request("POST", "/submit", body)

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> dict:
        return self._request("GET", "/jobs")

    def report(self, key: str) -> dict:
        return self._request("GET", f"/reports/{key}")

    def trace(self, job_id: str) -> dict:
        """The job's distributed trace (spans + Chrome-trace payload)."""
        return self._request("GET", f"/trace/{job_id}")

    def events(self, job_id: str, *, after: int = 0,
               timeout: float = 10.0) -> dict:
        """Long-poll the job's live event stream (``diogenes tail``).

        The HTTP timeout stretches past the server-side poll window so
        an idle long-poll returns empty-handed instead of erroring.
        """
        query = urllib.parse.urlencode({"job": job_id, "after": after,
                                        "timeout": timeout})
        request = urllib.request.Request(
            self.base_url + f"/events?{query}", method="GET")
        try:
            with urllib.request.urlopen(
                    request, timeout=max(self.timeout,
                                         timeout + 10.0)) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode(errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except ValueError:
                pass
            raise ServiceError(f"GET /events -> HTTP {exc.code}: {detail}",
                               status=exc.code) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach analysis service at {self.base_url}: "
                f"{exc.reason} (is `diogenes serve` running?)") from exc

    def history(self, workload: str | None = None) -> list[dict]:
        path = "/history"
        if workload is not None:
            path += "?" + urllib.parse.urlencode({"workload": workload})
        return self._request("GET", path)["history"]

    def diff(self, key_a: str, key_b: str) -> dict:
        query = urllib.parse.urlencode({"a": key_a, "b": key_b})
        return self._request("GET", f"/diff?{query}")

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")

    # ------------------------------------------------------------------
    # Fleet protocol (used by `diogenes worker`; see repro.fleet)
    # ------------------------------------------------------------------
    def fleet_register(self, worker: str) -> dict:
        return self._request("POST", "/fleet/register", {"worker": worker})

    def fleet_pull(self, worker: str, wait: float = 0.0) -> dict | None:
        """Claim the oldest eligible job; ``None`` when nothing waits.

        With ``wait`` > 0 the coordinator holds an empty pull up to that
        many seconds (capped server-side) and answers as soon as a job
        can be claimed.
        """
        return self._request("POST", "/fleet/pull",
                             {"worker": worker, "wait": wait})["job"]

    def fleet_heartbeat(self, worker: str, job_id: str,
                        snapshot: dict | None = None) -> dict:
        """Extend the lease on a running job (409 when the lease is lost).

        ``snapshot`` optionally piggybacks the worker's latest rolling
        streaming snapshot; the coordinator republishes it into the
        job's ``/events`` stream (see ``docs/streaming.md``).
        """
        body = {"worker": worker, "job": job_id}
        if snapshot is not None:
            body["snapshot"] = snapshot
        return self._request("POST", "/fleet/heartbeat", body)

    def fleet_complete(self, worker: str, job_id: str, identity: dict,
                       report: dict, trace: dict | None = None,
                       snapshot: dict | None = None) -> dict:
        """Push a finished job home: identity + report (columnar-encoded
        on the wire) + spans.

        ``snapshot`` optionally carries the final streaming snapshot,
        relayed to the job's ``/events`` stream ahead of ``job.done``.
        """
        body = {"worker": worker, "job": job_id, "identity": identity,
                "report": encode_tree(report), "trace": trace}
        if snapshot is not None:
            body["snapshot"] = snapshot
        return self._request("POST", "/fleet/complete", body)

    def fleet_fail(self, worker: str, job_id: str, error: str,
                   trace: dict | None = None) -> dict:
        """Report a failed attempt and its spans (kept if final)."""
        return self._request("POST", "/fleet/fail", {
            "worker": worker, "job": job_id, "error": error,
            "trace": trace})

    def fleet_workers(self) -> dict:
        return self._request("GET", "/fleet/workers")

    # ------------------------------------------------------------------
    def wait(self, job_id: str, *, timeout: float = 120.0,
             poll_interval: float = 0.05) -> dict:
        """Poll until the job leaves the queue; returns its final record.

        Raises :class:`ServiceError` on a failed job or on timeout —
        callers never have to distinguish "slow" from "dead" themselves.
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] == DONE:
                return job
            if job["state"] == FAILED:
                raise ServiceError(
                    f"job {job_id} failed: {job.get('error')}")
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {job['state']} after {timeout}s")
            time.sleep(poll_interval)
