"""Service processes and the open-loop load generator.

The benchmark drives ``diogenes serve`` (and, for the fleet, one
``diogenes worker``) as subprocesses over HTTP, the way users do.  One
load-generator process uses two threads with one keep-alive connection
each: a submitter that sends each submission when it is due, and a
poller that checks outstanding jobs every 10 ms (see
:data:`SWEEP_EVERY`) and fetches each finished report's bytes.
Latency runs from when a submission was due
to when its report was fetched, so a stall also delays the
submissions queued behind it.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import socket
import subprocess
import threading
import time

#: Poller cadence, seconds.
POLL_INTERVAL = 0.01

#: Every cycle polls the oldest outstanding job (one worker finishes
#: jobs in submission order); every SWEEP_EVERY-th cycle polls them
#: all, so a job finishing out of order is seen within 100 ms.  Polling
#: every job every cycle put hundreds of requests a second on the
#: daemon's event loop, competing with the job thread for the GIL.
SWEEP_EVERY = 10

#: Longest a service start may take before the run fails.
START_TIMEOUT = 60.0


class ServiceFailure(RuntimeError):
    """The service did not start, answer, or stop as expected."""


class Connection:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=timeout)

    def call(self, method: str, path: str, payload: dict | None = None,
             *, close: bool = False) -> bytes:
        headers = {"Content-Type": "application/json"}
        if close:
            headers["Connection"] = "close"
        body = json.dumps(payload).encode() if payload is not None else None
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        if response.status >= 400:
            raise ServiceFailure(f"{method} {path} -> HTTP {response.status}: "
                                 f"{data[:200]!r}")
        return data

    def json(self, method: str, path: str, payload: dict | None = None):
        return json.loads(self.call(method, path, payload))

    def close(self) -> None:
        self._conn.close()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ServiceFailure(f"no VmHWM for pid {pid}")


class Service:
    """A running ``diogenes serve`` (plus a fleet worker) subprocess set.

    ``command(args, label)`` returns the argv that runs ``diogenes
    <args>`` (plain, or under the traced launcher).  ``fleet`` selects
    ``serve --workers 0 --backend sqlite`` plus one ``diogenes worker``;
    otherwise ``serve --workers 1`` with default flags.
    """

    def __init__(self, command, env: dict, data_dir, *, fleet: bool) -> None:
        self.command = command
        self.env = env
        self.data_dir = str(data_dir)
        self.fleet = fleet
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        self.procs: list[subprocess.Popen] = []
        self.logs = []

    def _spawn(self, args: list[str], label: str) -> subprocess.Popen:
        log = open(os.path.join(self.data_dir, f"{label}.log"), "wb")
        self.logs.append(log)
        proc = subprocess.Popen(self.command(args, label), env=self.env,
                                stdout=log, stderr=subprocess.STDOUT,
                                cwd=self.data_dir)
        self.procs.append(proc)
        return proc

    def _wait_until(self, ready, what: str) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            if any(p.poll() is not None for p in self.procs):
                raise ServiceFailure(f"{what}: a service process exited "
                                     f"(see {self.data_dir}/*.log)")
            try:
                if ready():
                    return
            except (OSError, http.client.HTTPException, ServiceFailure):
                pass
            time.sleep(0.005)
        raise ServiceFailure(f"{what}: not ready after {START_TIMEOUT}s")

    def _get(self, path: str):
        conn = Connection(self.port, timeout=5.0)
        try:
            return conn.json("GET", path)
        finally:
            conn.close()

    def start(self) -> float:
        """Spawn the service; seconds until it serves (and, for the
        fleet, until the worker is live)."""
        os.makedirs(self.data_dir, exist_ok=True)
        t0 = time.perf_counter()
        serve = ["serve", "--port", str(self.port), "--data-dir", "data"]
        serve += (["--workers", "0", "--backend", "sqlite"] if self.fleet
                  else ["--workers", "1"])
        self.daemon = self._spawn(serve, "serve")
        self._wait_until(lambda: self._get("/healthz")["status"] == "ok",
                         "serve")
        if self.fleet:
            self.worker = self._spawn(
                ["worker", "--coordinator", self.url, "--id", "bench-worker"],
                "worker")
            self._wait_until(
                lambda: "bench-worker" in self._get("/fleet/workers")["live"],
                "worker")
        return time.perf_counter() - t0

    @property
    def analyser(self) -> subprocess.Popen:
        """The process that analyses submissions."""
        return self.worker if self.fleet else self.daemon

    def metrics_text(self) -> str:
        conn = Connection(self.port, timeout=10.0)
        try:
            return conn.call("GET", "/metrics").decode()
        finally:
            conn.close()

    def jobs(self) -> dict[str, dict]:
        return {job["id"]: job for job in self._get("/jobs")["jobs"]}

    def stop(self) -> None:
        """Drain the worker, shut the daemon down, and reap everything."""
        worker = getattr(self, "worker", None)
        daemon = getattr(self, "daemon", None)
        try:
            if worker is not None and worker.poll() is None:
                worker.send_signal(signal.SIGTERM)
                worker.wait(timeout=30)
            if daemon is not None and daemon.poll() is None:
                conn = Connection(self.port, timeout=10.0)
                try:
                    conn.call("POST", "/shutdown", close=True)
                finally:
                    conn.close()
                daemon.wait(timeout=30)
        except (OSError, http.client.HTTPException, ServiceFailure,
                subprocess.TimeoutExpired):
            pass
        finally:
            self.kill()

    def kill(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for log in self.logs:
            log.close()
        self.logs = []


def drive(port: int, entries: list[dict], timeout: float) -> list[dict]:
    """Send ``entries`` open loop and collect every report.

    Each entry carries ``due`` (a ``time.monotonic`` instant),
    ``workload`` and ``params``.  Returns one record per entry, in
    order: send lateness, submit and fetch round trips, job id, the time
    the poller saw the job done (``time.time``, comparable with the job
    record's stamps), latency from due to fetched, and the report bytes
    (``None`` with an ``error`` when the job failed or never finished).
    """
    records = [dict(index=k, workload=e["workload"], params=e["params"],
                    due=e["due"], body=None, error=None)
               for k, e in enumerate(entries)]
    sent: queue.Queue = queue.Queue()

    def submitter() -> None:
        conn = Connection(port)
        try:
            for record in records:
                delay = record["due"] - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                t_sent = time.monotonic()
                try:
                    reply = conn.json("POST", "/submit", {
                        "workload": record["workload"],
                        "params": record["params"]})
                except (OSError, http.client.HTTPException,
                        ServiceFailure) as exc:
                    record["error"] = f"submit: {exc}"
                    conn.close()
                    conn = Connection(port)
                    continue
                record.update(lateness=t_sent - record["due"],
                              submit_s=time.monotonic() - t_sent,
                              job=reply["job"]["id"],
                              key=reply["job"]["report_key"],
                              cached=reply["cached"])
                sent.put(record)
        finally:
            conn.close()

    thread = threading.Thread(target=submitter, name="submitter")
    thread.start()
    conn = Connection(port)
    deadline = time.monotonic() + timeout
    outstanding: list[dict] = []
    tick = time.monotonic()
    cycle = 0
    try:
        while thread.is_alive() or not sent.empty() or outstanding:
            while not sent.empty():
                outstanding.append(sent.get())
            cycle += 1
            polled = False
            for record in list(outstanding):
                if record["cached"]:
                    # Born done: the report store answered the submit.
                    job = {"state": "done", "report_key": record["key"]}
                elif polled and cycle % SWEEP_EVERY:
                    continue
                else:
                    polled = True
                    job = conn.json("GET", f"/jobs/{record['job']}")
                if job["state"] == "done":
                    record["observed"] = time.time()
                    t0 = time.monotonic()
                    record["body"] = conn.call("GET",
                                               f"/reports/{job['report_key']}")
                    now = time.monotonic()
                    record.update(fetch_s=now - t0,
                                  latency=now - record["due"])
                    outstanding.remove(record)
                elif job["state"] == "failed":
                    record["error"] = f"job failed: {job.get('error')}"
                    outstanding.remove(record)
            if time.monotonic() > deadline:
                for record in outstanding:
                    record["error"] = "not done before the deadline"
                break
            # A slow cycle (a large report) restarts the cadence rather
            # than polling back to back to catch up.
            tick = max(tick + POLL_INTERVAL, time.monotonic())
            time.sleep(max(0.0, tick - time.monotonic()))
    finally:
        conn.close()
        thread.join()
    return records
