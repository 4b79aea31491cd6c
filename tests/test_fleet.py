"""Fleet mode tests (`repro.fleet`): coordinator + worker scale-out.

The contracts that keep the fleet honest:

* a report produced by a remote worker is **byte-identical** to the
  serial CLI report — scale-out changes throughput, never bytes;
* jobs are leased, not handed over: a worker that stops heartbeating
  loses its lease and the job is redelivered, exactly once resolved;
* duplicate submissions are suppressed through the content-addressed
  store and an exact in-flight check: any worker claims the oldest
  job, but never one whose report key is already running;
* a saturated queue answers 429 + Retry-After and the client honours
  it (jittered exponential backoff on connection errors too);
* an idle worker's pull is held by the coordinator and answered as
  soon as a job can be claimed — never for a worker that hung up;
* SIGTERM drains gracefully: in-flight work finishes, exit code 0.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager

import pytest

import repro.obs as obs
import repro.service.queue as queue_module
from repro.apps.base import registry
from repro.core.cli import _load_workloads, build_parser
from repro.core.diogenes import Diogenes, DiogenesConfig
from repro.core.jsonio import dumps_report
from repro.exec.fingerprint import config_to_json
from repro.exec.jobs import WorkloadSpec
from repro.fleet import FleetCoordinator, WorkerNode
from repro.fleet.coordinator import stitch_trace
from repro.service import (
    DONE,
    FAILED,
    RUNNING,
    SUBMITTED,
    JobQueue,
    ReportStore,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    report_identity,
)

_load_workloads()

APP = "synthetic-unnecessary-sync"
PARAMS = {"iterations": 4}

#: Ids no job can have: a 404/KeyError, never an exception of the parse.
MALFORMED_JOB_IDS = ("job-abc", "job-1", "job-", "job-" + "9" * 25)
APP_B = "synthetic-misplaced-sync"
PARAMS_B = {"iterations": 3}

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"

_serial_cache: dict[tuple, str] = {}


def _serial_json(name: str, params: dict) -> str:
    cache_key = (name, tuple(sorted(params.items())))
    if cache_key not in _serial_cache:
        report = Diogenes(registry.create(name, **params)).run()
        _serial_cache[cache_key] = dumps_report(report)
    return _serial_cache[cache_key]


def _metric_value(text: str, name: str, **labels) -> float | None:
    for line in text.splitlines():
        match = re.match(rf"{re.escape(name)}(?:{{(.*)}})? (.+)$", line)
        if not match:
            continue
        found = dict(re.findall(r'(\w+)="([^"]*)"', match.group(1) or ""))
        if all(found.get(k) == str(v) for k, v in labels.items()):
            return float(match.group(2))
    return None


@pytest.fixture(autouse=True)
def _observability_reset():
    obs.disable()
    yield
    obs.disable()


@contextmanager
def running_daemon(data_dir, **kwargs):
    daemon = ServiceDaemon(data_dir, **kwargs)
    thread = threading.Thread(target=daemon.run, kwargs={"port": 0},
                              daemon=True)
    thread.start()
    assert daemon.started.wait(10), "daemon failed to start"
    client = ServiceClient(f"http://127.0.0.1:{daemon.bound_port}")
    try:
        yield client, daemon
    finally:
        try:
            client.shutdown()
        except ServiceError:
            pass
        client.close()
        thread.join(15)
        assert not thread.is_alive(), "daemon did not shut down cleanly"


def _run_worker(url, worker_id, max_jobs, **kwargs):
    """Run one WorkerNode to completion in a thread; returns (node, thread)."""
    node = WorkerNode(url, worker_id=worker_id, **kwargs)
    thread = threading.Thread(target=node.run, kwargs={"max_jobs": max_jobs},
                              daemon=True)
    thread.start()
    return node, thread


# ----------------------------------------------------------------------
# Client retry behaviour against a flaky stub server
# ----------------------------------------------------------------------
class _FlakyStub:
    """Raw-socket stub: misbehaves for the first N connections, then
    answers 200 JSON.  ``mode`` selects the misbehaviour: ``close``
    (connection reset — a crashed/restarting daemon) or ``429``
    (backpressure with a Retry-After header)."""

    def __init__(self, failures: int, mode: str = "close",
                 retry_after: str = "0") -> None:
        self.failures = failures
        self.mode = mode
        self.retry_after = retry_after
        self.connections = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(16)
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                if self.connections <= self.failures:
                    if self.mode == "close":
                        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                        b"\x01\x00\x00\x00\x00\x00\x00\x00")
                        continue  # reset on close, nothing read
                    conn.recv(65536)
                    conn.sendall(
                        b"HTTP/1.1 429 Too Many Requests\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Retry-After: " + self.retry_after.encode() +
                        b"\r\nContent-Length: 26\r\nConnection: close\r\n"
                        b"\r\n{\"error\": \"queue is full\"}")
                    continue
                conn.recv(65536)
                conn.sendall(b"HTTP/1.1 200 OK\r\n"
                             b"Content-Type: application/json\r\n"
                             b"Content-Length: 14\r\n"
                             b"Connection: close\r\n\r\n{\"status\": 1}\n")

    def close(self) -> None:
        try:
            # Wakes the accept() that close() alone leaves blocked.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # not every platform shuts down a listener
            pass
        self._sock.close()
        self._thread.join(5)


class TestClientRetries:
    def test_retries_connection_errors_until_success(self):
        stub = _FlakyStub(failures=2, mode="close")
        try:
            client = ServiceClient(stub.url, retries=4)
            assert client.health() == {"status": 1}
            assert stub.connections == 3
        finally:
            stub.close()

    def test_retries_429_honouring_retry_after(self):
        stub = _FlakyStub(failures=2, mode="429", retry_after="0.2")
        try:
            client = ServiceClient(stub.url, retries=4)
            t0 = time.monotonic()
            assert client.health() == {"status": 1}
            # Two 429s, each instructing a >= 0.2s wait.
            assert time.monotonic() - t0 >= 0.4
            assert stub.connections == 3
        finally:
            stub.close()

    def test_retry_budget_exhausts_and_surfaces_the_429(self):
        stub = _FlakyStub(failures=99, mode="429", retry_after="0")
        try:
            client = ServiceClient(stub.url, retries=2)
            with pytest.raises(ServiceError) as err:
                client.health()
            assert err.value.status == 429
            assert err.value.retry_after == 0.0
            assert stub.connections == 3  # initial try + 2 retries
        finally:
            stub.close()

    def test_non_transient_errors_are_not_retried(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, _):
            with pytest.raises(ServiceError) as err:
                client.job("job-nope")
            assert err.value.status == 404

    def test_retries_zero_disables_retrying(self):
        stub = _FlakyStub(failures=1, mode="close")
        try:
            client = ServiceClient(stub.url, retries=0)
            with pytest.raises(ServiceError):
                client.health()
            assert stub.connections == 1
        finally:
            stub.close()


# ----------------------------------------------------------------------
# Coordinator protocol over HTTP: pull, execute, push, stitch
# ----------------------------------------------------------------------
class TestFleetEndToEnd:
    def test_worker_report_is_byte_identical_to_serial(self, tmp_path):
        serial = _serial_json(APP, PARAMS)
        with running_daemon(tmp_path / "svc", workers=0) as (client, _):
            job = client.submit(APP, PARAMS)["job"]
            node, thread = _run_worker(client.base_url, "w1", max_jobs=1)
            thread.join(60)
            final = client.wait(job["id"], timeout=30)
            assert final["state"] == DONE and final["worker"] == "w1"
            fetched = client.report(final["report_key"])
            assert json.dumps(fetched, indent=2) == serial
            assert node.jobs_completed == 1

    def test_stopped_worker_leaves_no_socket_open(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, _):
            job = client.submit(APP, PARAMS)["job"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                node = WorkerNode(client.base_url, worker_id="w1",
                                  poll_interval=0.05)
                assert node.run(max_jobs=1) == 1
                del node
                gc.collect()
            assert client.job(job["id"])["state"] == DONE
        unclosed = [str(w.message) for w in caught
                    if issubclass(w.category, ResourceWarning)
                    and "socket" in str(w.message)]
        assert unclosed == []

    def test_trace_is_one_tree_rooted_at_service_job(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, _):
            job = client.submit(APP, PARAMS)["job"]
            _, thread = _run_worker(client.base_url, "w1", max_jobs=1)
            thread.join(60)
            client.wait(job["id"], timeout=30)
            trace = client.trace(job["id"])
            spans = trace["spans"]
            roots = [s for s in spans if s["parent_id"] is None]
            assert [r["name"] for r in roots] == ["service.job"]
            by_id = {s["span_id"]: s for s in spans}
            assert len(by_id) == len(spans), "span ids must be unique"
            worker_spans = [s for s in spans
                            if s["name"] == "fleet.worker.job"]
            assert len(worker_spans) == 1
            assert worker_spans[0]["parent_id"] == roots[0]["span_id"]
            assert worker_spans[0]["pid"] is not None  # its own trace lane
            # Every span reaches the root by parent links.
            for span in spans:
                hops, cursor = 0, span
                while cursor["parent_id"] is not None and hops < 100:
                    cursor = by_id[cursor["parent_id"]]
                    hops += 1
                assert cursor is roots[0]
            # The root covers its adopted children.
            assert all(roots[0]["wall_end"] >= s["wall_end"]
                       for s in spans if s["wall_end"] is not None)
            assert trace["worker"] == "w1"

    def test_duplicate_submission_not_executed_twice(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, _):
            first = client.submit(APP, PARAMS)["job"]
            dup = client.submit(APP, PARAMS, force=True)["job"]
            assert dup["id"] != first["id"]
            assert dup["report_key"] == first["report_key"]
            node, thread = _run_worker(client.base_url, "w1", max_jobs=1)
            thread.join(60)
            assert client.wait(first["id"], timeout=30)["state"] == DONE
            # The duplicate resolved from the store without running.
            assert client.wait(dup["id"], timeout=30)["state"] == DONE
            assert node.jobs_completed == 1

    def test_lease_expiry_redelivers_to_a_live_worker(self, tmp_path):
        serial = _serial_json(APP, PARAMS)
        with running_daemon(tmp_path / "svc", workers=0,
                            lease_seconds=0.3) as (client, _):
            job = client.submit(APP, PARAMS)["job"]
            # A worker claims the job, then dies: no heartbeat, no push.
            client.fleet_register("ghost")
            claimed = client.fleet_pull("ghost")
            assert claimed is not None and claimed["id"] == job["id"]
            assert _metric_value(client.metrics(),
                                 "repro_service_leases_active") == 1
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.job(job["id"])["state"] == SUBMITTED:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("expired lease was never redelivered")
            _, thread = _run_worker(client.base_url, "rescuer", max_jobs=1)
            thread.join(60)
            final = client.wait(job["id"], timeout=30)
            assert final["state"] == DONE
            assert final["worker"] == "rescuer"
            assert final["attempts"] == 2  # ghost's claim + the redelivery
            fetched = client.report(final["report_key"])
            assert json.dumps(fetched, indent=2) == serial

    def test_heartbeat_keeps_a_lease_alive_and_409s_when_lost(
            self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0,
                            lease_seconds=0.4) as (client, daemon):
            client.submit(APP, PARAMS)
            client.fleet_register("w1")
            job = client.fleet_pull("w1")
            for _ in range(4):  # outlive several lease windows
                time.sleep(0.15)
                client.fleet_heartbeat("w1", job["id"])
            assert client.job(job["id"])["state"] == RUNNING
            daemon.queue.expire_leases(now=time.time() + 60)
            with pytest.raises(ServiceError) as err:
                client.fleet_heartbeat("w1", job["id"])
            assert err.value.status == 409

    def test_worker_failure_requeues_then_fails_for_good(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, daemon):
            daemon.fleet.retry_limit = 2
            client.submit(APP, PARAMS)
            client.fleet_register("w1")
            job = client.fleet_pull("w1")
            client.fleet_fail("w1", job["id"], "RuntimeError: kaboom")
            record = client.job(job["id"])
            assert record["state"] == SUBMITTED  # redelivered, not dead
            assert record["error"] == "RuntimeError: kaboom"
            job = client.fleet_pull("w1")
            client.fleet_fail("w1", job["id"], "RuntimeError: kaboom again")
            record = client.job(job["id"])
            assert record["state"] == FAILED
            assert record["attempts"] == 2

    def test_final_remote_failure_keeps_trace_and_flight_dump(
            self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, daemon):
            daemon.fleet.retry_limit = 1
            bad = daemon.queue.submit("synthetic-quiet", {"bogus_arg": 1},
                                      config_to_json(DiogenesConfig()), "k")
            _, thread = _run_worker(client.base_url, "w1", max_jobs=1)
            thread.join(60)
            with pytest.raises(ServiceError, match="TypeError"):
                client.wait(bad.id, timeout=30)
            trace = client.trace(bad.id)
            roots = [s["name"] for s in trace["spans"]
                     if s["parent_id"] is None]
            assert roots == ["service.job"] and trace["worker"] == "w1"
            flight = (pathlib.Path(daemon.data_dir) / "flight"
                      / f"{bad.id}.jsonl")
            events = [json.loads(line)
                      for line in flight.read_text().splitlines()]
            assert events[-1]["event"] == "job.failed"
            assert {e["trace_id"] for e in events} == {trace["trace_id"]}

    def test_fleet_workers_listing_and_gauges(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, _):
            job = client.submit(APP, PARAMS)["job"]
            node, thread = _run_worker(client.base_url, "metrics-w",
                                       max_jobs=1)
            thread.join(60)
            client.wait(job["id"], timeout=30)
            listing = client.fleet_workers()
            assert "metrics-w" in listing["live"]
            (record,) = [w for w in listing["workers"]
                         if w["id"] == "metrics-w"]
            assert record["jobs_completed"] == 1 and record["live"]
            text = client.metrics()
            assert _metric_value(text, "repro_service_worker_jobs",
                                 worker="metrics-w") == 1
            assert _metric_value(text,
                                 "repro_service_fleet_workers_live") >= 1
            assert _metric_value(text, "repro_service_leases_active") == 0
            assert _metric_value(text, "repro_service_fleet_completions",
                                 worker="metrics-w") == 1

    def test_worker_relays_streaming_snapshots_home(self, tmp_path):
        # A short lease makes the worker heartbeat every lease/3 =
        # 0.1s, so the ~1s workload relays rolling snapshots mid-run;
        # the final snapshot always rides the completion push.
        with running_daemon(tmp_path / "svc", workers=0,
                            lease_seconds=0.3) as (client, _):
            job = client.submit(APP, {"iterations": 2000})["job"]
            _, thread = _run_worker(client.base_url, "streamer", max_jobs=1)
            thread.join(60)
            final_record = client.wait(job["id"], timeout=30)
            collected, after = [], 0
            for _ in range(100):
                resp = client.events(job["id"], after=after, timeout=2)
                collected += resp["events"]
                after = resp["last_seq"]
                if resp["done"]:
                    break
            snaps = [e for e in collected if e["event"] == "stream.snapshot"]
            assert snaps, "worker snapshots must reach the home stream"
            assert all(s["worker"] == "streamer" for s in snaps)
            assert snaps[-1]["final"] is True
            # The relayed final snapshot carries the stored report's
            # ranked problems, byte for byte.
            stored = client.report(final_record["report_key"])
            assert (json.dumps(snaps[-1]["problems"], sort_keys=True)
                    == json.dumps(stored["problems"], sort_keys=True))
            names = [e["event"] for e in collected]
            assert names.index("stream.snapshot") < names.index("job.done")


# ----------------------------------------------------------------------
# Held pulls: an idle worker wakes on submit instead of polling
# ----------------------------------------------------------------------
def _hold_pull(client, daemon, worker, wait=5.0):
    """Start ``worker``'s pull in a thread; return once the coordinator
    has scanned for it, found nothing and holds it.

    Returns ``answer()``, which waits for the pull's answer and gives
    the job (or ``None``) and the epoch seconds when it arrived."""
    result: dict = {}
    started = time.time()

    def pull():
        result["job"] = client.fleet_pull(worker, wait=wait)
        result["at"] = time.time()

    thread = threading.Thread(target=pull, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    # The first scan touches the worker, on the event loop that also
    # serves the next request: after it, the pull is held.
    while not (worker in daemon.fleet.workers
               and daemon.fleet.workers[worker].last_seen >= started):
        assert "job" not in result, "the pull was not held"
        assert time.monotonic() < deadline, "the pull never arrived"
        time.sleep(0.005)

    def answer(timeout: float = 10.0):
        thread.join(timeout)
        assert not thread.is_alive(), "the held pull never answered"
        return result["job"], result["at"]

    return answer


def _until_near_expiry(job: dict) -> None:
    """Sleep until 50 ms before ``job``'s lease runs out.  A pull is
    held for at most one lease, so one held from then spans the
    lease sweep's requeue."""
    time.sleep(max(0.0, job["lease_expires"] - time.time() - 0.05))


class TestHeldPull:
    def test_held_pull_claims_a_job_submitted_during_the_hold(
            self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, daemon):
            answer = _hold_pull(client, daemon, "w1")
            submitted = time.time()
            job = client.submit(APP, PARAMS)["job"]
            pulled, at = answer()
            assert pulled["id"] == job["id"]
            assert at - submitted < 1.0
            record = client.job(job["id"])
            assert record["worker"] == "w1" and record["attempts"] == 1

    def test_held_pull_wakes_on_a_lease_expiry_requeue(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0,
                            lease_seconds=0.3) as (client, daemon):
            job = client.submit(APP, PARAMS)["job"]
            # A worker claims the job, then dies: no heartbeat, no push.
            client.fleet_register("ghost")
            claimed = client.fleet_pull("ghost")
            assert claimed["id"] == job["id"]
            _until_near_expiry(claimed)
            pulled, at = _hold_pull(client, daemon, "rescuer")()
            assert pulled["id"] == job["id"] and pulled["attempts"] == 2
            assert at - claimed["lease_expires"] < 1.0

    def test_held_pull_claims_a_job_its_dead_owner_lost(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0,
                            lease_seconds=0.3) as (client, daemon):
            job = client.submit(APP, PARAMS)["job"]
            client.fleet_register("ghost")
            claimed_at = time.time()
            claimed = client.fleet_pull("ghost")
            assert claimed["id"] == job["id"]
            _until_near_expiry(claimed)
            pulled, at = _hold_pull(client, daemon, "rescuer")()
            assert pulled is not None and pulled["id"] == job["id"]
            assert pulled["attempts"] == 2
            assert at - claimed_at < 2.0
            workers = {w["id"]: w for w in client.fleet_workers()["workers"]}
            assert workers["ghost"]["live"] is False

    def test_held_pull_wakes_on_a_fail_requeue(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, daemon):
            job = client.submit(APP, PARAMS)["job"]
            client.fleet_register("w1")
            assert client.fleet_pull("w1")["id"] == job["id"]
            # The node holds a pull for its next job while this one
            # fails; the requeued job is that next job.
            answer = _hold_pull(client, daemon, "w1")
            failed = time.time()
            client.fleet_fail("w1", job["id"], "RuntimeError: kaboom")
            pulled, at = answer()
            assert pulled["id"] == job["id"] and pulled["attempts"] == 2
            assert at - failed < 1.0

    def test_held_pull_answers_null_when_the_wait_runs_out(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, _):
            t0 = time.monotonic()
            assert client.fleet_pull("w1", wait=1.0) is None
            assert 0.9 <= time.monotonic() - t0 < 2.0

    def test_held_pull_is_capped_below_the_worker_ttl(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0,
                            lease_seconds=0.4) as (client, _):
            t0 = time.monotonic()
            assert client.fleet_pull("w1", wait=5.0) is None
            assert 0.3 <= time.monotonic() - t0 < 1.5  # held one lease

    def test_serve_worker_ttl_option_is_gone(self, capsys):
        # Liveness is two leases; a held pull is capped at one.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--worker-ttl", "4"])
        assert exit_info.value.code == 2
        assert "--worker-ttl" in capsys.readouterr().err

    def test_one_submission_is_claimed_once_by_its_ring_owner(
            self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, daemon):
            held = {worker: _hold_pull(client, daemon, worker, wait=2.0)
                    for worker in ("w1", "w2")}
            submitted = time.time()
            job = client.submit(APP, PARAMS)["job"]
            answers = {worker: answer() for worker, answer in held.items()}
            (winner,) = [worker for worker, (pulled, _) in answers.items()
                         if pulled is not None]
            pulled, at = answers[winner]
            assert pulled["id"] == job["id"] and at - submitted < 1.0
            (loser,) = set(answers) - {winner}
            assert answers[loser][0] is None
            record = client.job(job["id"])
            assert record["worker"] == winner and record["attempts"] == 1

    def test_pull_held_by_a_peer_that_hung_up_claims_nothing(
            self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, daemon):
            body = json.dumps({"worker": "ghost", "wait": 5}).encode()
            sock = socket.create_connection(("127.0.0.1",
                                             daemon.bound_port))
            sock.sendall(b"POST /fleet/pull HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body) + body)
            deadline = time.monotonic() + 10
            while "ghost" not in daemon.fleet.workers:
                assert time.monotonic() < deadline, "the pull never arrived"
                time.sleep(0.005)
            sock.close()  # the worker dies during the hold
            time.sleep(0.1)
            job = client.submit(APP, PARAMS)["job"]
            time.sleep(0.3)
            record = client.job(job["id"])
            assert record["state"] == SUBMITTED and record["attempts"] == 0
            assert _metric_value(client.metrics(),
                                 "repro_service_leases_active") == 0

    @pytest.mark.parametrize("wait", [float("nan"), float("inf"), -1, "5",
                                      True])
    def test_pull_wait_must_be_finite_seconds(self, tmp_path, wait):
        with running_daemon(tmp_path / "svc", workers=0) as (client, _):
            with pytest.raises(ServiceError, match='"wait"') as err:
                client._request("POST", "/fleet/pull",
                                {"worker": "w1", "wait": wait})
            assert err.value.status == 400

    @pytest.mark.parametrize("raw", ["nan", "inf", "0", "-1", "soon"])
    def test_worker_poll_interval_must_be_positive_seconds(self, raw,
                                                           capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["worker", "--poll-interval", raw])
        assert exit_info.value.code == 2
        assert "--poll-interval" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Backpressure: 429 + Retry-After, honoured end to end
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_saturated_queue_answers_429_with_retry_after(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0,
                            max_queue=1) as (client, _):
            client.submit(APP, PARAMS)
            blunt = ServiceClient(client.base_url, retries=0)
            with pytest.raises(ServiceError) as err:
                blunt.submit(APP_B, PARAMS_B)
            assert err.value.status == 429
            assert err.value.retry_after is not None
            assert err.value.retry_after >= 1
            assert _metric_value(
                blunt.metrics(),
                "repro_service_backpressure_rejections") == 1

    def test_client_backs_off_and_lands_the_submit(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0,
                            max_queue=1) as (client, _):
            first = client.submit(APP, PARAMS)["job"]
            # A worker drains the queue while the client is backing off.
            _, thread = _run_worker(client.base_url, "drainer", max_jobs=2)
            patient = ServiceClient(client.base_url, retries=6)
            second = patient.submit(APP_B, PARAMS_B)["job"]
            thread.join(90)
            assert patient.wait(first["id"], timeout=60)["state"] == DONE
            assert patient.wait(second["id"], timeout=60)["state"] == DONE


# ----------------------------------------------------------------------
# Coordinator unit behaviour (no HTTP)
# ----------------------------------------------------------------------
class TestCoordinatorUnits:
    def _fixture(self, tmp_path, **kwargs):
        queue = JobQueue(tmp_path / "queue")
        store = ReportStore(tmp_path / "store")
        return queue, store, FleetCoordinator(queue, store, **kwargs)

    def _submit_real(self, queue):
        spec = WorkloadSpec.from_params(APP, PARAMS)
        config = DiogenesConfig()
        identity = report_identity(spec, config)
        job = queue.submit(APP, PARAMS, config_to_json(config),
                           identity.key())
        return job, identity

    def test_identity_mismatch_fails_the_job_loudly(self, tmp_path):
        queue, _, fleet = self._fixture(tmp_path)
        job, identity = self._submit_real(queue)
        fleet.register("w1")
        pulled = fleet.pull("w1")
        assert pulled.id == job.id
        skewed = dict(identity)
        skewed["code_fingerprint"] = "deadbeef" * 5
        with pytest.raises(ValueError, match="skewed code"):
            fleet.complete("w1", job.id, skewed, {"schema_version": 1},
                           None)
        assert queue.get(job.id).state == FAILED
        assert "skewed" in queue.get(job.id).error

    def test_stale_completion_is_acknowledged_not_applied(self, tmp_path):
        events = []
        queue, store, fleet = self._fixture(
            tmp_path, lease_seconds=0.01,
            publish=lambda job_id, name, **fields: events.append(
                (job_id, name, fields)))
        job, identity = self._submit_real(queue)
        fleet.register("w1")
        fleet.pull("w1")
        time.sleep(0.03)
        assert [j.id for j in fleet.expire()] == [job.id]
        # w1 finishes anyway and pushes after losing its lease.
        del events[:]
        reply = fleet.complete("w1", job.id, dict(identity),
                               {"schema_version": 1}, None,
                               snapshot={"version": 7, "final": True})
        assert reply["stale"] is True
        # The bytes are banked and the requeued job resolves from them
        # at push time, not stranded until some later pull — its final
        # snapshot relayed ahead of the terminal event.
        assert store.contains(identity.key())
        assert queue.get(job.id).state == DONE
        assert reply["job"]["state"] == DONE
        assert [(j, name) for j, name, _ in events] == [
            (job.id, "stream.snapshot"), (job.id, "job.done")]
        assert events[0][2] == {"worker": "w1", "version": 7, "final": True}
        fleet.register("w2")
        assert fleet.pull("w2") is None  # nothing left to run

    def test_crash_between_report_commit_and_mark_done(self, tmp_path):
        # complete() commits the report to the store before the queue
        # marks the job done.  A crash between the two commits must
        # lose nothing and run nothing twice.
        queue, store, fleet = self._fixture(tmp_path, lease_seconds=0.2)
        job, identity = self._submit_real(queue)
        fleet.register("w1")
        assert fleet.pull("w1").id == job.id
        store.put(identity, {"schema_version": 1, "workload": APP},
                  job_id=job.id)
        committed = store.get_bytes(identity.key())
        queue.close()  # the process dies before mark_done
        store.close()
        del fleet

        events = []
        queue, store, fleet = self._fixture(
            tmp_path, lease_seconds=0.2,
            publish=lambda job_id, name, **fields: events.append(
                (name, fields)))
        time.sleep(0.25)  # the dead worker's lease runs out
        fleet.expire()
        fleet.register("w2")
        assert fleet.pull("w2") is None
        record = queue.get(job.id)
        assert record.state == DONE
        assert record.report_key == identity.key()
        # Resolved from the stored report; never leased to a worker.
        assert "job.leased" not in [name for name, _ in events]
        assert events[-1] == ("job.done", {"report_key": identity.key(),
                                           "served_from": "store"})
        assert store.get_bytes(identity.key()) == committed

    def test_pull_touches_only_pending_and_running_jobs(self, tmp_path):
        queue, _, fleet = self._fixture(tmp_path)
        for i in range(200):
            done = queue.submit(APP, {"i": i}, {}, f"done-{i}")
            queue.mark_done(queue.claim_job(done.id), done.report_key)
        running = queue.submit(APP, {}, {}, "key-running")
        queue.claim_job(running.id, worker="w0", lease_seconds=60.0)
        waiting = queue.submit(APP, {}, {}, "key-waiting")
        statements = []
        queue._conn.set_trace_callback(statements.append)
        fleet.register("w1")
        assert fleet.pull("w1").id == waiting.id
        queue._conn.set_trace_callback(None)
        # Each statement pull ran on the job table is an index search:
        # none reads the job history.
        plans = [detail for sql in statements for *_, detail
                 in queue._conn.execute(f"EXPLAIN QUERY PLAN {sql}")]
        assert any(detail.startswith("SEARCH jobs") for detail in plans)
        assert not [detail for detail in plans
                    if detail.startswith("SCAN")], plans

    def test_pull_and_completion_decode_only_the_rows_they_use(
            self, tmp_path, monkeypatch):
        queue, _, fleet = self._fixture(tmp_path)
        job, identity = self._submit_real(queue)
        for i in range(300):
            queue.submit(APP, {"i": i}, {}, f"key-{i}")
        decoded = []
        real_decode = queue_module._decode

        def counting_decode(data):
            decoded.append(data)
            return real_decode(data)

        monkeypatch.setattr(queue_module, "_decode", counting_decode)
        fleet.register("w1")
        assert fleet.pull("w1").id == job.id
        fleet.complete("w1", job.id, dict(identity), {"schema_version": 1},
                       None)
        # Neither the pull nor the completion's duplicate search reads
        # the 300 jobs queued behind: the cost does not grow with depth.
        assert len(decoded) < 10, len(decoded)
        assert queue.get(job.id).state == DONE

    def test_fail_after_the_lease_moved_on_is_stale(
            self, tmp_path, monkeypatch):
        events = []
        queue, _, fleet = self._fixture(
            tmp_path, lease_seconds=0.01,
            publish=lambda job_id, name, **fields: events.append(name))
        job, _ = self._submit_real(queue)
        fleet.register("w1")
        held = fleet.pull("w1")
        time.sleep(0.03)
        fleet.expire()
        fleet.pull("w2")
        # w1's failure report read its job just before the lease moved.
        monkeypatch.setattr(queue, "get", lambda job_id: held)
        del events[:]
        reply = fleet.fail("w1", job.id, "boom")
        assert reply["stale"] is True
        assert reply["job"]["worker"] == "w2"
        assert events == []
        record = queue.jobs()[0]
        assert (record.state, record.worker, record.error) == \
            (RUNNING, "w2", None)

    def test_idle_worker_claims_every_job_oldest_first(self, tmp_path):
        queue, _, fleet = self._fixture(tmp_path)
        jobs = [queue.submit(APP, {"i": i}, {}, f"key-{i}")
                for i in range(8)]
        fleet.register("w1")
        fleet.register("w2")
        assert fleet.pull("w1").id == jobs[0].id == "job-000001"
        # No job waits for a busy owner: while w1 holds its lease, the
        # idle w2 claims the other seven in submission order.
        assert [fleet.pull("w2").id for _ in range(7)] == \
            [job.id for job in jobs[1:]]
        assert queue.get(jobs[0].id).worker == "w1"
        assert fleet.pull("w2") is None

    def test_concurrent_pulls_claim_one_of_two_duplicates(
            self, tmp_path, monkeypatch):
        queue, _, fleet = self._fixture(tmp_path)
        first = queue.submit(APP, {}, {}, "one-key")
        second = queue.submit(APP, {}, {}, "one-key")
        jobs_in_state = queue.jobs_in_state

        def widened(state):
            # Two pulls that both read the running keys before either
            # claims would each claim one of the duplicates.
            jobs = jobs_in_state(state)
            if state == RUNNING:
                time.sleep(0.2)
            return jobs

        monkeypatch.setattr(queue, "jobs_in_state", widened)
        fleet.register("node")  # two slots of one node: one worker id
        claimed = []
        pulls = [threading.Thread(
            target=lambda: claimed.append(fleet.pull("node")))
            for _ in range(2)]
        for thread in pulls:
            thread.start()
        for thread in pulls:
            thread.join(10)
        assert [job.id for job in claimed if job is not None] == [first.id]
        assert queue.get(second.id).state == SUBMITTED

    def test_stitch_trace_rebases_and_roots_worker_spans(self, tmp_path):
        queue, _, _ = self._fixture(tmp_path)
        job, _ = self._submit_real(queue)
        from repro.obs.tracer import Tracer

        worker_tracer = Tracer()
        with worker_tracer.span("fleet.worker.job", job=job.id):
            with worker_tracer.span("stage.stage1_baseline"):
                pass
        payload = stitch_trace(job, "w9",
                               worker_tracer.export_batch(pid=4242))
        spans = payload["spans"]
        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["service.job"]
        assert payload["worker"] == "w9"
        ids = [s["span_id"] for s in spans]
        assert len(ids) == len(set(ids)) == 3
        adopted = [s for s in spans if s["name"] == "fleet.worker.job"]
        assert adopted[0]["parent_id"] == roots[0]["span_id"]
        assert adopted[0]["pid"] == 4242
        assert roots[0]["wall_end"] >= max(s["wall_end"] for s in spans)

    def test_expired_lease_holder_is_dead_until_heard_from(self, tmp_path):
        queue, _, fleet = self._fixture(tmp_path, lease_seconds=0.05)
        job, _ = self._submit_real(queue)
        fleet.register("w1")
        assert fleet.pull("w1").id == job.id
        time.sleep(0.1)
        assert [j.id for j in fleet.expire()] == [job.id]
        assert "w1" not in fleet.live_workers()
        (info,) = fleet.workers_json()
        assert info["live"] is False
        json.dumps(info, allow_nan=False)  # a finite last_seen
        assert fleet.pull("w1").attempts == 2  # heard from again
        assert fleet.live_workers() == {"w1"}

    def test_unknown_job_raises_key_error(self, tmp_path):
        queue, _, fleet = self._fixture(tmp_path)
        queue.submit(APP, {}, {}, "key")  # job-1 must not alias job-000001
        fleet.register("w1")
        for job_id in ("job-404404", *MALFORMED_JOB_IDS):
            with pytest.raises(KeyError):
                fleet.complete("w1", job_id, {}, {}, None)
            with pytest.raises(KeyError):
                fleet.fail("w1", job_id, "boom")

    def test_register_reply_lists_the_registry(self, tmp_path):
        _, _, fleet = self._fixture(tmp_path)
        fleet.register("w2")
        fleet.pull("w3")  # a pull registers an unknown worker too
        assert fleet.register("w1")["workers"] == ["w1", "w2", "w3"]

    def test_register_validates_worker_id(self, tmp_path):
        _, _, fleet = self._fixture(tmp_path)
        with pytest.raises(ValueError):
            fleet.register("")


# ----------------------------------------------------------------------
# Graceful drain: SIGTERM on serve and worker subprocesses
# ----------------------------------------------------------------------
def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    return env


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for_line(stream, needle: str, timeout: float = 30.0) -> str:
    found: list[str] = []

    def reader():
        for line in stream:
            if needle in line:
                found.append(line)
                return

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout)
    assert found, f"never saw {needle!r} in subprocess output"
    return found[0]


class TestGracefulDrain:
    def test_shutdown_answers_held_long_polls(self, tmp_path, monkeypatch):
        daemon = ServiceDaemon(tmp_path / "svc", workers=0)
        thread = threading.Thread(target=daemon.run, kwargs={"port": 0},
                                  daemon=True)
        thread.start()
        assert daemon.started.wait(10)
        client = ServiceClient(f"http://127.0.0.1:{daemon.bound_port}")
        job = client.submit(APP, PARAMS)["job"]
        assert client.fleet_pull("w0")["id"] == job["id"]  # now running
        seen = client.events(job["id"], timeout=0)["last_seq"]
        polled = threading.Event()
        job_events = daemon._job_events

        def spy(job_id, after):
            polled.set()
            return job_events(job_id, after)

        monkeypatch.setattr(daemon, "_job_events", spy)
        answers: dict = {}
        events = threading.Thread(target=lambda: answers.update(
            events=client.events(job["id"], after=seen, timeout=20)))
        events.start()
        assert polled.wait(10), "the events poll never arrived"
        answer = _hold_pull(client, daemon, "w1", wait=20)
        client.shutdown()
        thread.join(5)
        assert not thread.is_alive(), "daemon did not stop within 5 s"
        events.join(5)
        assert not events.is_alive()
        # Both polls got a normal 200 answer, not a dropped connection.
        assert answer(5)[0] is None
        assert answers["events"]["state"] == RUNNING
        assert answers["events"]["events"] == []
        assert answers["events"]["done"] is False

    def test_serve_finishes_inflight_job_on_sigterm(self, tmp_path):
        port = _free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", "serve",
             "--port", str(port), "--data-dir", str(tmp_path / "svc"),
             "--workers", "1"],
            env=_cli_env(), cwd=REPO_ROOT, stderr=subprocess.PIPE,
            text=True)
        try:
            _wait_for_line(proc.stderr, "analysis service on")
            client = ServiceClient(f"http://127.0.0.1:{port}", retries=8)
            job = client.submit(APP, PARAMS)["job"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)
        # Queue state persisted: the job either finished or is cleanly
        # waiting — never stuck "running" in a dead process.
        queue = JobQueue(tmp_path / "svc" / "queue")
        record = queue.get(job["id"])
        assert record.state in (DONE, SUBMITTED)
        if record.state == DONE:
            store = ReportStore(tmp_path / "svc" / "store")
            assert store.contains(record.report_key)

    def test_worker_drains_and_exits_zero_on_sigterm(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=0) as (client, _):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.core.cli", "worker",
                 "--coordinator", client.base_url, "--id", "drain-w"],
                env=_cli_env(), cwd=REPO_ROOT, stderr=subprocess.PIPE,
                text=True)
            try:
                _wait_for_line(proc.stderr, "pulling from")
                job = client.submit(APP, PARAMS)["job"]
                final = client.wait(job["id"], timeout=60)
                assert final["state"] == DONE and final["worker"] == "drain-w"
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=30) == 0
                remains = proc.stderr.read()
                assert "drained" in remains
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(10)
