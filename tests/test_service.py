"""Tests for the persistent analysis service (`repro.service`).

The contracts that keep the daemon honest:

* a fetched report is **byte-identical** to the serial CLI report for
  the same workload/config — the service is a front end, never a
  different measurement;
* a duplicate submission of an unchanged workload is served from the
  report store without executing a single stage job, observably
  (service counters + exec metrics), never silently;
* the job queue survives a daemon crash: jobs found ``running`` at
  startup are requeued and re-executed;
* ``/metrics`` exposes nonzero queue/job counters in Prometheus text.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import re
import sqlite3
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

import repro.obs as obs
from repro.apps.base import registry
from repro.core.cli import _load_workloads, main
from repro.core.diogenes import Diogenes, DiogenesConfig
from repro.core.jsonio import dumps_report
from repro.exec.fingerprint import config_to_json
from repro.exec.jobs import WorkloadSpec
from repro.service import (
    DONE,
    FAILED,
    RUNNING,
    SUBMITTED,
    Job,
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

#: Ids no job can have: a 404, never an exception of the parse.
MALFORMED_JOB_IDS = ("job-abc", "job-1", "job-", "job-" + "9" * 25)

#: Three small independent workloads for the concurrency test.
CONCURRENT_APPS = [
    ("synthetic-unnecessary-sync", {"iterations": 4}),
    ("synthetic-misplaced-sync", {"iterations": 3}),
    ("synthetic-duplicate-transfer", {"iterations": 3, "elements": 2048}),
]

_serial_cache: dict[tuple, str] = {}


def _serial_json(name: str, params: dict) -> str:
    """Reference bytes from the serial CLI path, memoised per app."""
    cache_key = (name, tuple(sorted(params.items())))
    if cache_key not in _serial_cache:
        report = Diogenes(registry.create(name, **params)).run()
        _serial_cache[cache_key] = dumps_report(report)
    return _serial_cache[cache_key]


def _metric_value(text: str, name: str, **labels) -> float | None:
    """Read one sample from Prometheus exposition text."""
    for line in text.splitlines():
        match = re.match(rf"{re.escape(name)}(?:{{(.*)}})? (.+)$", line)
        if not match:
            continue
        found = dict(re.findall(r'(\w+)="([^"]*)"', match.group(1) or ""))
        if all(found.get(k) == str(v) for k, v in labels.items()):
            return float(match.group(2))
    return None


def _metric_sum(text: str, name: str) -> float:
    """Sum of every labelled series of one counter in Prometheus text."""
    return sum(
        float(match.group(1))
        for line in text.splitlines()
        if (match := re.match(rf"{re.escape(name)}(?:{{[^}}]*}})? (.+)$",
                              line)))


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
            pass  # already stopped by the test
        client.close()
        thread.join(15)
        assert not thread.is_alive(), "daemon did not shut down cleanly"


@pytest.fixture
def service(tmp_path):
    with running_daemon(tmp_path / "svc") as (client, daemon):
        yield client, daemon


# ----------------------------------------------------------------------
# Job queue: persistence and crash-safe resume
# ----------------------------------------------------------------------
class TestJobQueue:
    def _submit(self, queue, n=1):
        return [queue.submit(APP, PARAMS, {"cfg": True}, f"key{i}")
                for i in range(n)]

    def test_submit_claim_done_cycle_persists(self, tmp_path):
        queue = JobQueue(tmp_path)
        (job,) = self._submit(queue)
        assert job.state == SUBMITTED and job.id == "job-000001"
        claimed = queue.claim_next()
        assert claimed.id == job.id and claimed.state == RUNNING
        queue.mark_done(claimed, "finalkey")
        # A brand-new instance reads the same state back from disk.
        reloaded = JobQueue(tmp_path)
        assert reloaded.get(job.id).state == DONE
        assert reloaded.get(job.id).report_key == "finalkey"

    def test_claims_are_oldest_first(self, tmp_path):
        queue = JobQueue(tmp_path)
        jobs = self._submit(queue, n=3)
        assert [queue.claim_next().id for _ in range(3)] == \
            [j.id for j in jobs]
        assert queue.claim_next() is None

    def test_running_jobs_requeued_after_crash(self, tmp_path):
        queue = JobQueue(tmp_path)
        self._submit(queue, n=2)
        queue.claim_next()  # job-000001 now "running"; daemon dies here
        survivor = JobQueue(tmp_path)  # simulated restart
        assert survivor.get("job-000001").state == SUBMITTED
        assert survivor.counts() == {SUBMITTED: 2, RUNNING: 0,
                                     DONE: 0, FAILED: 0}
        # The requeued job is claimable again, attempts preserved.
        reclaimed = survivor.claim_next()
        assert reclaimed.id == "job-000001" and reclaimed.attempts == 2

    def test_failed_state_and_error_survive_restart(self, tmp_path):
        queue = JobQueue(tmp_path)
        self._submit(queue)
        job = queue.claim_next()
        queue.mark_failed(job, "KeyError: boom")
        reloaded = JobQueue(tmp_path)
        assert reloaded.get(job.id).state == FAILED
        assert reloaded.get(job.id).error == "KeyError: boom"

    def test_sequence_continues_after_restart(self, tmp_path):
        queue = JobQueue(tmp_path)
        self._submit(queue, n=2)
        reloaded = JobQueue(tmp_path)
        job = reloaded.submit(APP, PARAMS, {}, "k")
        assert job.id == "job-000003"

    def test_unreadable_job_row_is_skipped(self, tmp_path):
        queue = JobQueue(tmp_path)
        self._submit(queue)
        with sqlite3.connect(tmp_path / "queue.db") as conn:
            conn.execute("INSERT INTO jobs VALUES (999999, 'submitted', "
                         "'{truncated')")
        reloaded = JobQueue(tmp_path)
        assert len(reloaded.jobs()) == 1
        # The read that skipped the row deleted it: no phantom job is
        # left counting against --max-queue, now or after a reopen.
        assert reloaded.counts()[SUBMITTED] == 1
        assert JobQueue(tmp_path).depth() == 1

    def test_unreadable_row_keeps_its_job_id(self, tmp_path):
        # Report traces are stored per job id, first one kept: a reused
        # id could serve a new job the old job's trace.
        queue = JobQueue(tmp_path)
        self._submit(queue, n=2)
        with sqlite3.connect(tmp_path / "queue.db") as conn:
            conn.execute("UPDATE jobs SET data = '{truncated' WHERE seq = 2")
        assert [job.id for job in queue.jobs()] == ["job-000001"]
        assert queue.get("job-000002") is None
        assert queue.counts()[SUBMITTED] == 1
        assert queue.submit(APP, PARAMS, {}, "k").id == "job-000003"
        reopened = JobQueue(tmp_path)
        assert reopened.counts()[SUBMITTED] == 2
        assert [job.id for job in reopened.jobs()] == \
            ["job-000001", "job-000003"]
        assert reopened.submit(APP, PARAMS, {}, "k").id == "job-000004"

    def test_depth_counts_only_waiting_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        self._submit(queue, n=2)
        queue.claim_next()
        assert queue.depth() == 1


# ----------------------------------------------------------------------
# Report store: identity, envelope hygiene, history
# ----------------------------------------------------------------------
class TestReportStore:
    def _identity(self, params=PARAMS, config=None):
        spec = WorkloadSpec.from_params(APP, params)
        return report_identity(spec, config or DiogenesConfig())

    def test_identity_is_stable_and_param_sensitive(self):
        assert self._identity().key() == self._identity().key()
        assert self._identity().key() != \
            self._identity(params={"iterations": 5}).key()
        assert self._identity().key() != self._identity(
            config=DiogenesConfig(tracing_probe_overhead=9e-6)).key()

    def test_put_get_roundtrip_and_history(self, tmp_path):
        store = ReportStore(tmp_path)
        identity = self._identity()
        report = {"schema_version": 1, "workload": APP, "problems": []}
        key = store.put(identity, report, job_id="job-000001")
        assert key == identity.key()
        assert store.get(key) == report
        assert store.contains(key)
        (entry,) = store.history()
        assert entry["workload"] == APP
        assert entry["key"] == key
        assert entry["job_id"] == "job-000001"
        assert entry["schema_version"] == 1

    def test_refuses_unstamped_report(self, tmp_path):
        store = ReportStore(tmp_path)
        with pytest.raises(ValueError, match="schema_version"):
            store.put(self._identity(), {"workload": APP})
        assert len(store) == 0

    def test_foreign_envelope_reads_as_miss(self, tmp_path):
        store = ReportStore(tmp_path)
        key = store.put(self._identity(), {"schema_version": 1})
        store.close()
        with sqlite3.connect(tmp_path / "store.db") as conn:
            conn.execute("PRAGMA user_version = -1")
        assert ReportStore(tmp_path).get(key) is None

    def test_history_filters_by_workload(self, tmp_path):
        store = ReportStore(tmp_path)
        store.put(self._identity(), {"schema_version": 1})
        other = report_identity(
            WorkloadSpec.from_params("synthetic-quiet", {}), DiogenesConfig())
        store.put(other, {"schema_version": 1})
        assert len(store.history()) == 2
        assert [e["workload"] for e in store.history("synthetic-quiet")] == \
            ["synthetic-quiet"]

    def test_truncated_history_line_is_skipped(self, tmp_path):
        store = ReportStore(tmp_path)
        store.put(self._identity(), {"schema_version": 1})
        with sqlite3.connect(tmp_path / "store.db") as conn:
            conn.execute("INSERT INTO history VALUES (2, ?)",
                         ('{"seq": 1, "workload":',))
        assert len(store.history()) == 1


# ----------------------------------------------------------------------
# Daemon integration
# ----------------------------------------------------------------------
class TestDaemonRoundTrip:
    def test_fetched_report_is_byte_identical_to_serial_cli(self, service):
        client, _ = service
        serial = _serial_json(APP, PARAMS)
        job = client.submit(APP, PARAMS)["job"]
        job = client.wait(job["id"])
        fetched = client.report(job["report_key"])
        assert json.dumps(fetched, indent=2) == serial

    def test_duplicate_submission_served_from_store(self, service):
        client, _ = service
        first = client.submit(APP, PARAMS)
        assert first["cached"] is False
        client.wait(first["job"]["id"])
        executed_before = _metric_sum(client.metrics(),
                                      "repro_exec_jobs_executed")
        assert executed_before > 0  # the first run did execute stages

        second = client.submit(APP, PARAMS)
        assert second["cached"] is True
        assert second["job"]["state"] == DONE  # born done, never queued
        assert second["job"]["report_key"] == first["job"]["report_key"]
        metrics = client.metrics()
        assert _metric_value(metrics, "repro_service_store_hits") == 1
        executed_after = _metric_sum(metrics, "repro_exec_jobs_executed")
        assert executed_after == executed_before, \
            "a store-served submission must not execute any stage job"
        # And the two reports are literally the same stored bytes.
        assert client.report(second["job"]["report_key"]) == \
            client.report(first["job"]["report_key"])

    def test_concurrent_submissions_match_serial(self, tmp_path):
        # Reference bytes first (obs off, no daemon in the process yet).
        serial = {name: _serial_json(name, params)
                  for name, params in CONCURRENT_APPS}
        with running_daemon(tmp_path / "svc", workers=3) as (client, _):
            submitted = [client.submit(name, params)["job"]
                         for name, params in CONCURRENT_APPS]
            finished = [client.wait(job["id"]) for job in submitted]
            for (name, _params), job in zip(CONCURRENT_APPS, finished):
                fetched = client.report(job["report_key"])
                assert json.dumps(fetched, indent=2) == serial[name], name

    def test_queue_survives_daemon_kill_and_restart(self, tmp_path):
        data_dir = tmp_path / "svc"
        config = DiogenesConfig()
        spec = WorkloadSpec.from_params(APP, PARAMS)
        key = report_identity(spec, config).key()
        # Simulate a daemon that died mid-job: the queue directory holds
        # one job stuck in "running" state.
        queue = JobQueue(data_dir / "queue")
        job = queue.submit(APP, PARAMS, config_to_json(config), key)
        queue.claim_next()
        assert queue.get(job.id).state == RUNNING
        del queue

        with running_daemon(data_dir) as (client, _):
            finished = client.wait(job.id)
        assert finished["state"] == DONE
        assert finished["attempts"] == 2  # the crashed claim + the re-run
        assert json.dumps(ReportStore(data_dir / "store").get(key),
                          indent=2) == _serial_json(APP, PARAMS)

    def test_metrics_exposes_nonzero_queue_and_job_counters(self, service):
        client, _ = service
        client.wait(client.submit(APP, PARAMS)["job"]["id"])
        metrics = client.metrics()
        assert _metric_value(metrics, "repro_service_jobs",
                             state="done") == 1
        assert _metric_value(metrics, "repro_service_jobs_submitted",
                             workload=APP) == 1
        assert _metric_value(metrics, "repro_service_queue_depth") == 0
        assert _metric_value(metrics, "repro_service_store_reports") == 1
        assert _metric_value(metrics, "repro_service_requests",
                             route="submit", status="200") == 1
        # The pipeline's own counters flow through the same registry.
        assert "repro_exec_jobs_executed" in metrics

    def test_health_and_history_endpoints(self, service):
        client, _ = service
        assert client.health()["status"] == "ok"
        client.wait(client.submit(APP, PARAMS)["job"]["id"])
        history = client.history()
        assert [e["workload"] for e in history] == [APP]
        assert client.history("no-such-workload") == []
        assert client.health()["jobs"]["done"] == 1

    def test_failed_job_reports_its_error(self, service):
        client, daemon = service
        # Bad params are normally rejected at submit time; enqueue a
        # poisoned job directly so a *worker* hits the failure path.
        bad = daemon.queue.submit("synthetic-quiet", {"bogus_arg": 1},
                                  config_to_json(DiogenesConfig()), "k")
        with pytest.raises(ServiceError, match="failed"):
            client.wait(bad.id, timeout=30)
        final = client.job(bad.id)
        assert final["state"] == FAILED
        assert "TypeError" in final["error"]


class TestTraceAndEvents:
    """Distributed traces and the live event stream (`/trace`, `/events`)."""

    def test_executed_job_stores_a_connected_trace(self, service):
        client, _ = service
        job = client.wait(client.submit(APP, PARAMS)["job"]["id"])
        trace = client.trace(job["id"])
        assert trace["job_id"] == job["id"]
        spans = trace["spans"]
        roots = [sp for sp in spans if sp.get("parent_id") is None]
        assert [sp["name"] for sp in roots] == ["service.job"]
        assert roots[0]["attrs"]["job"] == job["id"]
        # Every span reachable from the request span: one tree.
        by_id = {sp["span_id"]: sp for sp in spans}
        for sp in spans:
            node = sp
            while node.get("parent_id") is not None:
                node = by_id[node["parent_id"]]
            assert node["name"] == "service.job"
        stage_names = {sp["name"] for sp in spans
                       if sp["name"].startswith("stage.")}
        assert "stage.stage1_baseline" in stage_names
        chrome = trace["chrome_trace"]
        assert chrome["otherData"]["trace_id"] == trace["trace_id"]
        assert any(e.get("ph") == "X" for e in chrome["traceEvents"])

    def test_store_served_job_has_no_trace(self, service):
        client, _ = service
        client.wait(client.submit(APP, PARAMS)["job"]["id"])
        cached = client.submit(APP, PARAMS)["job"]
        with pytest.raises(ServiceError, match="no trace stored") as info:
            client.trace(cached["id"])
        assert info.value.status == 404

    def test_events_stream_reaches_done(self, service):
        client, _ = service
        job = client.submit(APP, PARAMS)["job"]
        collected, after = [], 0
        for _ in range(100):
            resp = client.events(job["id"], after=after, timeout=5)
            collected += resp["events"]
            after = resp["last_seq"]
            if resp["done"]:
                break
        names = [e["event"] for e in collected]
        assert names[0] == "job.submitted"
        assert "job.running" in names and names[-1] == "job.done"
        stage_events = [e for e in collected if e["event"] == "stage.done"]
        assert len(stage_events) == 5  # one per stage run
        assert {e["stage"] for e in stage_events} == {
            "stage1", "stage2", "stage3_memtrace", "stage3_hashing",
            "stage4"}
        assert all(e["seq"] > 0 for e in collected)
        assert resp["state"] == DONE
        # The trace and the stream agree on the trace id.
        (running,) = [e for e in collected if e["event"] == "job.running"]
        assert client.trace(job["id"])["trace_id"] == running["trace_id"]

    def test_events_long_poll_returns_empty_on_timeout(self, service):
        client, _ = service
        job = client.wait(client.submit(APP, PARAMS)["job"]["id"])
        resp = client.events(job["id"], after=10_000, timeout=0.2)
        assert resp["events"] == [] and resp["done"] is True

    def test_events_validation(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="job=") as info:
            client._request("GET", "/events")
        assert info.value.status == 400
        with pytest.raises(ServiceError, match="no such job") as info:
            client.events("job-424242")
        assert info.value.status == 404
        client.submit(APP, PARAMS)
        for job_id in MALFORMED_JOB_IDS:  # job-1 is not job-000001
            with pytest.raises(ServiceError, match="no such job") as info:
                client.events(job_id)
            assert info.value.status == 404
        with pytest.raises(ServiceError, match="bad events query") as info:
            client._request("GET", "/events?job=job-000001&after=nope")
        assert info.value.status == 400

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_events_rejects_a_non_finite_timeout(self, service, timeout):
        client, _ = service
        job = client.submit(APP, PARAMS)["job"]
        with pytest.raises(ServiceError, match="finite") as info:
            ServiceClient(client.base_url, timeout=5, retries=0)._request(
                "GET", f"/events?job={job['id']}&timeout={timeout}")
        assert info.value.status == 400

    def test_failed_job_dumps_flight_recording(self, service, tmp_path):
        client, daemon = service
        bad = daemon.queue.submit("synthetic-quiet", {"bogus_arg": 1},
                                  config_to_json(DiogenesConfig()), "k")
        with pytest.raises(ServiceError, match="failed"):
            client.wait(bad.id, timeout=30)
        flight = pathlib.Path(daemon.data_dir) / "flight" / f"{bad.id}.jsonl"
        assert flight.is_file()
        events = [json.loads(li)
                  for li in flight.read_text().splitlines()]
        names = [e["event"] for e in events]
        assert "job.running" in names and "job.failed" in names
        (failed,) = [e for e in events if e["event"] == "job.failed"]
        assert "TypeError" in failed["error"]
        assert all("trace_id" in e for e in events)

    def test_tail_cli_streams_to_done(self, service, capsys):
        client, _ = service
        job = client.submit(APP, PARAMS)["job"]
        assert main(["tail", job["id"], "--url", client.base_url]) == 0
        captured = capsys.readouterr()
        assert "job.running" in captured.out
        assert "stage.done" in captured.out
        assert "job.done" in captured.out
        assert f"job {job['id']} done" in captured.err

    def test_tail_cli_exit_code_on_failed_job(self, service, capsys):
        client, daemon = service
        bad = daemon.queue.submit("synthetic-quiet", {"bogus_arg": 1},
                                  config_to_json(DiogenesConfig()), "k")
        assert main(["tail", bad.id, "--url", client.base_url]) == 1
        assert "job.failed" in capsys.readouterr().out

    def test_fetch_trace_out_cli(self, service, tmp_path, capsys):
        client, _ = service
        job = client.wait(client.submit(APP, PARAMS)["job"]["id"])
        out = tmp_path / "trace.json"
        assert main(["fetch", job["id"], "--url", client.base_url,
                     "--out", str(tmp_path / "r.json"),
                     "--trace-out", str(out)]) == 0
        assert "trace written" in capsys.readouterr().err
        chrome = json.loads(out.read_text())
        assert {e["name"] for e in chrome["traceEvents"]
                if e.get("ph") == "X"} >= {"service.job", "exec.run"}
        # A report key is not a job id: refuse rather than guess.
        with pytest.raises(SystemExit, match="job id"):
            main(["fetch", job["report_key"], "--url", client.base_url,
                  "--trace-out", str(out)])


class TestStreamingAndDashboard:
    def _collect_events(self, client, job_id, max_polls=100):
        collected, after = [], 0
        for _ in range(max_polls):
            resp = client.events(job_id, after=after, timeout=5)
            collected += resp["events"]
            after = resp["last_seq"]
            if resp["done"]:
                return collected
        raise AssertionError("job never reached a terminal state")

    def test_events_carry_rolling_and_final_snapshots(self, service):
        client, _ = service
        job = client.submit(APP, PARAMS, force=True)["job"]
        events = self._collect_events(client, job["id"])
        snaps = [e for e in events if e["event"] == "stream.snapshot"]
        assert snaps, "executed jobs must stream snapshots"
        totals = [s["events_seen"]["total"] for s in snaps]
        assert totals == sorted(totals), totals
        final = snaps[-1]
        assert final["final"] is True
        assert final["problem_count"] >= 1
        # The final snapshot's problems are the stored report's
        # problems, byte for byte.
        done = client.wait(job["id"])
        stored = client.report(done["report_key"])
        assert (json.dumps(final["problems"], sort_keys=True)
                == json.dumps(stored["problems"], sort_keys=True))
        # Snapshots precede job.done in the stream.
        names = [e["event"] for e in events]
        assert names.index("stream.snapshot") < names.index("job.done")

    def test_midrun_snapshot_arrives_before_completion(self, service):
        client, _ = service
        # Big enough to run for a perceptible fraction of a second, so
        # long-polls observe the job mid-flight.
        job = client.submit(APP, {"iterations": 2000}, force=True)["job"]
        saw_midrun_problems = False
        after = 0
        for _ in range(200):
            resp = client.events(job["id"], after=after, timeout=5)
            after = resp["last_seq"]
            for ev in resp["events"]:
                if (ev["event"] == "stream.snapshot"
                        and not ev["final"] and ev["problem_count"] >= 1
                        and resp["state"] == RUNNING):
                    saw_midrun_problems = True
            if resp["done"]:
                break
        assert saw_midrun_problems, (
            "ranked problems must be visible while the job is running")

    def test_dashboard_served_as_html(self, service):
        client, _ = service
        html = client._request("GET", "/dashboard")
        assert isinstance(html, str)
        for marker in ("<!DOCTYPE html>", "Ranked problems",
                       "stream.snapshot", "events.dropped", "/events?job="):
            assert marker in html

    def test_ring_overflow_emits_dropped_marker_and_metric(
            self, service, monkeypatch):
        client, daemon = service
        monkeypatch.setattr("repro.service.daemon._EVENTS_PER_JOB", 5)
        job = client.wait(client.submit(APP, PARAMS, force=True)["job"]["id"])
        resp = client.events(job["id"], after=0, timeout=1)
        first = resp["events"][0]
        assert first["event"] == "events.dropped"
        assert first["count"] >= 1
        assert first["count"] == first["seq"]  # after=0: all before survive
        # The surviving tail is contiguous after the marker.
        seqs = [e["seq"] for e in resp["events"]]
        assert seqs == list(range(first["seq"], first["seq"] + len(seqs)))
        assert resp["events"][-1]["event"] == "job.done"
        # A cursor already past the gap sees no marker.
        resp = client.events(job["id"], after=first["seq"], timeout=1)
        assert all(e["event"] != "events.dropped" for e in resp["events"])
        # The counter only sees drops that happen inside the daemon's
        # observability session (submit-time publishes precede it), so
        # assert presence and direction rather than an exact count.
        dropped = _metric_sum(client.metrics(),
                              "repro_service_events_dropped_total")
        assert dropped >= 1

    def test_finished_streams_shrink_to_their_terminal_event(self, tmp_path):
        from repro.service.daemon import _FINISHED_STREAMS

        usual = ["job.submitted", "job.leased", "job.running",
                 *["stage.done"] * 5, "stream.snapshot", "stream.snapshot",
                 "job.done"]
        daemon = ServiceDaemon(tmp_path / "svc", workers=0)
        try:
            for i in range(1, 301):
                for name in usual:
                    daemon._publish(f"job-{i:06d}", name)
            retained = sum(map(len, daemon._events.values()))
            assert retained <= _FINISHED_STREAMS * len(usual) + 300
            oldest = daemon._job_events("job-000001", 0)
            assert [e["event"] for e in oldest] == ["events.dropped",
                                                    "job.done"]
            assert oldest[0]["count"] == len(usual) - 1
            newest = daemon._job_events("job-000300", 0)
            assert [e["event"] for e in newest] == usual
        finally:
            daemon.queue.close()
            daemon.store.close()

    def test_tail_of_an_evicted_job_exits_with_its_fate(
            self, service, capsys, monkeypatch):
        client, _ = service
        monkeypatch.setattr("repro.service.daemon._FINISHED_STREAMS", 1)
        evicted = client.wait(client.submit(APP, PARAMS)["job"]["id"])
        client.wait(client.submit(APP, {"iterations": 3})["job"]["id"])
        names = [e["event"] for e in client.events(evicted["id"])["events"]]
        assert names == ["events.dropped", "job.done"]
        assert main(["tail", evicted["id"], "--url", client.base_url]) == 0
        captured = capsys.readouterr()
        assert "events dropped" in captured.err
        assert "job.done" in captured.out

    def test_tail_cli_json_emits_ndjson(self, service, capsys):
        client, _ = service
        job = client.submit(APP, PARAMS, force=True)["job"]
        assert main(["tail", job["id"], "--json",
                     "--url", client.base_url]) == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines()]
        names = [e["event"] for e in events]
        assert "job.running" in names and "job.done" in names
        assert "stream.snapshot" in names

    def test_tail_cli_problems_renders_ranked_table(self, service, capsys):
        client, _ = service
        job = client.submit(APP, PARAMS, force=True)["job"]
        assert main(["tail", job["id"], "--problems",
                     "--url", client.base_url]) == 0
        out = capsys.readouterr().out
        assert "snapshot v" in out and "(final)" in out
        assert "unnecessary_synchronization" in out
        assert "benefit=" in out

    def test_tail_cli_json_and_problems_conflict(self, service):
        client, _ = service
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["tail", "job-000001", "--json", "--problems",
                  "--url", client.base_url])

    def test_tail_cli_warns_on_dropped_events(self, service, capsys,
                                              monkeypatch):
        client, _ = service
        monkeypatch.setattr("repro.service.daemon._EVENTS_PER_JOB", 5)
        job = client.wait(client.submit(APP, PARAMS, force=True)["job"]["id"])
        assert main(["tail", job["id"], "--url", client.base_url]) == 0
        captured = capsys.readouterr()
        assert "events dropped" in captured.err
        assert "events.dropped" not in captured.out  # stderr-only warning


class TestDaemonValidation:
    def test_unknown_workload_is_400(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="unknown workload") as info:
            client.submit("no-such-app", {})
        assert info.value.status == 400

    def test_bad_params_are_400(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="bad params") as info:
            client.submit(APP, {"bogus_arg": 1})
        assert info.value.status == 400

    @pytest.mark.parametrize("name, params, message", [
        ("cumf-als", {"fix": "bogus"}, "fix must be one of"),
        ("replay", {"trace": "no-such-trace"}, "unknown trace"),
    ], ids=["cumf-als-fix", "replay-trace"])
    def test_rejected_param_values_are_400_and_queue_nothing(
            self, service, name, params, message):
        # The workload's constructor raises ValueError: a client error,
        # answered before anything is queued.
        client, _ = service
        with pytest.raises(ServiceError, match=message) as info:
            client.submit(name, params)
        assert info.value.status == 400
        assert client.jobs()["jobs"] == []

    def test_unusable_replay_tag_is_400_and_queues_nothing(self, service,
                                                          tmp_path):
        # A trace tag that cannot key the replay plan is refused at
        # submit, not found by the job's first collection run.
        trace = tmp_path / "bad-tag.json"
        trace.write_text(json.dumps({
            "schema": "diogenes-cupti-activity/1",
            "records": [{"kind": "memcpy", "copy": "h2d", "start": 0.0,
                         "payload": "p", "buffer": {"x": 1}}]}))
        client, _ = service
        with pytest.raises(ServiceError,
                           match="activity record 0: bad 'buffer'") as info:
            client.submit("replay", {"trace": str(trace)})
        assert info.value.status == 400
        assert client.jobs()["jobs"] == []

    def test_retired_config_field_is_400(self, service):
        # Stage 3 always runs as two collection runs: no config field
        # merges them, and a config naming an unknown field is refused.
        client, _ = service
        config = dict(config_to_json(DiogenesConfig()),
                      split_sync_transfer_runs=False)
        with pytest.raises(ServiceError,
                           match="split_sync_transfer_runs") as info:
            client.submit(APP, PARAMS, config=config)
        assert info.value.status == 400

    def test_unknown_report_and_job_are_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="no stored report") as info:
            client.report("deadbeef")
        assert info.value.status == 404
        with pytest.raises(ServiceError, match="no such job"):
            client.job("job-424242")
        client.submit(APP, PARAMS)  # job-1 must not alias job-000001
        for job_id in MALFORMED_JOB_IDS:
            with pytest.raises(ServiceError, match="no such job") as info:
                client.job(job_id)
            assert info.value.status == 404

    def test_unknown_route_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as info:
            client._request("GET", "/no/such/route")
        assert info.value.status == 404

    def test_malformed_submit_bodies_are_400(self, service):
        client, _ = service
        import urllib.request

        request = urllib.request.Request(
            client.base_url + "/submit", method="POST", data=b"{not json")
        with pytest.raises(Exception) as info:
            urllib.request.urlopen(request, timeout=10)
        assert getattr(info.value, "code", None) == 400
        with pytest.raises(ServiceError, match="workload"):
            client._request("POST", "/submit", {"params": {}})

    def test_unreachable_service_fails_with_hint(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError, match="diogenes serve"):
            client.health()


class TestRetiredFileBackend:
    """A data directory the file backend wrote holds its jobs as
    ``queue/job-*.json``; opening it must refuse, never start an empty
    queue beside jobs that would then never run."""

    def _legacy_dir(self, tmp_path):
        data_dir = tmp_path / "svc"
        (data_dir / "queue").mkdir(parents=True)
        (data_dir / "queue" / "job-000001.json").write_text(json.dumps(
            {"id": "job-000001", "workload": APP, "params": PARAMS,
             "config": {}, "report_key": "k", "state": SUBMITTED}))
        return data_dir

    def test_daemon_refuses_a_file_backend_queue(self, tmp_path):
        data_dir = self._legacy_dir(tmp_path)
        with pytest.raises(ValueError, match="job-\\*.json"):
            ServiceDaemon(data_dir, workers=0)
        assert not (data_dir / "queue" / "queue.db").exists()

    def test_serve_exits_with_one_line_naming_the_directory(self, tmp_path):
        data_dir = self._legacy_dir(tmp_path)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.core.cli", "serve", "--port", "0",
             "--data-dir", str(data_dir)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert str(data_dir / "queue") in lines[0]

    def test_backend_flag_accepts_only_sqlite(self, capsys):
        from repro.core.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.backend == "sqlite"
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", "--backend", "file"])
        assert info.value.code == 2
        assert "invalid choice: 'file'" in capsys.readouterr().err


class TestDiffEndpoint:
    def _two_reports(self, client):
        base = client.wait(client.submit(APP, PARAMS)["job"]["id"])
        fixed = client.wait(client.submit(
            APP, {**PARAMS, "fixed": True})["job"]["id"])
        return base["report_key"], fixed["report_key"]

    def test_diff_reports_removed_groups_and_runtime_delta(self, service):
        client, _ = service
        key_a, key_b = self._two_reports(client)
        diff = client.diff(key_a, key_b)
        assert diff["counts"]["fixed"] == 1
        assert diff["counts"]["new"] == diff["counts"]["regressed"] == 0
        assert diff["is_regression"] is False
        (fixed_group,) = [g for g in diff["groups"]
                          if g["status"] == "fixed"]
        assert fixed_group["kind"] == "unnecessary_synchronization"
        assert diff["execution_delta"] < 0
        # The measured speedup agrees with the stored benefit estimate.
        assert abs(-diff["execution_delta"] - diff["recovered_benefit"]) \
            <= 0.25 * diff["recovered_benefit"]

    def test_diff_missing_report_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="no stored report") as info:
            client.diff("feed" * 16, "beef" * 16)
        assert info.value.status == 404

    def test_diff_schema_mismatch_is_409(self, service, tmp_path):
        client, daemon = service
        key_a, key_b = self._two_reports(client)
        # An old stored report (different schema stamp) must refuse
        # loudly instead of diffing garbage.
        report_b = client.report(key_b)
        report_b["schema_version"] = 999
        with sqlite3.connect(pathlib.Path(daemon.data_dir, "store",
                                          "store.db")) as conn:
            conn.execute("UPDATE reports SET body = ? WHERE key = ?",
                         (json.dumps(report_b, indent=2).encode(), key_b))
        with pytest.raises(ServiceError,
                           match="schema") as info:
            client.diff(key_a, key_b)
        assert info.value.status == 409

    def test_diff_needs_both_keys(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="a=<report-key>") as info:
            client._request("GET", "/diff?a=onlyone")
        assert info.value.status == 400


# ----------------------------------------------------------------------
# CLI client commands against a live daemon
# ----------------------------------------------------------------------
class TestServiceCli:
    def test_submit_status_fetch_diff_flow(self, service, tmp_path, capsys):
        client, _ = service
        url = client.base_url
        assert main(["submit", APP, "--param", "iterations=4",
                     "--wait", "--url", url,
                     "--json", str(tmp_path / "base.json")]) == 0
        out = capsys.readouterr().out
        assert "job-000001" in out and "done" in out
        assert (json.loads((tmp_path / "base.json").read_text())
                ["workload"] == APP)
        # Byte-identity straight through the CLI file path.
        assert (tmp_path / "base.json").read_text() == \
            _serial_json(APP, PARAMS)

        assert main(["submit", APP, "--param", "iterations=4",
                     "--param", "fixed=true", "--wait", "--url", url]) == 0
        capsys.readouterr()

        assert main(["status", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "job-000001" in out and "done: 2" in out
        assert main(["status", "job-000001", "--url", url]) == 0
        assert "report key:" in capsys.readouterr().out

        assert main(["fetch", "job-000001", "--url", url,
                     "--out", str(tmp_path / "fetched.json")]) == 0
        assert (tmp_path / "fetched.json").read_text() == \
            _serial_json(APP, PARAMS)

        assert main(["diff", "job-000001", "job-000002", "--url", url,
                     "--json", str(tmp_path / "diff.json")]) == 0
        out = capsys.readouterr().out
        assert "Fixed problem groups (1)" in out
        assert "No regression" in out
        assert json.loads((tmp_path / "diff.json").read_text())[
            "counts"]["fixed"] == 1

    def test_cli_regression_gate_exit_code(self, service, capsys):
        client, _ = service
        url = client.base_url
        base = client.wait(client.submit(APP, PARAMS)["job"]["id"])
        fixed = client.wait(client.submit(
            APP, {**PARAMS, "fixed": True})["job"]["id"])
        # b -> a *introduces* the sync problems: that is the regression.
        assert main(["diff", fixed["report_key"], base["report_key"],
                     "--url", url, "--fail-on-regression"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_surfaces_service_errors(self, service):
        client, _ = service
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["submit", "no-such-app", "--url", client.base_url])

    def test_service_commands_close_their_client(self, service, tmp_path,
                                                  monkeypatch):
        client, _ = service
        job = client.wait(client.submit(APP, PARAMS)["job"]["id"])
        closed = []
        close = ServiceClient.close

        def counting_close(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(ServiceClient, "close", counting_close)
        commands = [
            ["submit", APP, "--param", "iterations=4", "--wait"],
            ["status"],
            ["status", job["id"]],
            ["fetch", job["id"], "--out", str(tmp_path / "r.json")],
            ["tail", job["id"]],
            ["diff", job["id"], job["id"]],
        ]
        for argv in commands:
            assert main(argv + ["--url", client.base_url]) == 0
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["submit", "no-such-app", "--url", client.base_url])
        assert len(closed) == len(commands) + 1
        assert len({id(c) for c in closed}) == len(closed)


# ----------------------------------------------------------------------
# Local workers are one in-process fleet node
# ----------------------------------------------------------------------
class TestInProcessNode:
    STACK_TABLES = ("snapshots", "address_keys", "function_keys")

    def test_intern_tables_stay_bounded_across_jobs(self, tmp_path):
        from repro.instr.stacks import (
            demangle_base_name,
            instruction_address,
            intern_frame,
            intern_table_sizes,
        )

        caps = {"frames": intern_frame,
                "instruction_addresses": instruction_address,
                "demangled_names": demangle_base_name}
        baseline = intern_table_sizes()
        with running_daemon(tmp_path / "svc", workers=2) as (client, _):
            for first in range(0, 20, 2):
                jobs = [client.submit("fuzzed", {"seed": seed,
                                                 "segments": 2})["job"]
                        for seed in (first, first + 1)]
                for job in jobs:
                    assert client.wait(job["id"], timeout=60)["state"] == DONE
                # Between jobs no interning scope is open, and the
                # process-wide tables did not grow.
                sizes = intern_table_sizes()
                for table in self.STACK_TABLES:
                    assert sizes[table] == baseline[table], (first, table)
                for table, cache in caps.items():
                    assert sizes[table] <= cache.cache_info().maxsize

    def test_job_state_stays_on_disk_over_hundreds_of_jobs(self, tmp_path):
        # A long-lived daemon's memory must not grow with its job
        # history: queue.db is the one copy of every job.
        variants = [{"iterations": n} for n in (2, 3, 4)]
        with running_daemon(tmp_path / "svc", workers=1) as (client, _):
            for params in variants:
                job = client.submit(APP, params)["job"]
                assert client.wait(job["id"], timeout=60)["state"] == DONE
            for i in range(300 - len(variants)):
                assert client.submit(APP, variants[i % 3])["cached"]
            queue = JobQueue(tmp_path / "queue")
            try:
                for i in range(300):
                    job = queue.submit(APP, {"i": i}, {}, f"key{i}")
                    queue.mark_done(queue.claim_job(job.id), job.report_key)
                gc.collect()
                live = sum(isinstance(obj, Job) for obj in gc.get_objects())
                assert live <= 10, live
            finally:
                queue.close()

    def test_slots_outnumbering_cores_lose_no_update(self, tmp_path):
        # Four slots on one node, thread switches forced often: every
        # report still matches serial bytes, and the node's completion
        # count (incremented from every slot) loses nothing.
        apps = CONCURRENT_APPS + [("fuzzed", {"seed": seed, "segments": 2})
                                  for seed in range(100, 105)]
        serial = {i: _serial_json(name, params)
                  for i, (name, params) in enumerate(apps)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running_daemon(tmp_path / "svc", workers=4) as (client, _):
                jobs = [client.submit(name, params)["job"]
                        for name, params in apps]
                done = [client.wait(job["id"], timeout=120) for job in jobs]
                for i, job in enumerate(done):
                    fetched = client.report(job["report_key"])
                    assert json.dumps(fetched, indent=2) == serial[i], i
                (node,) = client.fleet_workers()["workers"]
                assert node["jobs_completed"] == len(apps)
        finally:
            sys.setswitchinterval(interval)

    def test_running_job_holds_a_lease_under_the_node_id(self, tmp_path):
        with running_daemon(tmp_path / "svc", workers=1) as (client, daemon):
            listing = client.fleet_workers()
            assert listing["live"] == [daemon.node.worker_id]
            job = client.submit(APP, {"iterations": 2000})["job"]
            for _ in range(400):
                record = client.job(job["id"])
                if record["state"] != SUBMITTED:
                    break
                time.sleep(0.01)
            assert record["state"] == RUNNING, record
            assert record["worker"] == daemon.node.worker_id
            assert record["lease_expires"] > time.time()
            assert client.wait(job["id"], timeout=60)["state"] == DONE

    def test_restarted_daemon_requeues_its_node_jobs_at_once(
            self, tmp_path):
        config = config_to_json(DiogenesConfig())
        daemon = ServiceDaemon(tmp_path / "svc", workers=1)
        node_id = daemon.node.worker_id
        own = daemon.queue.submit(APP, PARAMS, config, "key-own")
        remote = daemon.queue.submit(APP, PARAMS, config, "key-remote")
        assert daemon.fleet.pull(node_id).id == own.id
        assert daemon.fleet.pull("remote-w").id == remote.id
        daemon.queue.close()  # the daemon dies mid-job
        daemon.store.close()
        restarted = ServiceDaemon(tmp_path / "svc", workers=1)
        try:
            assert restarted.node.worker_id == node_id
            record = restarted.queue.get(own.id)
            assert record.state == SUBMITTED and record.attempts == 1
            # A remote worker may still be running its job.
            assert restarted.queue.get(remote.id).state == RUNNING
        finally:
            restarted.queue.close()
            restarted.store.close()

    def test_restart_with_no_slots_still_requeues_the_node_jobs(
            self, tmp_path):
        daemon = ServiceDaemon(tmp_path / "svc", workers=1)
        job = daemon.queue.submit(APP, PARAMS,
                                  config_to_json(DiogenesConfig()), "key")
        assert daemon.fleet.pull(daemon.node.worker_id).id == job.id
        daemon.queue.close()  # the daemon dies mid-job
        daemon.store.close()
        coordinator = ServiceDaemon(tmp_path / "svc", workers=0)
        try:
            record = coordinator.queue.get(job.id)
            assert record.state == SUBMITTED and record.attempts == 1
        finally:
            coordinator.queue.close()
            coordinator.store.close()

    def test_health_answers_while_a_claim_is_held_up(self, tmp_path,
                                                      monkeypatch):
        with running_daemon(tmp_path / "svc", workers=1) as (client, daemon):
            entered, release = threading.Event(), threading.Event()
            pull = daemon.fleet.pull

            def slow_pull(worker_id):
                entered.set()
                release.wait(10)
                return pull(worker_id)

            monkeypatch.setattr(daemon.fleet, "pull", slow_pull)
            try:
                assert entered.wait(5), "the slot never claimed"
                t0 = time.perf_counter()
                assert client.health()["status"] == "ok"
                assert time.perf_counter() - t0 < 0.2
            finally:
                release.set()
            job = client.submit(APP, PARAMS)["job"]
            assert client.wait(job["id"], timeout=60)["state"] == DONE


# ----------------------------------------------------------------------
# One observability session per job; the report store is the only cache
# ----------------------------------------------------------------------
class TestOneSessionPerJob:
    def test_jobs_share_one_ledger_calibration(self, tmp_path, monkeypatch):
        import repro.obs.ledger as ledger

        calls = []
        probe = ledger._calibrate_probe

        def counted(iterations):
            calls.append(iterations)
            return probe(iterations)

        monkeypatch.setattr(ledger, "_calibrate_probe", counted)
        with running_daemon(tmp_path / "svc", workers=1) as (client, _):
            for params in (PARAMS, {"iterations": 3}):
                job = client.submit(APP, params)["job"]
                assert client.wait(job["id"])["state"] == DONE
        assert len(calls) <= 1, calls

    def test_local_stages_record_live_under_exec_run(self, service):
        client, _ = service
        job = client.wait(client.submit(APP, PARAMS)["job"]["id"])
        spans = client.trace(job["id"])["spans"]
        by_id = {sp["span_id"]: sp for sp in spans}
        (stage1,) = [sp for sp in spans
                     if sp["name"] == "stage.stage1_baseline"]
        assert by_id[stage1["parent_id"]]["name"] == "exec.run"
        assert "exec.worker" not in {sp["name"] for sp in spans}

    def test_executed_job_leaves_no_stage_cache(self, service):
        client, daemon = service
        job = client.wait(client.submit(APP, PARAMS)["job"]["id"])
        assert job["state"] == DONE
        assert not (pathlib.Path(daemon.data_dir) / "stage-cache").exists()

    @pytest.mark.parametrize("argv", [
        ["serve", "--cache-dir", "X"],
        ["serve", "--no-cache"],
        ["worker", "--cache-dir", "X"],
        ["worker", "--no-cache"],
    ])
    def test_service_commands_take_no_cache_flags(self, argv, capsys):
        from repro.core.cli import build_parser

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_forced_resubmit_of_a_stored_key_runs_again(self, service):
        client, _ = service
        first = client.wait(client.submit(APP, PARAMS)["job"]["id"])
        forced = client.submit(APP, PARAMS, force=True)
        assert forced["cached"] is False
        job = client.wait(forced["job"]["id"])
        assert job["report_key"] == first["report_key"]
        events = client.events(job["id"], after=0, timeout=1)["events"]
        names = [e["event"] for e in events]
        assert "job.leased" in names
        assert names.count("stage.done") == 5
        trace = client.trace(job["id"])
        assert trace["job_id"] == job["id"]
        assert client.report(job["report_key"]) == \
            client.report(first["report_key"])
