"""Contract suite for the job queue (`repro.service.queue.JobQueue`).

The contract covers what the daemon and the fleet coordinator
actually rely on:

* crash/restart recovery — local (``worker=None``) claims requeue
  immediately on reopen, remote leases survive until they expire;
* lease mechanics — heartbeats extend, expiry redelivers, a lost lease
  answers ``None``;
* exactly-once claiming — concurrent pulls over one queue hand each
  job to exactly one claimant.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from contextlib import closing

import pytest

from repro.service.queue import (
    DONE,
    FAILED,
    RUNNING,
    SUBMITTED,
    Job,
    JobQueue,
)


@pytest.fixture
def queue_factory(tmp_path):
    """Reopenable factory over one queue directory."""
    opened = []

    def factory():
        queue = JobQueue(tmp_path / "queue")
        opened.append(queue)
        return queue

    yield factory
    for queue in opened:
        queue.close()


def _submit(queue, n=1, key=None):
    return [queue.submit("app", {"i": i}, {"cfg": True},
                         key if key is not None else f"key{i}")
            for i in range(n)]


class TestQueueContract:
    def test_lifecycle_persists_across_reopen(self, queue_factory):
        queue = queue_factory()
        (job,) = _submit(queue)
        assert job.state == SUBMITTED
        claimed = queue.claim_next()
        assert claimed.id == job.id and claimed.state == RUNNING
        queue.mark_done(claimed, "finalkey")
        reloaded = queue_factory()
        assert reloaded.get(job.id).state == DONE
        assert reloaded.get(job.id).report_key == "finalkey"
        assert reloaded.counts()[DONE] == 1

    def test_claims_are_oldest_first(self, queue_factory):
        queue = queue_factory()
        jobs = _submit(queue, n=3)
        assert [queue.claim_next().id for _ in range(3)] == \
            [j.id for j in jobs]
        assert queue.claim_next() is None

    def test_local_running_jobs_requeue_on_restart(self, queue_factory):
        queue = queue_factory()
        _submit(queue, n=2)
        queue.claim_next()  # local claim; the "daemon" dies here
        survivor = queue_factory()
        assert survivor.get("job-000001").state == SUBMITTED
        assert survivor.counts() == {SUBMITTED: 2, RUNNING: 0,
                                     DONE: 0, FAILED: 0}
        reclaimed = survivor.claim_next()
        assert reclaimed.id == "job-000001" and reclaimed.attempts == 2

    def test_live_remote_lease_survives_restart(self, queue_factory):
        queue = queue_factory()
        _submit(queue)
        job = queue.claim_next(worker="w1", lease_seconds=60.0)
        assert job.worker == "w1" and job.lease_expires is not None
        survivor = queue_factory()
        # The remote worker is still executing: leave its claim alone.
        reloaded = survivor.get(job.id)
        assert reloaded.state == RUNNING and reloaded.worker == "w1"

    def test_expired_remote_lease_requeues_on_restart(self, queue_factory):
        queue = queue_factory()
        _submit(queue)
        queue.claim_next(worker="w1", lease_seconds=0.01)
        time.sleep(0.03)
        survivor = queue_factory()
        job = survivor.get("job-000001")
        assert job.state == SUBMITTED
        assert job.worker is None and job.lease_expires is None

    def test_expire_leases_requeues_for_redelivery(self, queue_factory):
        queue = queue_factory()
        _submit(queue, n=2)
        held = queue.claim_next(worker="w1", lease_seconds=0.01)
        kept = queue.claim_next(worker="w2", lease_seconds=60.0)
        time.sleep(0.03)
        expired = queue.expire_leases()
        assert [j.id for j in expired] == [held.id]
        assert queue.get(held.id).state == SUBMITTED
        assert queue.get(kept.id).state == RUNNING
        # Redelivery increments attempts on the next claim.
        redelivered = queue.claim_job(held.id, worker="w3",
                                      lease_seconds=60.0)
        assert redelivered.attempts == 2 and redelivered.worker == "w3"

    def test_heartbeat_extends_live_lease_only(self, queue_factory):
        queue = queue_factory()
        _submit(queue)
        job = queue.claim_next(worker="w1", lease_seconds=5.0)
        before = job.lease_expires
        time.sleep(0.01)
        extended = queue.heartbeat(job.id, "w1", 5.0)
        assert extended.lease_expires > before
        # Wrong worker, or a lease already lost, answers None.
        assert queue.heartbeat(job.id, "w2", 5.0) is None
        queue.expire_leases(now=time.time() + 10.0)
        assert queue.heartbeat(job.id, "w1", 5.0) is None

    def test_claim_job_races_safely(self, queue_factory):
        queue = queue_factory()
        (job,) = _submit(queue)
        assert queue.claim_job(job.id, worker="w1").worker == "w1"
        assert queue.claim_job(job.id, worker="w2") is None
        assert queue.claim_job("job-does-not-exist") is None

    def test_concurrent_pulls_yield_each_job_exactly_once(
            self, queue_factory):
        queue = queue_factory()
        jobs = _submit(queue, n=24)
        claimed: list[str] = []
        lock = threading.Lock()

        def puller(worker_id):
            while True:
                job = queue.claim_next(worker=worker_id, lease_seconds=60.0)
                if job is None:
                    return
                with lock:
                    claimed.append(job.id)

        threads = [threading.Thread(target=puller, args=(f"w{i}",))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert sorted(claimed) == sorted(j.id for j in jobs)
        assert len(claimed) == len(set(claimed)) == 24

    def test_requeue_preserves_attempts(self, queue_factory):
        queue = queue_factory()
        _submit(queue)
        job = queue.claim_next(worker="w1", lease_seconds=60.0)
        queue.requeue(job)
        assert job.state == SUBMITTED and job.attempts == 1
        again = queue.claim_next(worker="w2", lease_seconds=60.0)
        assert again.id == job.id and again.attempts == 2

    def test_failed_state_and_error_survive_restart(self, queue_factory):
        queue = queue_factory()
        _submit(queue)
        job = queue.claim_next()
        queue.mark_failed(job, "KeyError: boom")
        reloaded = queue_factory()
        assert reloaded.get(job.id).state == FAILED
        assert reloaded.get(job.id).error == "KeyError: boom"

    def test_sequence_continues_after_restart(self, queue_factory):
        queue = queue_factory()
        _submit(queue, n=2)
        reloaded = queue_factory()
        job = reloaded.submit("app", {}, {}, "k")
        assert job.id == "job-000003"

    def test_claims_stay_oldest_first_past_job_999999(self, queue_factory,
                                                       tmp_path):
        queue_factory().close()
        last = Job(id="job-999998", workload="app", params={}, config={},
                   report_key="k", state=DONE)
        with closing(sqlite3.connect(tmp_path / "queue" / "queue.db")) \
                as conn, conn:
            conn.execute("INSERT INTO jobs VALUES (999998, 'done', ?)",
                         (json.dumps(last.to_json()),))
        queue = queue_factory()
        ids = [job.id for job in _submit(queue, n=3)]
        assert ids == ["job-999999", "job-1000000", "job-1000001"]
        assert [job.id for job in queue.jobs()] == [last.id, *ids]
        assert [queue.claim_next().id for _ in range(3)] == ids

    def test_queue_db_of_the_id_layout_migrates_in_place(self, tmp_path):
        now = time.time()

        def job(seq, state, **fields):
            return Job(id=f"job-{seq:06d}", workload="app",
                       params={"i": seq}, config={}, report_key=f"key{seq}",
                       state=state, **fields)

        # Rows of the layout before user_version 1, not in id order.
        records = [
            job(1, DONE, attempts=1, claimed=now),
            job(2, RUNNING, attempts=2, claimed=now, worker="w1",
                lease_expires=now + 60.0),
            job(999_999, SUBMITTED),
            job(1_000_000, SUBMITTED, attempts=1, error="KeyError: boom"),
            job(3, SUBMITTED),
        ]
        (tmp_path / "queue").mkdir()
        with closing(sqlite3.connect(tmp_path / "queue" / "queue.db")) \
                as conn, conn:
            conn.execute("CREATE TABLE jobs ("
                         "  id TEXT PRIMARY KEY, data TEXT NOT NULL)")
            conn.executemany(
                "INSERT INTO jobs VALUES (?, ?)",
                [(record.id, json.dumps(record.to_json()))
                 for record in records] + [("job-000004", "{truncated")])
        queue = JobQueue(tmp_path / "queue")
        try:
            assert queue.counts() == {SUBMITTED: 3, RUNNING: 1,
                                      DONE: 1, FAILED: 0}
            ordered = sorted(records, key=lambda record: int(record.id[4:]))
            assert [kept.to_json() for kept in queue.jobs()] == \
                [record.to_json() for record in ordered]
            held = queue.get("job-000002")
            assert held.state == RUNNING and held.worker == "w1"
            assert held.lease_expires == now + 60.0 and held.attempts == 2
            claims = [queue.claim_next() for _ in range(3)]
            assert [claimed.id for claimed in claims] == \
                ["job-000003", "job-999999", "job-1000000"]
            assert claims[-1].attempts == 2
            assert queue.submit("app", {}, {}, "k").id == "job-1000001"
        finally:
            queue.close()
        with closing(sqlite3.connect(tmp_path / "queue" / "queue.db")) \
                as conn:
            assert conn.execute("PRAGMA user_version").fetchone() == (1,)

    def test_born_done_submission(self, queue_factory):
        queue = queue_factory()
        job = queue.submit("app", {}, {}, "cachedkey", state=DONE)
        assert job.state == DONE
        assert queue.claim_next() is None
        assert queue.counts()[DONE] == 1

    def test_active_leases_counts_live_remote_claims(self, queue_factory):
        queue = queue_factory()
        _submit(queue, n=3)
        queue.claim_next()  # local: not a lease
        queue.claim_next(worker="w1", lease_seconds=60.0)
        queue.claim_next(worker="w2", lease_seconds=0.01)
        assert queue.active_leases() == 2
        assert queue.active_leases(now=time.time() + 1.0) == 1

    def test_depth_counts_only_waiting_jobs(self, queue_factory):
        queue = queue_factory()
        _submit(queue, n=2)
        queue.claim_next()
        assert queue.depth() == 1
