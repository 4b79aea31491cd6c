"""Contract suite for the report store (`repro.service.store.ReportStore`).

The load-bearing clause is byte identity: ``get_bytes`` must return
exactly ``json.dumps(report, indent=2).encode()`` as written at put
time, and ``get`` its ``json.loads`` — that is what makes a report
fetched from the service byte-identical to the serial CLI.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.core.diogenes import DiogenesConfig
from repro.exec.jobs import WorkloadSpec
from repro.service.store import (
    STORE_SCHEMA_VERSION,
    ReportStore,
    report_identity,
)

APP = "synthetic-unnecessary-sync"


def _identity(name=APP, params=None):
    import repro.core.cli as cli

    cli._load_workloads()
    spec = WorkloadSpec.from_params(name, params or {"iterations": 4})
    return report_identity(spec, DiogenesConfig())


@pytest.fixture
def store_factory(tmp_path):
    opened = []

    def factory():
        store = ReportStore(tmp_path / "store")
        opened.append(store)
        return store

    factory.db = tmp_path / "store" / "store.db"
    yield factory
    for store in opened:
        store.close()


def _tamper(store_factory, sql, *params):
    """Rewrite the store's database from outside, as a crash or an
    older release would leave it."""
    with sqlite3.connect(store_factory.db) as conn:
        conn.execute(sql, params)


REPORT = {"schema_version": 1, "workload": APP,
          "problems": [{"kind": "unnecessary_sync", "count": 3}],
          "execution_time": {"wall": 1.25}}


class TestStoreContract:
    def test_put_get_roundtrip_and_contains(self, store_factory):
        store = store_factory()
        identity = _identity()
        key = store.put(identity, REPORT, job_id="job-000001")
        assert key == identity.key()
        assert store.get(key) == REPORT
        assert store.contains(key)
        assert not store.contains("nope")
        assert len(store) == 1

    def test_get_bytes_is_exact_put_time_encoding(self, store_factory):
        store = store_factory()
        key = store.put(_identity(), REPORT)
        expected = json.dumps(REPORT, indent=2).encode()
        assert store.get_bytes(key) == expected
        assert store.get(key) == json.loads(expected)
        assert store.get_bytes("missing") is None

    def test_row_holds_the_report_once(self, store_factory):
        store = store_factory()
        identity = _identity()
        key = store.put(identity, REPORT, job_id="job-000007")
        with sqlite3.connect(store_factory.db) as conn:
            (row,) = conn.execute("SELECT * FROM reports").fetchall()
        # Key, identity, job id and the response bytes; no second,
        # encoded copy of the report.
        stored_key, stored_identity, job_id, body = row
        assert (stored_key, json.loads(stored_identity), job_id, body) == (
            key, dict(identity), "job-000007",
            json.dumps(REPORT, indent=2).encode())

    def test_missing_key_is_a_miss(self, store_factory):
        store = store_factory()
        assert store.get("0" * 40) is None
        assert store.get_bytes("0" * 40) is None
        assert not store.contains("0" * 40)

    def test_refuses_unstamped_report(self, store_factory):
        store = store_factory()
        with pytest.raises(ValueError, match="schema_version"):
            store.put(_identity(), {"workload": APP})
        assert len(store) == 0
        assert store.history() == []

    @staticmethod
    def _get_with_body(store_factory, body):
        store = store_factory()
        key = store.put(_identity(), REPORT)
        _tamper(store_factory,
                "UPDATE reports SET body = ? WHERE key = ?", body, key)
        return store.get(key)

    def test_unreadable_body_is_a_miss(self, store_factory):
        assert self._get_with_body(store_factory, b"{trunc") is None

    def test_non_dict_body_is_a_miss(self, store_factory):
        assert self._get_with_body(store_factory, b"[1, 2, 3]") is None

    def test_unstamped_body_is_a_miss(self, store_factory):
        assert self._get_with_body(
            store_factory, b'{"workload": "app"}') is None

    def test_foreign_store_schema_is_a_miss(self, store_factory):
        store = store_factory()
        key = store.put(_identity(), REPORT, job_id="job-000001")
        store.put_trace("job-000001", {"trace_id": "t1"})
        store.close()
        _tamper(store_factory,
                f"PRAGMA user_version = {STORE_SCHEMA_VERSION - 1}")
        reopened = store_factory()
        assert reopened.get(key) is None
        assert reopened.get_bytes(key) is None
        assert not reopened.contains(key)
        assert len(reopened) == 0
        # Only reports are dropped; traces and history are kept.
        assert reopened.get_trace("job-000001") == {"trace_id": "t1"}
        assert [e["key"] for e in reopened.history()] == [key]
        # The re-run stores afresh under the current schema.
        reopened.put(_identity(), REPORT)
        assert store_factory().get(key) == REPORT

    def test_persists_across_reopen(self, store_factory):
        store = store_factory()
        key = store.put(_identity(), REPORT, job_id="job-000001")
        store.put_trace("job-000001", {"trace_id": "t1", "spans": []})
        reloaded = store_factory()
        assert reloaded.get(key) == REPORT
        assert reloaded.contains(key)
        assert reloaded.get_trace("job-000001")["trace_id"] == "t1"
        (entry,) = reloaded.history()
        assert entry["key"] == key
        # History numbering continues across the reopen: 0-based and
        # contiguous.
        reloaded.put(_identity("synthetic-quiet", {}), {"schema_version": 1})
        reloaded.put(_identity(), REPORT)
        assert [e["seq"] for e in store_factory().history()] == [0, 1, 2]

    def test_history_records_and_filters(self, store_factory):
        store = store_factory()
        store.put(_identity(), REPORT, job_id="job-000001")
        other = _identity("synthetic-quiet", {})
        store.put(other, {"schema_version": 1})
        assert [e["seq"] for e in store.history()] == [0, 1]
        assert [e["workload"] for e in store.history("synthetic-quiet")] == \
            ["synthetic-quiet"]
        entry = store.history(APP)[0]
        assert entry["job_id"] == "job-000001"
        assert entry["schema_version"] == 1

    def test_put_is_idempotent_per_key(self, store_factory):
        store = store_factory()
        identity = _identity()
        key1 = store.put(identity, REPORT)
        key2 = store.put(identity, REPORT)
        assert key1 == key2
        assert len(store) == 1
        assert len(store.history()) == 2  # history is append-only

    def test_trace_roundtrip(self, store_factory):
        store = store_factory()
        payload = {"trace_id": "abc", "spans": [{"name": "service.job"}]}
        store.put_trace("job-000009", payload)
        assert store.get_trace("job-000009") == payload
        assert store.get_trace("job-missing") is None

    def test_len_counts_reports_not_traces(self, store_factory):
        store = store_factory()
        assert len(store) == 0
        store.put(_identity(), REPORT)
        store.put(_identity("synthetic-quiet", {}), {"schema_version": 1})
        store.put_trace("job-1", {"spans": []})
        assert len(store) == 2
