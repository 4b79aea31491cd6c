"""Content-addressed persistent report store with run history.

Where the stage cache of ``run``/``batch`` (:mod:`repro.exec.cache`)
remembers *stage* payloads, this store remembers finished *reports* —
the unit a client asks for, and the service's one cache.

A report's identity is a tuple of four parts:

* **workload fingerprint** — registry name + params + module source
  (:func:`repro.exec.fingerprint.workload_fingerprint`);
* **config digest** — the full ``DiogenesConfig`` as canonical JSON;
* **code fingerprint** — the whole-package source digest, so any code
  change anywhere makes a new report rather than serving a stale one;
* the report **schema version**, so a schema bump can never alias an
  old payload.

Identical submissions therefore hash to the same key and are served
from disk without executing a single stage job; any relevant change
produces a different key and a fresh run.

Everything lives in one WAL-mode sqlite database, ``<dir>/store.db``:

* ``reports`` — one row per key: the identity, the job id that stored
  it, and the report's exact response bytes (``json.dumps(report,
  indent=2)``, written once at ``put`` time).  A fetch hands those
  bytes to the socket with no decode or re-encode; ``get`` is their
  ``json.loads``.
* ``traces`` — one distributed-trace payload per executed job.
* ``history`` — one append-only line per ``put``, the per-workload run
  history the ``/history`` endpoint serves for edit-rerun archaeology.

The database's ``user_version`` is :data:`STORE_SCHEMA_VERSION`.  A
database of another version has its report rows dropped on open —
they would read as misses, so their submissions re-run — while its
traces and history are kept.
"""

from __future__ import annotations

import json
import os
import threading

from repro.core.jsonio import SCHEMA_VERSION
from repro.exec.fingerprint import (
    canonical_json,
    code_fingerprint,
    config_to_json,
    digest_json,
)
from repro.exec.jobs import WorkloadSpec
from repro.service.queue import connect

#: Bump when the stored layout changes (old reports become misses).
#: v2: the embedded report's record lists are stored columnar-encoded
#: (:mod:`repro.exec.columnar`); ``get`` decodes transparently.
#: v3: a segment file beside the envelope holds the exact serialized
#: response bytes; fetches are served memory-mapped from it.
#: v4: one sqlite row per report holding only the exact response
#: bytes (plus identity and job id); no encoded copy.
STORE_SCHEMA_VERSION = 4

#: Identity fields every history line carries.
_HISTORY_FIELDS = ("workload", "workload_fingerprint", "config_digest",
                   "code_fingerprint", "schema_version")


class ReportIdentity(dict):
    """The (workload, config, code, schema) tuple as a plain dict.

    A dict subclass rather than a dataclass so it drops straight into
    JSON rows and wire payloads; :meth:`key` is the content hash the
    store files it under.
    """

    def key(self) -> str:
        return digest_json(dict(self))


def report_identity(spec: WorkloadSpec, config, *,
                    config_digest: str | None = None) -> ReportIdentity:
    """Identity of the report a (workload, config) submission produces.

    ``config_digest`` lets a caller that encodes the same config
    repeatedly (the daemon's submit path) pass the digest in rather
    than re-encode per request; it must equal
    ``digest_json(config_to_json(config))``.
    """
    return ReportIdentity(
        workload=spec.name,
        workload_fingerprint=spec.fingerprint(),
        config_digest=(config_digest
                       or digest_json(config_to_json(config))),
        code_fingerprint=code_fingerprint(),
        schema_version=SCHEMA_VERSION,
    )


class ReportStore:
    """Keyed report archive shared by the daemon's threads."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self._lock = threading.Lock()
        self._conn = connect(directory, "store.db")
        (version,) = self._conn.execute("PRAGMA user_version").fetchone()
        if version != STORE_SCHEMA_VERSION:
            self._conn.executescript(
                "DROP TABLE IF EXISTS reports;"
                f"PRAGMA user_version = {STORE_SCHEMA_VERSION};")
        self._conn.executescript(
            "CREATE TABLE IF NOT EXISTS reports ("
            "  key TEXT PRIMARY KEY,"
            "  identity TEXT NOT NULL,"
            "  job_id TEXT,"
            "  body BLOB NOT NULL);"
            "CREATE TABLE IF NOT EXISTS traces ("
            "  job_id TEXT PRIMARY KEY,"
            "  payload TEXT NOT NULL);"
            "CREATE TABLE IF NOT EXISTS history ("
            "  seq INTEGER PRIMARY KEY,"
            "  line TEXT NOT NULL);")
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def _one(self, sql: str, params: tuple):
        with self._lock:
            return self._conn.execute(sql, params).fetchone()

    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        return self._one("SELECT 1 FROM reports WHERE key = ?",
                         (key,)) is not None

    def get_bytes(self, key: str) -> bytes | None:
        """The serialized report response, exactly as ``put`` wrote it,
        or ``None`` for a miss."""
        row = self._one("SELECT body FROM reports WHERE key = ?", (key,))
        return None if row is None else bytes(row[0])

    def get(self, key: str) -> dict | None:
        """The stored report JSON, or ``None``.

        Unreadable bytes and reports without a ``schema_version`` stamp
        read as misses — the submission re-runs rather than trusting
        unversioned data.
        """
        body = self.get_bytes(key)
        if body is None:
            return None
        try:
            report = json.loads(body)
        except ValueError:
            return None
        if not isinstance(report, dict) or "schema_version" not in report:
            return None
        return report

    def put(self, identity: ReportIdentity, report_json: dict,
            *, job_id: str | None = None) -> str:
        """Store one report and its history line atomically; returns
        its key.

        Refuses reports without a ``schema_version`` stamp — the store
        must never archive data the differ would later reject as
        being of unknown vintage.
        """
        if "schema_version" not in report_json:
            raise ValueError(
                "refusing to store a report without a schema_version "
                "stamp (see repro.core.jsonio.report_to_json)")
        key = identity.key()
        body = json.dumps(report_json, indent=2).encode()
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO reports (key, identity, job_id, body)"
                " VALUES (?, ?, ?, ?)",
                (key, canonical_json(dict(identity)), job_id, body))
            # Lines are numbered from 0, so the next line's number is
            # the highest row key (an index lookup, not a count).
            (seq,) = self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM history").fetchone()
            line = canonical_json({
                "seq": seq, "key": key, "job_id": job_id,
                **{k: identity[k] for k in _HISTORY_FIELDS}})
            self._conn.execute(
                "INSERT INTO history (seq, line) VALUES (?, ?)",
                (seq + 1, line))
            self._conn.commit()
        return key

    # ------------------------------------------------------------------
    # Traces: one distributed-trace payload per executed job, keyed by
    # job id (the link between a request span and its executor spans).
    # Traces are tool-side artifacts — they live beside the reports,
    # never inside them, so report bytes and keys are trace-oblivious.
    # ------------------------------------------------------------------
    def put_trace(self, job_id: str, payload: dict) -> None:
        """Persist one job's trace payload."""
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO traces (job_id, payload) "
                "VALUES (?, ?)", (job_id, json.dumps(payload)))
            self._conn.commit()

    def get_trace(self, job_id: str) -> dict | None:
        """The stored trace for a job id, or ``None``."""
        row = self._one("SELECT payload FROM traces WHERE job_id = ?",
                        (job_id,))
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    # ------------------------------------------------------------------
    def history(self, workload: str | None = None) -> list[dict]:
        """Run history, oldest first, optionally for one workload name.

        An unreadable line is skipped, not an error.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT line FROM history ORDER BY seq").fetchall()
        entries: list[dict] = []
        for (line,) in rows:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if workload is None or entry.get("workload") == workload:
                entries.append(entry)
        return entries

    def __len__(self) -> int:
        """Number of stored *reports* (traces live beside, not within)."""
        return self._one("SELECT COUNT(*) FROM reports", ())[0]
