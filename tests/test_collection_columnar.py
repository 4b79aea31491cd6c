"""Equivalence suite for the columnar-at-birth collection engine.

The collection fast path (``record_engine="columnar"``) must be
*indistinguishable* from the legacy row engine everywhere bytes can
leak: final reports, per-stage data JSON, the executor wire format,
and the cache. These tests fuzz workloads through both engines and
compare bytes, plus unit-test the machinery the fast path leans on —
:class:`~repro.core.records.LazyRows`, the native
``EventTable.to_batch`` encode, idempotent region watches, intern
table resets, and queue-latency stamping.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import ScriptedApp
from repro.core.diogenes import Diogenes, DiogenesConfig
from repro.core.jsonio import dumps_report
from repro.core.records import LazyRows
from repro.core.stage1_baseline import run_stage1
from repro.core.stage2_tracing import run_stage2
from repro.core.stage3_memtrace import run_stage3
from repro.core.stage4_syncuse import run_stage4
from repro.exec.columnar import decode_tree, encode_records, encode_tree
from repro.fuzz.generator import FuzzedApp
from repro.instr.loadstore import RegionSet
from repro.instr.stacks import (
    intern_frame,
    intern_table_sizes,
    interning_scope,
)

COLUMNAR = DiogenesConfig(record_engine="columnar")
ROWS = DiogenesConfig(record_engine="rows")

_steps = st.sampled_from([
    ("work", 50e-6),
    ("launch", 100e-6),
    ("launch", 400e-6),
    ("sync",),
    ("h2d", 0),
    ("h2d_same", 0),
    ("d2h", 0),
    ("read",),
    ("free",),
])
scripts = st.lists(_steps, min_size=1, max_size=20)


def _report_bytes(app_factory, config) -> str:
    return dumps_report(Diogenes(app_factory(), config).run())


# ----------------------------------------------------------------------
# Engine equivalence: fuzzed workloads, byte-identical reports
# ----------------------------------------------------------------------
class TestEngineEquivalence:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_fuzzed_reports_byte_identical(self, seed):
        make = lambda: FuzzedApp(seed=seed, segments=4)
        assert _report_bytes(make, COLUMNAR) == _report_bytes(make, ROWS)

    @given(scripts)
    @settings(max_examples=25, deadline=None)
    def test_scripted_reports_byte_identical(self, script):
        make = lambda: ScriptedApp(script)
        assert _report_bytes(make, COLUMNAR) == _report_bytes(make, ROWS)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_stage_data_round_trips_exactly(self, seed):
        """Builder-produced stage data serializes to the same JSON as
        dataclass-produced stage data, and survives ``from_json``."""
        results = {}
        for name, cfg in (("columnar", COLUMNAR), ("rows", ROWS)):
            s1 = run_stage1(FuzzedApp(seed=seed, segments=3), cfg)
            s2 = run_stage2(FuzzedApp(seed=seed, segments=3), s1, cfg)
            s3 = run_stage3(FuzzedApp(seed=seed, segments=3), s1, cfg,
                            mode="memtrace")
            s4 = run_stage4(FuzzedApp(seed=seed, segments=3), s1, s3, cfg)
            results[name] = [d.to_json() for d in (s1, s2, s3, s4)]
        assert json.dumps(results["columnar"], sort_keys=False) == \
            json.dumps(results["rows"], sort_keys=False)
        # Exact round-trip through from_json for both engines.
        for cls, payload in zip(
                (type(s1), type(s2), type(s3), type(s4)),
                results["columnar"]):
            assert cls.from_json(payload).to_json() == payload


# ----------------------------------------------------------------------
# Wire format: native column batches == row-path encodes
# ----------------------------------------------------------------------
class TestWireEquivalence:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_to_wire_matches_encode_tree_of_to_json(self, seed):
        s1 = run_stage1(FuzzedApp(seed=seed, segments=3), COLUMNAR)
        s2 = run_stage2(FuzzedApp(seed=seed, segments=3), s1, COLUMNAR)
        # Order matters: to_wire() first takes the native columnar
        # path (events still lazy); to_json() then materializes rows.
        wire = s2.to_wire()
        expected = encode_tree(s2.to_json())
        assert json.dumps(wire, sort_keys=False) == \
            json.dumps(expected, sort_keys=False)
        assert decode_tree(json.loads(json.dumps(wire))) == s2.to_json()

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_native_batch_matches_row_encode(self, seed):
        s1 = run_stage1(FuzzedApp(seed=seed, segments=3), COLUMNAR)
        s2 = run_stage2(FuzzedApp(seed=seed, segments=3), s1, COLUMNAR)
        native = s2.table().to_batch()
        rows = encode_records([e.to_json() for e in s2.events])
        assert json.dumps(native, sort_keys=False) == \
            json.dumps(rows, sort_keys=False)


# ----------------------------------------------------------------------
# LazyRows: indistinguishable from an eager list
# ----------------------------------------------------------------------
class TestLazyRows:
    def test_materializes_on_read(self):
        rows = LazyRows(lambda: [1, 2, 3])
        assert not rows.materialized
        assert rows[1] == 2
        assert rows.materialized
        assert list(rows) == [1, 2, 3]

    def test_materializes_on_mutation(self):
        rows = LazyRows(lambda: [1, 2])
        rows.append(3)
        assert rows.materialized
        assert list(rows) == [1, 2, 3]

    def test_comparison_with_lazy_operand(self):
        a = LazyRows(lambda: [1, 2])
        b = LazyRows(lambda: [1, 2])
        assert a == b  # both sides must materialize
        assert a == [1, 2] and [1, 2] == b

    def test_thunk_runs_once(self):
        calls = []
        rows = LazyRows(lambda: calls.append(1) or [0])
        len(rows), len(rows)
        assert calls == [1]


# ----------------------------------------------------------------------
# RegionSet.ensure: idempotent watches, identical matches
# ----------------------------------------------------------------------
regions_strategy = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 64),
              st.sampled_from(["d2h", "managed", "pinned"])),
    min_size=0, max_size=30)


class TestRegionEnsure:
    def test_duplicate_ensure_skipped(self):
        rs = RegionSet()
        assert rs.ensure(100, 8, origin="d2h") is not None
        assert rs.ensure(100, 8, origin="d2h") is None
        assert len(rs) == 1
        # Different metadata is a different watch.
        assert rs.ensure(100, 8, origin="managed") is not None
        assert len(rs) == 2

    def test_remove_forgets_ensured_key(self):
        rs = RegionSet()
        region = rs.ensure(100, 8, origin="d2h")
        rs.remove(region)
        assert len(rs) == 0
        assert rs.ensure(100, 8, origin="d2h") is not None

    def test_drop_range_forgets_ensured_keys(self):
        rs = RegionSet()
        rs.ensure(100, 8, origin="d2h")
        rs.ensure(200, 8, origin="d2h")
        assert rs.drop_range(0, 1000) == 2
        assert rs.ensure(100, 8, origin="d2h") is not None

    @given(regions_strategy,
           st.lists(st.tuples(st.integers(0, 600), st.integers(1, 32)),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_ensure_matches_deduplicated_add(self, regions, queries):
        """ensure() with duplicated input == add() on deduped input."""
        ensured, added = RegionSet(), RegionSet()
        seen = set()
        for start, size, origin in regions + regions:
            ensured.ensure(start, size, origin=origin)
            if (start, size, origin) not in seen:
                seen.add((start, size, origin))
                added.add(start, size, origin=origin)
        assert len(ensured) == len(added)
        for address, size in queries:
            got = [(r.start, r.size, r.meta["origin"])
                   for r in ensured.matches(address, size)]
            want = [(r.start, r.size, r.meta["origin"])
                    for r in added.matches(address, size)]
            assert got == want


# ----------------------------------------------------------------------
# Process hygiene: per-job interning scopes, queue latency stamping
# ----------------------------------------------------------------------
class TestProcessHygiene:
    def test_interning_scope_drops_its_tables_on_exit(self):
        unscoped = dumps_report(
            Diogenes(FuzzedApp(seed=7, segments=2), COLUMNAR).run())
        before = intern_table_sizes()
        with interning_scope():
            scoped = dumps_report(
                Diogenes(FuzzedApp(seed=7, segments=2), COLUMNAR).run())
            inside = intern_table_sizes()
        after = intern_table_sizes()
        # The run interned into the scope's own tables (fresh ids), and
        # the report cannot tell.
        assert scoped == unscoped
        assert inside["snapshots"] > before["snapshots"]
        for table in ("snapshots", "address_keys", "function_keys"):
            assert after[table] == before[table]
        assert after["frames"] <= intern_frame.cache_info().maxsize

    def test_claim_stamps_queue_latency(self, tmp_path):
        from repro.service.queue import JobQueue

        queue = JobQueue(tmp_path / "queue")
        job = queue.submit("fuzzed", {"seed": 1}, {}, "key-1")
        assert job.claimed is None
        claimed = queue.claim_next(worker="w-1", lease_seconds=30.0)
        assert claimed.id == job.id
        assert claimed.claimed is not None
        assert claimed.claimed >= claimed.created
        # The stamp persists and round-trips; pre-upgrade records
        # without the key still load.
        again = type(job).from_json(claimed.to_json())
        assert again.claimed == claimed.claimed
        legacy = dict(claimed.to_json())
        legacy.pop("claimed")
        assert type(job).from_json(legacy).claimed is None

    def test_unknown_record_engine_rejected(self):
        import pytest

        from repro.core.colbuild import record_engine_of

        class Cfg:
            record_engine = "arrow"

        with pytest.raises(ValueError, match="unknown record_engine"):
            record_engine_of(Cfg())
