"""Distributed tracing, the perturbation ledger, and the event log.

The contracts this file keeps honest:

* a ``--jobs 4`` run produces **one connected trace**: a single
  ``exec.run`` root, every span reachable from it, unique span ids
  across all contributing processes, and worker pids visible in the
  Chrome-trace export;
* report bodies stay **byte-identical** whether tracing was on or off
  — trace ids, span batches, and ledger charges live strictly outside
  the report body and its fingerprints (``meta`` is the only carrier);
* the **perturbation ledger** accounts the tool's own overhead per
  stage, merges worker-side charges into the parent session, and
  reports the calibration constants behind its estimates;
* the **event log** ring is bounded, trace-correlated, and dumped to
  disk when a stage span fails (the flight recorder);
* stage drivers flush their telemetry (probe hits, device counters,
  virtual-clock charges) even when the workload raises mid-run.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

import repro.obs as obs
from repro.apps.base import registry
from repro.apps.synthetic import UnnecessarySyncApp
from repro.core.cli import _load_workloads
from repro.core.diogenes import Diogenes, DiogenesConfig
from repro.core.jsonio import dumps_report, report_to_json, session_meta
from repro.exec import StageExecutor, WorkloadSpec
from repro.obs.context import ID_BLOCK, SpanContext, new_trace_id
from repro.obs.ledger import BUCKETS, PerturbationLedger
from repro.obs.log import EventLog
from repro.obs.tracer import Tracer

_load_workloads()

APP = "synthetic-unnecessary-sync"
PARAMS = {"iterations": 4}


@pytest.fixture(autouse=True)
def _observability_off():
    obs.disable()
    yield
    obs.disable()


# ----------------------------------------------------------------------
# Trace context: the part that crosses process boundaries
# ----------------------------------------------------------------------
class TestSpanContext:
    def test_trace_ids_are_hex_and_unique(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for tid in ids:
            assert len(tid) == 16
            int(tid, 16)  # must parse as hex

    def test_wire_round_trip(self):
        ctx = SpanContext(trace_id="ab" * 8, parent_span_id=7,
                          id_base=ID_BLOCK)
        assert SpanContext.from_wire(ctx.to_wire()) == ctx
        assert SpanContext.from_wire(None) is None

    def test_reserved_id_blocks_never_overlap(self):
        tracer = Tracer()
        bases = [tracer.reserve_ids(ID_BLOCK) for _ in range(4)]
        assert len(set(bases)) == 4
        for a, b in zip(bases, bases[1:]):
            assert b - a >= ID_BLOCK
        # Ids minted after the reservations sit above every block.
        with tracer.span("later") as sp:
            pass
        assert sp.span_id >= bases[-1] + ID_BLOCK

    def test_current_context_tracks_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current_context().parent_span_id is None
        with tracer.span("outer") as outer:
            assert tracer.current_context().parent_span_id == outer.span_id
            with tracer.span("inner") as inner:
                ctx = tracer.current_context()
                assert ctx.parent_span_id == inner.span_id
                assert ctx.trace_id == tracer.trace_id


class TestBatchAdoption:
    def _worker_batch(self, parent: Tracer) -> dict:
        base = parent.reserve_ids(ID_BLOCK)
        worker = Tracer(trace_id=parent.trace_id, id_base=base)
        with worker.span("exec.worker"):
            with worker.span("stage.stage1_baseline"):
                pass
        return worker.export_batch(pid=4242)

    def test_adopted_spans_keep_trace_and_gain_parent(self):
        parent = Tracer()
        with parent.span("exec.run") as root:
            batch = self._worker_batch(parent)
        adopted = parent.adopt(batch, parent_id=root.span_id, base_depth=1)
        assert len(adopted) == 2
        roots = [sp for sp in adopted if sp.name == "exec.worker"]
        assert roots[0].parent_id == root.span_id
        assert roots[0].depth == 1
        assert all(sp.pid == 4242 for sp in adopted)
        # Worker ids come from the reserved block: no collision with
        # the parent's own ids.
        parent_ids = {root.span_id}
        assert parent_ids.isdisjoint({sp.span_id for sp in adopted})

    def test_adoption_rebases_wall_times_onto_parent_epoch(self):
        parent = Tracer()
        batch = self._worker_batch(parent)
        # Pretend the worker's clock origin sat 2 s after the parent's.
        batch["epoch"] = parent.epoch + 2.0
        (outer, _inner) = sorted(parent.adopt(batch),
                                 key=lambda sp: sp.depth)
        assert outer.wall_start >= 2.0
        assert outer.wall_end >= outer.wall_start

    def test_adopted_attrs_are_independent_copies(self):
        # Columnar dictionary pooling makes decoded rows share dict
        # objects; adoption must unshare them before anyone mutates.
        parent = Tracer()
        base = parent.reserve_ids(ID_BLOCK)
        worker = Tracer(trace_id=parent.trace_id, id_base=base)
        for _ in range(2):
            with worker.span("s", k="v"):
                pass
        a, b = parent.adopt(worker.export_batch())
        a.attrs["mutated"] = True
        assert "mutated" not in b.attrs


# ----------------------------------------------------------------------
# End-to-end stitching through the process pool
# ----------------------------------------------------------------------
class TestDistributedStitching:
    @pytest.fixture(scope="class")
    def session(self):
        obs.disable()
        spec = WorkloadSpec.from_params(APP, PARAMS)
        with obs.enabled() as session:
            with StageExecutor(jobs=4) as executor:
                results = executor.run_workloads([spec], DiogenesConfig())
        session.results = results[spec]
        obs.disable()
        return session

    def test_single_root_and_full_reachability(self, session):
        spans = session.tracer.spans
        roots = [sp for sp in spans if sp.parent_id is None]
        assert [sp.name for sp in roots] == ["exec.run"]
        by_id = {sp.span_id: sp for sp in spans}
        for sp in spans:
            node = sp
            while node.parent_id is not None:
                assert node.parent_id in by_id, (
                    f"{sp.name}: dangling parent {node.parent_id}")
                node = by_id[node.parent_id]
            assert node.name == "exec.run"

    def test_span_ids_are_unique_across_processes(self, session):
        ids = [sp.span_id for sp in session.tracer.spans]
        assert len(ids) == len(set(ids))

    def test_worker_spans_carry_their_pid(self, session):
        pids = {sp.pid for sp in session.tracer.spans
                if sp.name == "exec.worker"}
        assert pids and None not in pids
        # Every stage ran in some worker; all five stage spans arrived.
        stage_names = {sp.name for sp in session.tracer.spans
                       if sp.name.startswith("stage.")}
        assert stage_names == {
            "stage.stage1_baseline", "stage.stage2_tracing",
            "stage.stage3_memtrace", "stage.stage3_hashing",
            "stage.stage4_syncuse"}

    def test_jsonl_lines_share_one_trace_id(self, session):
        lines = [json.loads(li)
                 for li in session.tracer.to_jsonl().splitlines()]
        assert {li["trace_id"] for li in lines} == {session.tracer.trace_id}

    def test_chrome_trace_names_worker_threads(self, session):
        trace = session.tracer.to_chrome_trace()
        assert trace["otherData"]["trace_id"] == session.tracer.trace_id
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        worker_rows = [m for m in meta
                       if m["name"] == "thread_name"
                       and m["args"]["name"].startswith("worker ")]
        assert worker_rows, "worker tids must be labelled for Perfetto"
        worker_tids = {m["tid"] for m in worker_rows}
        x_tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert worker_tids <= x_tids

    def test_worker_ledgers_merge_into_the_session(self, session):
        ledger = session.ledger.as_json()
        # The workers' own tracing cost came home per job stage.
        traced = [stage for stage, accounts in ledger["stages"].items()
                  if "tracing" in accounts]
        assert traced, "worker tracing charges must merge into the parent"
        assert ledger["total_wall_seconds"] > 0.0

    def test_job_completion_events_land_in_the_ring(self, session):
        done = [e for e in session.log.tail()
                if e["event"] == "exec.job.done"]
        assert len(done) == 5  # one per stage run
        assert {e["stage"] for e in done} == {
            "stage1", "stage2", "stage3_memtrace", "stage3_hashing",
            "stage4"}
        for e in done:
            assert e["trace_id"] == session.tracer.trace_id
            assert e["cache_hit"] is False


class TestTracedByteIdentity:
    def test_traced_jobs4_report_matches_untraced_serial(self):
        serial = dumps_report(
            Diogenes(registry.create(APP, **PARAMS)).run())
        with obs.enabled() as session:
            with StageExecutor(jobs=4) as executor:
                report = Diogenes(registry.create(APP, **PARAMS),
                                  executor=executor).run()
            traced = dumps_report(report)
            annotated = dumps_report(report, meta=session_meta(session))
        assert traced == serial, (
            "tracing must never perturb the report body")
        # The meta form differs only by its trailing meta key.
        body = json.loads(annotated)
        meta = body.pop("meta")
        assert json.dumps(body, indent=2) == serial
        assert meta["trace_id"] == session.tracer.trace_id
        assert meta["overhead"]["stages"]

    def test_cache_hits_adopt_no_worker_spans(self, tmp_path):
        spec = WorkloadSpec.from_params(APP, PARAMS)
        with StageExecutor(jobs=2, cache_dir=tmp_path) as executor:
            executor.run_workloads([spec], DiogenesConfig())
        with obs.enabled() as session:
            with StageExecutor(jobs=2, cache_dir=tmp_path) as executor:
                executor.run_workloads([spec], DiogenesConfig())
        assert all(sp.pid is None for sp in session.tracer.spans), (
            "a fully warm run executes nothing, so no worker spans exist")
        done = [e for e in session.log.tail()
                if e["event"] == "exec.job.done"]
        assert done and all(e["cache_hit"] for e in done)

    def test_session_meta_charges_tracing_once(self):
        with obs.enabled() as session:
            with session.tracer.span("stage.x"):
                pass
            first = session_meta(session)
            second = session_meta(session)
        cell = first["overhead"]["stages"]["(session)"]["tracing"]
        assert cell["events"] == 1
        # Calling again without new spans must not double-book.
        assert second["overhead"]["stages"]["(session)"]["tracing"] == cell


# ----------------------------------------------------------------------
# Perturbation ledger
# ----------------------------------------------------------------------
class TestPerturbationLedger:
    def test_charge_and_query(self):
        ledger = PerturbationLedger(calibrate=False)
        ledger.charge("stage1", "callbacks", 0.25, events=10)
        ledger.charge("stage1", "hashing", 0.5)
        ledger.charge("stage1", "virtual", 9.0)
        ledger.charge("stage2", "tracing", 0.125)
        assert ledger.stages() == ["stage1", "stage2"]
        assert ledger.stage_wall_seconds("stage1") == pytest.approx(0.75)
        assert ledger.total_wall_seconds() == pytest.approx(0.875), (
            "virtual seconds are simulated time and never sum with wall")

    def test_unknown_bucket_is_rejected(self):
        with pytest.raises(ValueError, match="bucket"):
            PerturbationLedger(calibrate=False).charge("s", "mystery", 1.0)

    def test_calibration_happens_lazily_on_first_estimate(self):
        ledger = PerturbationLedger(calibrate=False, iterations=50)
        assert ledger.calibration == {}
        ledger.charge_probe_hits("stage1", 100)
        assert ledger.calibration["probe_fire_seconds"] > 0.0
        cell = ledger.cells[("stage1", "callbacks")]
        assert cell.events == 100
        assert cell.seconds == pytest.approx(
            100 * ledger.calibration["probe_fire_seconds"])

    def test_lazy_calibration_honours_iterations(self):
        ledger = PerturbationLedger(calibrate=False, iterations=50)
        ledger.charge_probe_hits("stage1", 1)
        assert ledger.calibration["iterations"] == 50

    def test_concurrent_charges_lose_no_update(self):
        # Every slot of a service node charges the one process ledger.
        ledger = PerturbationLedger(calibrate=False)
        threads, stages = 8, 500
        barrier = threading.Barrier(threads)

        def charge_all():
            barrier.wait(10)
            for i in range(stages):
                ledger.charge(f"s{i}", "record", 1e-6)

        workers = [threading.Thread(target=charge_all)
                   for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert sum(cell.events for cell in ledger.cells.values()) == \
            threads * stages

    def test_zero_hits_never_triggers_calibration(self):
        ledger = PerturbationLedger(calibrate=False)
        ledger.charge_probe_hits("stage1", 0)
        ledger.charge_tracing("stage1", 0)
        assert ledger.calibration == {} and ledger.cells == {}

    def test_json_round_trip_and_merge(self):
        worker = PerturbationLedger(calibrate=False)
        worker.calibration = {"probe_fire_seconds": 1e-7,
                              "span_seconds": 2e-6, "iterations": 10}
        worker.charge("stage1", "callbacks", 0.5, events=5)
        parent = PerturbationLedger(calibrate=False)
        parent.charge("stage1", "callbacks", 0.25, events=2)
        parent.merge_json(json.loads(json.dumps(worker.as_json())))
        cell = parent.cells[("stage1", "callbacks")]
        assert cell.seconds == pytest.approx(0.75) and cell.events == 7
        # An uncalibrated parent inherits the worker's constants.
        assert parent.calibration["span_seconds"] == 2e-6

    def test_as_json_lists_only_charged_buckets(self):
        ledger = PerturbationLedger(calibrate=False)
        ledger.charge("stage1", "hashing", 0.1, events=3)
        exported = ledger.as_json()
        assert exported["stages"] == {
            "stage1": {"hashing": {"seconds": 0.1, "events": 3}}}
        assert set(BUCKETS) == {"callbacks", "record", "hashing",
                                "tracing", "analysis", "stream", "virtual"}


# ----------------------------------------------------------------------
# Event log + flight recorder
# ----------------------------------------------------------------------
class TestEventLog:
    def test_sequencing_and_tail(self):
        log = EventLog()
        log.emit("a", x=1)
        log.emit("b", trace_id="t", span_id=3)
        assert [e["event"] for e in log.tail()] == ["a", "b"]
        assert [e["seq"] for e in log.tail()] == [1, 2]
        assert log.tail(after_seq=1)[0]["event"] == "b"
        assert log.last_seq == 2 and len(log) == 2

    def test_ring_is_bounded(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("e", i=i)
        events = log.tail()
        assert len(events) == 4
        assert [e["i"] for e in events] == [6, 7, 8, 9]
        assert log.last_seq == 10  # sequence numbers never rewind

    def test_subscribers_see_each_event(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.emit("a")
        log.emit("b")
        assert [e["event"] for e in seen] == ["a", "b"]

    def test_dump_writes_sorted_jsonl(self, tmp_path):
        log = EventLog()
        log.emit("a", x=1)
        path = tmp_path / "flight.jsonl"
        assert log.dump(str(path)) == 1
        (line,) = path.read_text().splitlines()
        parsed = json.loads(line)
        assert parsed["event"] == "a" and parsed["x"] == 1

    def test_event_helper_stamps_trace_context(self):
        with obs.enabled() as session:
            with session.tracer.span("stage.x") as sp:
                obs.event("checkpoint", k=1)
        (ev,) = session.log.tail()
        assert ev["trace_id"] == session.tracer.trace_id
        assert ev["span_id"] == sp.span_id
        assert ev["k"] == 1

    def test_event_helper_is_noop_when_off(self):
        obs.event("nobody-listening")  # must not raise


class TestFlightRecorder:
    def test_failed_stage_span_dumps_the_ring(self, tmp_path):
        flight = tmp_path / "flight"
        bundle = obs.Observability(flight_dir=str(flight))
        with obs.enabled(bundle) as session:
            obs.event("before-the-crash", step=1)
            with pytest.raises(RuntimeError):
                with session.tracer.span("stage.stage2_tracing"):
                    raise RuntimeError("boom")
        (dump,) = flight.glob("flight-*.jsonl")
        events = [json.loads(li) for li in dump.read_text().splitlines()]
        names = [e["event"] for e in events]
        assert "before-the-crash" in names and "span.error" in names
        (err,) = [e for e in events if e["event"] == "span.error"]
        assert err["error"] == "RuntimeError"
        assert err["trace_id"] == session.tracer.trace_id

    def test_non_stage_spans_do_not_dump(self, tmp_path):
        flight = tmp_path / "flight"
        bundle = obs.Observability(flight_dir=str(flight))
        with obs.enabled(bundle) as session:
            with pytest.raises(RuntimeError):
                with session.tracer.span("helper"):
                    raise RuntimeError("boom")
        assert not flight.exists()
        # The error event still lands in the ring for later dumps.
        assert [e["event"] for e in session.log.tail()] == ["span.error"]


# ----------------------------------------------------------------------
# Raising stages still flush telemetry (the satellite regression)
# ----------------------------------------------------------------------
class _BoomApp:
    """Runs a real workload, then raises — telemetry must survive."""

    name = "boom"

    def __init__(self) -> None:
        self._inner = UnnecessarySyncApp(iterations=2)

    def run(self, ctx) -> None:
        self._inner.run(ctx)
        raise RuntimeError("workload crashed after real work")


class TestRaisingStageFlush:
    def test_stage1_flushes_probes_devices_and_ledger(self):
        from repro.core.stage1_baseline import run_stage1

        with obs.enabled() as session:
            with pytest.raises(RuntimeError):
                run_stage1(_BoomApp(), DiogenesConfig())
        assert session.metrics.get("instr.probe_hits",
                                   probe="stage1-baseline").value > 0
        assert session.metrics.series("sim.ops_enqueued")
        assert "stage1_baseline" in session.ledger.stages()

    def test_stage2_flushes_on_failure(self):
        from repro.core.stage1_baseline import run_stage1
        from repro.core.stage2_tracing import run_stage2

        config = DiogenesConfig()
        stage1 = run_stage1(UnnecessarySyncApp(iterations=2), config)
        with obs.enabled() as session:
            with pytest.raises(RuntimeError):
                run_stage2(_BoomApp(), stage1, config)
        assert session.metrics.series("instr.probe_hits")
        assert session.metrics.series("sim.ops_enqueued")
        assert "stage2_tracing" in session.ledger.stages(), (
            "the virtual-clock charge must still be booked")

    def test_single_run_collection_flushes_on_failure(self):
        from repro.core.singlerun import run_single_run_collection

        with obs.enabled() as session:
            with pytest.raises(RuntimeError):
                run_single_run_collection(_BoomApp())
        assert session.metrics.get("instr.probe_hits",
                                   probe="single-run").value > 0
        assert session.metrics.series("sim.ops_enqueued")


# ----------------------------------------------------------------------
# Report meta: the only place tool-side annotations may live
# ----------------------------------------------------------------------
class TestReportMeta:
    def test_default_export_has_no_meta_key(self):
        report = Diogenes(registry.create(APP, **PARAMS)).run()
        assert "meta" not in report_to_json(report)

    def test_meta_rides_as_a_trailing_key(self):
        report = Diogenes(registry.create(APP, **PARAMS)).run()
        body = report_to_json(report, meta={"trace_id": "t" * 16})
        assert list(body)[-1] == "meta"
        assert body["meta"]["trace_id"] == "t" * 16
