"""Trace-replay ingestion: converters, bundled traces, round-trips."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.apps.base import registry
from repro.apps.replay import (
    ReplayApp,
    app_timeline_events,
    bundled_traces,
    report_chrome_trace,
    timeline_from_any,
    timeline_from_chrome,
    timeline_from_cupti,
)
from repro.core.cli import main
from repro.core.diogenes import Diogenes
from repro.fuzz import FuzzedApp


def _problem_counter(report) -> Counter:
    return Counter((p.file, p.line, p.kind.value)
                   for p in report.analysis.problems)


# ----------------------------------------------------------------------
# Bundled real-shaped traces
# ----------------------------------------------------------------------
def test_bundled_traces_present():
    assert "dl-training" in bundled_traces()
    assert "multi-stream" in bundled_traces()


def test_dl_training_trace_finds_planted_patterns():
    report = Diogenes(ReplayApp(trace="dl-training")).run()
    found = _problem_counter(report)
    # Duplicate weight re-upload: five of six iterations are dups.
    assert found[("train.cpp", 45, "unnecessary_transfer")] == 5
    # Wasteful post-backward device sync, every iteration.
    assert found[("train.cpp", 65, "unnecessary_synchronization")] == 6
    # Loss readback whose first use trails by ~210us.
    assert found[("train.cpp", 60, "misplaced_synchronization")] == 6


def test_multi_stream_trace_finds_only_the_round_sync():
    report = Diogenes(ReplayApp(trace="multi-stream")).run()
    found = _problem_counter(report)
    assert found[("pipeline.cpp", 99, "unnecessary_synchronization")] == 4
    # The per-stream quiet pattern (pinned + async + stream sync +
    # prompt read) must not be flagged.
    assert sum(found.values()) == 4


def test_replay_is_deterministic():
    a = _problem_counter(Diogenes(ReplayApp(trace="dl-training")).run())
    b = _problem_counter(Diogenes(ReplayApp(trace="dl-training")).run())
    assert a == b


def test_replay_app_is_registry_rebuildable():
    app = registry.create("replay", trace="multi-stream")
    assert app._registry_params == {"trace": "multi-stream"}
    assert app.timeline == ReplayApp(trace="multi-stream").timeline


def test_unknown_trace_name_raises():
    with pytest.raises(ValueError, match="bundled"):
        ReplayApp(trace="no-such-trace")


# ----------------------------------------------------------------------
# Chrome-trace export round-trip
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 13])
def test_chrome_round_trip_reproduces_problems(seed):
    """Export a report's app timeline, re-ingest it, re-analyze: the
    same problems must re-appear at the same sites with the same
    dynamic counts."""
    base_report = Diogenes(FuzzedApp(seed=seed)).run()
    doc = report_chrome_trace(base_report)
    replay = ReplayApp.from_document(doc, label=f"seed{seed}")
    replay_report = Diogenes(replay).run()
    assert _problem_counter(replay_report) == _problem_counter(base_report)


def test_app_timeline_events_shape():
    report = Diogenes(FuzzedApp(seed=1)).run()
    events = app_timeline_events(report, pid=5)
    meta, rest = events[0], events[1:]
    assert meta["ph"] == "M" and meta["pid"] == 5
    assert rest, "stage 2 traced operations should be exported"
    for e in rest:
        assert e["ph"] == "X" and e["cat"] == "cuda" and e["pid"] == 5
        assert {"file", "line", "sync_wait", "is_sync",
                "is_transfer"} <= set(e["args"])


def test_chrome_converter_rejects_traces_without_app_lane():
    with pytest.raises(ValueError, match="diogenes run"):
        timeline_from_chrome({"traceEvents": [
            {"ph": "X", "name": "stage1", "ts": 0, "dur": 5}]})


# ----------------------------------------------------------------------
# CUPTI-activity converter
# ----------------------------------------------------------------------
def _activity(records):
    return {"schema": "diogenes-cupti-activity/1", "records": records}


def test_cupti_converter_rejects_unknown_schema():
    with pytest.raises(ValueError, match="schema"):
        timeline_from_cupti({"schema": "nvidia-cupti/99", "records": []})


def test_cupti_converter_rejects_empty_and_unknown_records():
    with pytest.raises(ValueError, match="no records"):
        timeline_from_cupti(_activity([]))
    with pytest.raises(ValueError, match="unknown activity record"):
        timeline_from_cupti(_activity([{"kind": "nvlink", "start": 0.0}]))


@pytest.mark.parametrize("records, message", [
    ([{"kind": "kernel", "start": 0.0}],
     "activity record 0 has no 'duration' field"),
    ([{"kind": "memcpy", "copy": "h2d", "buffer": "b", "start": 0.0}],
     "activity record 0 has no 'payload' field"),
    ([{"kind": "kernel", "start": 0.0, "duration": 1e-5},
      {"kind": "memcpy", "copy": "d2h", "buffer": "b", "start": 1.0}],
     "activity record 1 has no 'dst' field"),
    ([{"kind": "host_read", "start": 0.0}],
     "activity record 0 has no 'buffer' field"),
    ([{"kind": "kernel", "start": 0.0, "duration": 1e-5,
       "writes": [{"buffer": "b"}]}],
     "activity record 0 writes\\[0\\] has no 'payload' field"),
    ([{"kind": "kernel", "start": "soon", "duration": 1e-5}],
     "activity record 0: bad 'start' value 'soon'"),
    ([{"kind": "sync", "start": 0.0, "line": "x"}],
     "activity record 0: bad 'line' value 'x'"),
    ([5], "activity record 0 is not an object"),
    ("nope", "records must be a list, not str"),
], ids=["kernel-duration", "h2d-payload", "d2h-dst", "read-buffer",
        "write-payload", "start", "line", "record-not-object",
        "records-not-list"])
def test_cupti_converter_names_the_bad_record_and_field(records, message):
    with pytest.raises(ValueError, match=message):
        timeline_from_cupti(_activity(records))


@pytest.mark.parametrize("records, message", [
    ([{"kind": "memcpy", "copy": "h2d", "start": 0.0, "payload": ["a"],
       "buffer": "b"}],
     "activity record 0: bad 'payload' value \\['a'\\]"),
    ([{"kind": "memcpy", "copy": "h2d", "start": 0.0, "payload": "p",
       "buffer": {"x": 1}}],
     "activity record 0: bad 'buffer' value \\{'x': 1\\}"),
    ([{"kind": "kernel", "start": 0.0, "duration": 1e-5},
      {"kind": "memcpy", "copy": "d2h", "start": 1.0, "buffer": "b",
       "dst": ["h"]}],
     "activity record 1: bad 'dst' value"),
    ([{"kind": "host_read", "start": 0.0, "buffer": {}}],
     "activity record 0: bad 'buffer' value"),
    ([{"kind": "kernel", "start": 0.0, "duration": 1e-5,
       "writes": [{"buffer": "b", "payload": [1, 2]}]}],
     "activity record 0 writes\\[0\\]: bad 'payload' value"),
    ([{"kind": "kernel", "start": 0.0, "duration": 1e-5,
       "writes": [{"buffer": ["b"], "payload": "p"}]}],
     "activity record 0 writes\\[0\\]: bad 'buffer' value"),
], ids=["h2d-payload", "h2d-buffer", "d2h-dst", "read-buffer",
        "write-payload", "write-buffer"])
def test_cupti_converter_rejects_tags_that_cannot_key_the_plan(records,
                                                               message):
    # A list or an object cannot key the replay plan: the converter
    # names it instead of the first collection run failing on it.
    with pytest.raises(ValueError, match=message):
        timeline_from_cupti(_activity(records))


def test_chrome_converter_rejects_a_digest_that_cannot_key_the_plan():
    event = {"ph": "X", "cat": "cuda", "name": "cudaMemcpy", "ts": 0.0,
             "dur": 10.0, "args": {"is_transfer": True, "digest": ["d"]}}
    with pytest.raises(ValueError,
                       match="traceEvents\\[0\\]: bad 'digest' value"):
        timeline_from_chrome({"traceEvents": [event]})


def test_run_names_a_bad_trace_tag_on_its_bad_param_line(tmp_path):
    trace = tmp_path / "bad-tag.json"
    trace.write_text(json.dumps(_activity([
        {"kind": "memcpy", "copy": "h2d", "start": 0.0, "payload": ["a"],
         "buffer": "b"}])))
    with pytest.raises(SystemExit) as info:
        main(["run", "replay", "--param", f"trace={trace}"])
    assert str(info.value) == (
        "bad --param for 'replay': activity record 0: bad 'payload' value "
        "['a'] (a tag cannot be a list or an object)")


@pytest.mark.parametrize("document, message", [
    ({"traceEvents": "nope"}, "traceEvents must be a list, not str"),
    ({"traceEvents": [5]}, "traceEvents\\[0\\] is not an object"),
    ({"traceEvents": [{"ph": "M"}, {"ph": "X", "cat": "cuda", "ts": "x"}]},
     "traceEvents\\[1\\]: bad 'ts' value 'x'"),
    ({"traceEvents": [{"ph": "X", "cat": "cuda", "args": [1]}]},
     "traceEvents\\[0\\]: bad 'args' value"),
    ({"traceEvents": [{"ph": "X", "cat": "cuda", "args": {"line": "q"}}]},
     "traceEvents\\[0\\] args: bad 'line' value 'q'"),
], ids=["events-not-list", "event-not-object", "ts", "args", "line"])
def test_chrome_converter_names_the_bad_event_and_field(document, message):
    with pytest.raises(ValueError, match=message):
        timeline_from_chrome(document)


def test_cupti_converter_emits_gaps_as_cpu_work():
    ops = timeline_from_cupti(_activity([
        {"kind": "kernel", "name": "k", "duration": 1e-4, "start": 0.0,
         "file": "a.cpp", "line": 1},
        {"kind": "sync", "api": "cudaDeviceSynchronize", "start": 300e-6,
         "duration": 50e-6, "file": "a.cpp", "line": 2},
    ]))
    kinds = [op["op"] for op in ops]
    assert kinds == ["kernel", "work", "sync"]
    work = ops[1]["seconds"]
    assert work == pytest.approx(300e-6 - 10e-6)


def test_timeline_from_any_dispatches_on_shape():
    doc = _activity([{"kind": "kernel", "name": "k", "duration": 1e-4,
                      "start": 0.0}])
    assert timeline_from_any(doc)[0]["op"] == "kernel"
    with pytest.raises(ValueError, match="unrecognized"):
        timeline_from_any({"spans": []})


def test_cupti_duplicate_payloads_detected_as_duplicates():
    """Identical payload tags on h2d records become identical bytes."""
    records = []
    for i in range(3):
        records.append({"kind": "memcpy", "copy": "h2d",
                        "api": "cudaMemcpy", "payload": "model",
                        "buffer": "dev", "bytes": 16384,
                        "start": i * 500e-6, "duration": 10e-6,
                        "file": "dup.cpp", "line": 7})
        records.append({"kind": "kernel", "name": "use", "duration": 2e-4,
                        "start": i * 500e-6 + 50e-6,
                        "file": "dup.cpp", "line": 9,
                        "writes": [{"buffer": "out", "payload": f"o{i}",
                                    "bytes": 2048}]})
    app = ReplayApp.from_document(_activity(records), label="dup")
    found = _problem_counter(Diogenes(app).run())
    assert found[("dup.cpp", 7, "unnecessary_transfer")] == 2
