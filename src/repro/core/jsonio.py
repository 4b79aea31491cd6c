"""JSON export of Diogenes results.

The paper stores collected performance data in JSON "so other tools
can read it"; this module is that interchange surface.  The export is
self-contained: stage data, ranked problems, groupings, sequences, and
overhead accounting, all as plain JSON types.
"""

from __future__ import annotations

import json

from repro.core.analysis import ProblemRecord
from repro.core.diogenes import DiogenesReport
from repro.core.grouping import ProblemGroup, expand_fold
from repro.core.records import frames_to_json
from repro.core.sequences import Sequence

SCHEMA_VERSION = 1


def problem_to_json(p: ProblemRecord) -> dict:
    return {
        "node_index": p.node_index,
        "kind": p.kind.value,
        "api_name": p.api_name,
        "site": p.site.to_json(),
        "stack": frames_to_json(p.stack) if p.stack is not None else [],
        "location": p.location(),
        "duration": p.duration,
        "est_benefit": p.est_benefit,
        "first_use_time": p.first_use_time,
    }


def group_to_json(g: ProblemGroup) -> dict:
    data = {
        "kind": g.kind,
        "label": g.label,
        "total_benefit": g.total_benefit,
        "count": g.count,
        "api_names": g.api_names,
        "member_nodes": [m.node_index for m in g.members],
    }
    if g.kind == "api_fold":
        data["expansion"] = [
            {
                "function": row.function,
                "base_name": row.base_name,
                "total_benefit": row.total_benefit,
                "count": row.count,
                "conditional": row.conditional,
            }
            for row in expand_fold(g)
        ]
    return data


def sequence_to_json(s: Sequence) -> dict:
    return {
        "est_benefit": s.est_benefit,
        "length": s.length,
        "instance_count": s.instance_count,
        "sync_issues": s.sync_issue_count,
        "transfer_issues": s.transfer_issue_count,
        "entries": [
            {
                "api_name": e.api_name,
                "file": e.file,
                "line": e.line,
                "kinds": sorted(k.value for k in e.kinds),
                "location": e.location(),
            }
            for e in s.entries
        ],
    }


def report_to_json(report: DiogenesReport, *, meta: dict | None = None) -> dict:
    """Convert a full report to JSON-compatible types.

    ``meta`` attaches tool-side annotations — the perturbation ledger
    (``meta.overhead``), the trace id — as a trailing ``meta`` key.
    The default (no meta) output is byte-for-byte what it always was:
    golden fixtures, store fingerprints, and diff inputs all hash the
    *body*, and tool-side bookkeeping must never perturb them.
    """
    from repro.core.autofix import fixes_to_json, recommend_fixes

    analysis = report.analysis
    body = {
        "schema_version": SCHEMA_VERSION,
        "workload": report.workload_name,
        "execution_time": analysis.execution_time,
        "total_est_benefit": analysis.total_benefit,
        "total_est_benefit_percent": report.total_benefit_percent,
        "stages": {
            "stage1": report.stage1.to_json(),
            "stage2": {
                "execution_time": report.stage2.execution_time,
                "event_count": len(report.stage2.events),
            },
            "stage3": report.stage3.to_json(),
            "stage4": report.stage4.to_json(),
        },
        "problems": [problem_to_json(p) for p in analysis.problems],
        "groups": {
            "api_folds": [group_to_json(g) for g in report.api_folds],
            "single_points": [group_to_json(g) for g in report.single_points],
            "folded_functions": [group_to_json(g)
                                 for g in report.folded_functions],
        },
        "sequences": [sequence_to_json(s) for s in report.sequences],
        "fix_recommendations": fixes_to_json(recommend_fixes(report)),
        "warnings": list(getattr(report, "warnings", [])),
        "overhead": {
            "baseline_time": report.overhead.baseline_time,
            "stage_times": dict(report.overhead.stage_times),
            "total_collection_time": report.overhead.total_collection_time,
            "overhead_multiple": report.overhead.overhead_multiple,
        },
    }
    if meta is not None:
        body["meta"] = meta
    return body


def stages_to_json(report: DiogenesReport) -> dict:
    """Full stage-level collection data, losslessly re-analysable.

    Unlike :func:`report_to_json` (a summary for display-oriented
    consumers), this export carries every stage-2 trace event, so a
    downstream tool — or :func:`analyze_from_json` — can rerun stage 5
    with different settings and no new data collection.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": report.workload_name,
        "stage1": report.stage1.to_json(),
        "stage2": report.stage2.to_json(),
        "stage3": report.stage3.to_json(),
        "stage4": report.stage4.to_json(),
    }


def analyze_from_json(data: dict, **analyze_kwargs):
    """Rerun the analysis stage from exported stage data.

    Accepts the dict produced by :func:`stages_to_json` (or its parsed
    JSON) and returns a fresh
    :class:`repro.core.analysis.AnalysisResult`.  Keyword arguments are
    forwarded to :func:`repro.core.analysis.analyze` (e.g. a different
    ``misplaced_min_delay`` or ``benefit_config``).
    """
    from repro.core.analysis import analyze
    from repro.core.records import Stage1Data, Stage2Data, Stage3Data, Stage4Data

    return analyze(
        Stage1Data.from_json(data["stage1"]),
        Stage2Data.from_json(data["stage2"]),
        Stage3Data.from_json(data["stage3"]),
        Stage4Data.from_json(data["stage4"]),
        **analyze_kwargs,
    )


def load_report_json(path: str) -> dict:
    """Read back an exported report file as a plain dict.

    Used by the offline differ (``diogenes diff a.json b.json``) and
    the explorer's ``diff`` command.  Raises :class:`ValueError` with
    the offending path when the file is not JSON or not an object;
    schema validation is the differ's job
    (:func:`repro.core.diffing.require_schema_version`).
    """
    with open(path) as fp:
        try:
            data = json.load(fp)
        except ValueError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not contain a report object")
    return data


def dumps_report(report: DiogenesReport, *, meta: dict | None = None) -> str:
    return json.dumps(report_to_json(report, meta=meta), indent=2)


def session_meta(session) -> dict:
    """The ``meta`` annotation for an observability session.

    Charges the session tracer's own span count to the ledger first
    (the ``tracing`` bucket's parent-side share, booked at finalize
    under the ``(session)`` pseudo-stage; worker-side shares arrive
    per-stage via the merged worker ledgers), then snapshots it.
    Charging is delta-based, so a batch run calling this per report
    never double-books earlier spans.
    """
    # Adopted worker spans (pid set) were already charged per-stage by
    # the worker that minted them; count only locally-opened spans.
    local = sum(1 for s in session.tracer.spans if s.pid is None)
    flushed = getattr(session.tracer, "_ledger_spans_flushed", 0)
    session.tracer._ledger_spans_flushed = local
    session.ledger.charge_tracing("(session)", local - flushed)
    return {
        "trace_id": session.tracer.trace_id,
        "overhead": session.ledger.as_json(),
    }
