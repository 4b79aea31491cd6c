"""JSON export of Diogenes results.

The paper stores collected performance data in JSON "so other tools
can read it"; this module is that interchange surface.  The export is
self-contained: stage data, ranked problems, groupings, sequences, and
overhead accounting, all as plain JSON types.

Every report byte the tool writes (``run --json``, the service's
report store, ``submit --json`` and ``fetch``) comes from one writer,
:func:`dumps_indented`: exactly the text of ``json.dumps(obj,
indent=2)``, the format of the golden reports.  CPython runs ``indent``
only in its pure-Python encoder, which yields one string per token and
joins them all at the end, so it holds about six times the output at
its peak.  The writer appends one string per item instead, and joins
those in batches of :data:`_BATCH`, so it holds about twice the output
and takes about half the time.  The writer needs no analysis code, so
the service's client commands import this module without numpy.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.analysis import ProblemRecord
    from repro.core.diogenes import DiogenesReport
    from repro.core.grouping import ProblemGroup
    from repro.core.sequences import Sequence

SCHEMA_VERSION = 1


def problem_to_json(p: ProblemRecord) -> dict:
    from repro.core.records import frames_to_json

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
        from repro.core.grouping import expand_fold

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
    return dumps_indented(report_to_json(report, meta=meta))


#: Pieces :func:`dumps_indented` collects before joining them into one
#: string.  The pieces are small strings, each several times the size
#: of its text, so the batch bounds that overhead to a few hundred KB.
_BATCH = 4096

_int_repr = int.__repr__
_float_repr = float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_str(value: float) -> str:
    text = _float_repr(value)
    return _NONFINITE.get(text, text)


def _scalar_str(value) -> str | None:
    """JSON text of a scalar, or ``None`` for anything else.  Subclasses
    of ``int`` and ``float`` (``IntEnum``, ``numpy.float64``) are
    written as their base type, and bools before ints, as ``json``
    does."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_repr(value)
    if isinstance(value, float):
        return _float_str(value)
    return None


#: Writers of the exact scalar types that fill a report, looked up
#: before the general :func:`_scalar_str` to save a call per item.
_EXACT_SCALARS = {str: _encode_str, float: _float_str, int: _int_repr}


def _key_str(key) -> str:
    """A dict key as JSON text, converted as ``json`` converts it."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, float):
        return _encode_str(_float_str(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _encode_str(_int_repr(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def dumps_indented(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)``, with a bounded transient.

    Strings go through the C ``encode_basestring_ascii`` that ``json``
    uses, numbers through ``int.__repr__`` and ``float.__repr__`` (NaN
    and the infinities as ``json`` spells them), and lists and tuples
    are both arrays.  An unsupported value or key type raises the same
    ``TypeError``.  Unlike ``json.dumps``, it does not look for
    circular references: one recurses until ``RecursionError``.
    """
    text = _scalar_str(obj)
    if text is not None:
        return text
    done: list[str] = []
    parts: list[str] = []
    append = parts.append
    # A report repeats a few dozen keys tens of thousands of times.
    # Only ``str`` keys are cached: ``1`` and ``True`` are equal keys.
    key_text: dict[str, str] = {}

    def write(o, indent: str) -> None:
        # ``o`` is a container; ``indent`` is the newline and indent of
        # its closing bracket.  Each item is appended as one string:
        # separator, indent, key and, for a scalar, its value.
        if isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = indent + "  "
            sep, comma = "{" + inner, "," + inner
            for key, value in o.items():
                head = key_text.get(key)
                if head is None:
                    head = _key_str(key) + ": "
                    if type(key) is str:
                        key_text[key] = head
                exact = _EXACT_SCALARS.get(type(value))
                text = exact(value) if exact else _scalar_str(value)
                if text is not None:
                    append(f"{sep}{head}{text}")
                else:
                    append(sep + head)
                    write(value, inner)
                sep = comma
                if len(parts) >= _BATCH:
                    done.append("".join(parts))
                    parts.clear()
            append(indent + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                append("[]")
                return
            inner = indent + "  "
            sep, comma = "[" + inner, "," + inner
            for value in o:
                exact = _EXACT_SCALARS.get(type(value))
                text = exact(value) if exact else _scalar_str(value)
                if text is not None:
                    append(sep + text)
                else:
                    append(sep)
                    write(value, inner)
                sep = comma
                if len(parts) >= _BATCH:
                    done.append("".join(parts))
                    parts.clear()
            append(indent + "]")
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} "
                            f"is not JSON serializable")

    write(obj, "\n")
    done.append("".join(parts))
    return "".join(done)


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
