"""Report-to-report regression diffing.

The paper frames Diogenes as a tool developers return to across
edit-rerun cycles: fix the top problem, re-measure, check that the
fix recovered what the estimator promised and introduced nothing new.
This module closes that loop over two exported reports (the
``report_to_json`` format): it aggregates problems into *groups* keyed
by (problem kind, source location), then classifies every group as
new, fixed, regressed, improved, or unchanged between the two runs,
alongside the total-runtime and total-benefit deltas.

Inputs are plain JSON dicts, so the differ works identically on a
live :class:`~repro.core.diogenes.DiogenesReport` (via ``to_json``),
a ``--json`` export read back from disk, and a report fetched from
the analysis service's store — and it *refuses* to compare data of
unknown or mismatched schema vintage rather than diffing garbage
(:class:`SchemaMismatchError`).

Everything in the report is virtual-time and content-derived, so two
runs of the same workload/config are bit-equal and every nonzero
delta is a real behaviour change, never measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.jsonio import SCHEMA_VERSION

#: Benefit deltas smaller than this are noise-floor equal.  Virtual
#: time is exactly reproducible, so the epsilon only absorbs float
#: round-trip error through JSON, not measurement jitter.
BENEFIT_EPSILON = 1e-12

#: Classification outcomes, in rendering order.
STATUSES = ("new", "regressed", "improved", "fixed", "unchanged")

#: Display label of each problem kind, by its JSON value
#: (``ProblemKind.value``).
KIND_LABELS = {
    "unnecessary_synchronization": "Unnecessary synchronization",
    "misplaced_synchronization": "Misplaced synchronization",
    "unnecessary_transfer": "Unnecessary (duplicate) transfer",
}


class SchemaMismatchError(ValueError):
    """Two reports (or a report and this tool) disagree on schema."""


def require_schema_version(report_json: dict, source: str = "report") -> int:
    """The report's ``schema_version``, or a loud refusal.

    Reports written before the schema stamp (or hand-edited ones)
    must fail here with a clear message instead of silently diffing
    incomparable data.
    """
    if not isinstance(report_json, dict):
        raise SchemaMismatchError(
            f"{source} is not a report object (got "
            f"{type(report_json).__name__})")
    version = report_json.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise SchemaMismatchError(
            f"{source} carries no schema_version stamp; refusing to "
            f"compare data of unknown vintage (this tool writes and "
            f"understands schema {SCHEMA_VERSION})")
    return version


# ----------------------------------------------------------------------
# Diff data model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupDelta:
    """One problem group's change between run a and run b.

    A group is every problem sharing (kind, source location) — the
    same identity the display groupings fold on, so a "fixed" line
    here names exactly one edit site.
    """

    kind: str
    location: str
    api_name: str
    status: str
    count_a: int
    count_b: int
    benefit_a: float
    benefit_b: float

    @property
    def benefit_delta(self) -> float:
        return self.benefit_b - self.benefit_a


@dataclass
class ReportDiff:
    """Everything that changed between two reports (a = base, b = new)."""

    workload_a: str
    workload_b: str
    schema_version: int
    execution_time_a: float
    execution_time_b: float
    total_benefit_a: float
    total_benefit_b: float
    groups: list[GroupDelta] = field(default_factory=list)

    @property
    def execution_delta(self) -> float:
        """Runtime change in seconds (negative = run b got faster)."""
        return self.execution_time_b - self.execution_time_a

    @property
    def execution_delta_percent(self) -> float:
        if self.execution_time_a <= 0:
            return 0.0
        return 100.0 * self.execution_delta / self.execution_time_a

    def by_status(self, status: str) -> list[GroupDelta]:
        return [g for g in self.groups if g.status == status]

    @property
    def new_groups(self) -> list[GroupDelta]:
        return self.by_status("new")

    @property
    def fixed_groups(self) -> list[GroupDelta]:
        return self.by_status("fixed")

    @property
    def regressed_groups(self) -> list[GroupDelta]:
        return self.by_status("regressed")

    @property
    def improved_groups(self) -> list[GroupDelta]:
        return self.by_status("improved")

    @property
    def unchanged_groups(self) -> list[GroupDelta]:
        return self.by_status("unchanged")

    @property
    def is_regression(self) -> bool:
        """True when run b is worse: new or regressed problem groups."""
        return bool(self.new_groups or self.regressed_groups)

    @property
    def recovered_benefit(self) -> float:
        """Estimated time recovered by the groups that disappeared."""
        return sum(g.benefit_a for g in self.fixed_groups)


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
def _group_problems(report_json: dict) -> dict[tuple[str, str], dict]:
    """Aggregate a report's problems by (kind, location)."""
    groups: dict[tuple[str, str], dict] = {}
    for problem in report_json.get("problems", []):
        key = (problem["kind"], problem["location"])
        entry = groups.setdefault(
            key, {"api_name": problem["api_name"], "count": 0, "benefit": 0.0})
        entry["count"] += 1
        entry["benefit"] += problem["est_benefit"]
    return groups


def _classify(in_a: dict | None, in_b: dict | None) -> str:
    if in_a is None:
        return "new"
    if in_b is None:
        return "fixed"
    delta = in_b["benefit"] - in_a["benefit"]
    if delta > BENEFIT_EPSILON:
        return "regressed"
    if delta < -BENEFIT_EPSILON:
        return "improved"
    return "unchanged"


def diff_reports(a: dict, b: dict) -> ReportDiff:
    """Compare two exported reports; ``a`` is the base, ``b`` the new run.

    Raises :class:`SchemaMismatchError` when either report lacks a
    schema stamp, when the two stamps differ, or when the stamp is not
    the schema this tool understands — old stored reports fail loudly
    instead of producing a garbage diff.
    """
    version_a = require_schema_version(a, "report a")
    version_b = require_schema_version(b, "report b")
    if version_a != version_b:
        raise SchemaMismatchError(
            f"cannot diff across schema versions: report a has "
            f"schema_version {version_a}, report b has {version_b}")
    if version_a != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"reports have schema_version {version_a} but this tool "
            f"understands schema {SCHEMA_VERSION}; re-export them with "
            f"the matching tool version")

    groups_a = _group_problems(a)
    groups_b = _group_problems(b)
    deltas: list[GroupDelta] = []
    for key in sorted(set(groups_a) | set(groups_b)):
        in_a, in_b = groups_a.get(key), groups_b.get(key)
        deltas.append(GroupDelta(
            kind=key[0],
            location=key[1],
            api_name=(in_a or in_b)["api_name"],
            status=_classify(in_a, in_b),
            count_a=in_a["count"] if in_a else 0,
            count_b=in_b["count"] if in_b else 0,
            benefit_a=in_a["benefit"] if in_a else 0.0,
            benefit_b=in_b["benefit"] if in_b else 0.0,
        ))
    # Most consequential first: classification order, then |benefit delta|.
    order = {status: rank for rank, status in enumerate(STATUSES)}
    deltas.sort(key=lambda g: (order[g.status],
                               -abs(g.benefit_delta), g.location))
    return ReportDiff(
        workload_a=a.get("workload", "?"),
        workload_b=b.get("workload", "?"),
        schema_version=version_a,
        execution_time_a=a["execution_time"],
        execution_time_b=b["execution_time"],
        total_benefit_a=a["total_est_benefit"],
        total_benefit_b=b["total_est_benefit"],
        groups=deltas,
    )


# ----------------------------------------------------------------------
# Wire format (the service's /diff endpoint and the CLI round-trip)
# ----------------------------------------------------------------------
def diff_to_json(diff: ReportDiff) -> dict:
    return {
        "schema_version": diff.schema_version,
        "workload_a": diff.workload_a,
        "workload_b": diff.workload_b,
        "execution_time_a": diff.execution_time_a,
        "execution_time_b": diff.execution_time_b,
        "execution_delta": diff.execution_delta,
        "execution_delta_percent": diff.execution_delta_percent,
        "total_est_benefit_a": diff.total_benefit_a,
        "total_est_benefit_b": diff.total_benefit_b,
        "recovered_benefit": diff.recovered_benefit,
        "is_regression": diff.is_regression,
        "counts": {status: len(diff.by_status(status))
                   for status in STATUSES},
        "groups": [
            {
                "kind": g.kind,
                "location": g.location,
                "api_name": g.api_name,
                "status": g.status,
                "count_a": g.count_a,
                "count_b": g.count_b,
                "benefit_a": g.benefit_a,
                "benefit_b": g.benefit_b,
                "benefit_delta": g.benefit_delta,
            }
            for g in diff.groups
        ],
    }


def diff_from_json(data: dict) -> ReportDiff:
    """Rebuild a :class:`ReportDiff` from :func:`diff_to_json` output."""
    return ReportDiff(
        workload_a=data["workload_a"],
        workload_b=data["workload_b"],
        schema_version=data["schema_version"],
        execution_time_a=data["execution_time_a"],
        execution_time_b=data["execution_time_b"],
        total_benefit_a=data["total_est_benefit_a"],
        total_benefit_b=data["total_est_benefit_b"],
        groups=[
            GroupDelta(
                kind=g["kind"], location=g["location"],
                api_name=g["api_name"], status=g["status"],
                count_a=g["count_a"], count_b=g["count_b"],
                benefit_a=g["benefit_a"], benefit_b=g["benefit_b"],
            )
            for g in data["groups"]
        ],
    )


def render_diff(diff) -> str:
    """Delta table for a :class:`ReportDiff`.

    The same rendering serves `diogenes diff a.json b.json` offline,
    the service-backed diff, and the explorer's `diff` command.  It
    lives here, beside the diff it renders, so a diff against the
    service loads no analysis code.
    """
    faster = diff.execution_delta <= 0
    lines = [
        f"Report diff: {diff.workload_a} (a) vs {diff.workload_b} (b)",
        f"  execution time:   a {diff.execution_time_a:.6f}s   "
        f"b {diff.execution_time_b:.6f}s   "
        f"{'-' if faster else '+'}{abs(diff.execution_delta):.6f}s "
        f"({diff.execution_delta_percent:+.2f}%)",
        f"  est recoverable:  a {diff.total_benefit_a:.6f}s   "
        f"b {diff.total_benefit_b:.6f}s",
    ]
    if diff.fixed_groups:
        lines.append(f"  recovered by fixed groups (estimate): "
                     f"{diff.recovered_benefit:.6f}s")
    lines.append("")
    titles = {
        "new": "New problem groups",
        "regressed": "Regressed problem groups",
        "improved": "Improved problem groups",
        "fixed": "Fixed problem groups",
        "unchanged": "Unchanged problem groups",
    }
    for status in STATUSES:
        groups = diff.by_status(status)
        lines.append(f"{titles[status]} ({len(groups)})")
        if status == "unchanged":
            continue  # count only; unchanged detail is noise
        for g in groups:
            label = KIND_LABELS.get(g.kind, g.kind)
            lines.append(
                f"  {label} — {g.location}  "
                f"count {g.count_a}->{g.count_b}  "
                f"benefit {g.benefit_a:.6f}s->{g.benefit_b:.6f}s "
                f"({g.benefit_delta:+.6f}s)")
    lines.append("")
    lines.append("REGRESSION: run b introduces or worsens problems"
                 if diff.is_regression else
                 "No regression: run b introduces no new or worsened "
                 "problem groups")
    return "\n".join(lines)
