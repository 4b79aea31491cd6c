"""Terminal rendering of Diogenes results.

Reproduces the displays shown in the paper:

* the overview list sorted by potential benefit (Figure 7, left);
* the expansion of an API fold by calling function (Figure 7, right);
* the numbered sequence listing with recoverable time (Figure 6);
* the subsequence refined estimate (Figure 8).

All functions return strings so the CLI, the examples, and the benches
can print or snapshot them.
"""

from __future__ import annotations

from repro.core.diffing import KIND_LABELS, render_diff  # noqa: F401
from repro.core.diogenes import DiogenesReport
from repro.core.graph import ProblemKind
from repro.core.grouping import ProblemGroup, expand_fold
from repro.core.sequences import Sequence

_KIND_LABEL = {kind: KIND_LABELS[kind.value] for kind in ProblemKind
               if kind.value in KIND_LABELS}


def _pct(report: DiogenesReport, seconds: float) -> float:
    return report.analysis.percent(seconds)


def render_overview(report: DiogenesReport, limit: int = 10) -> str:
    """The top-level display: folds and sequences ranked by benefit."""
    rows: list[tuple[float, str]] = []
    for fold in report.api_folds:
        rows.append((fold.total_benefit, f"Fold on {fold.label.split()[-1]}"))
    for seq in report.sequences:
        first = seq.entries[0]
        rows.append((
            seq.est_benefit,
            f"Sequence starting at call {first.location()}",
        ))
    rows.sort(key=lambda r: r[0], reverse=True)

    lines = [
        "Diogenes Overview Display",
        "",
        "Time(s) (% of execution time)",
    ]
    for benefit, label in rows[:limit]:
        lines.append(f"{benefit:>10.3f}s ({_pct(report, benefit):5.2f}%)  {label}")
    lines += ["", "Back/Previous", "Exit"]
    return "\n".join(lines)


def render_fold_expansion(report: DiogenesReport, fold: ProblemGroup) -> str:
    """Figure 7 right: per-calling-function expansion of one fold."""
    lines = [
        f"{fold.total_benefit:.3f}s"
        f"({_pct(report, fold.total_benefit):.2f}%) Fold on "
        f"{fold.label.split()[-1]}",
    ]
    for row in expand_fold(fold):
        lines.append(
            f"  {row.total_benefit:.3f}s({_pct(report, row.total_benefit):.2f}%) "
            f"{row.function}"
        )
        if row.conditional:
            lines.append("    Conditionally unnecessary (see: conditions)")
    return "\n".join(lines)


def render_sequence(report: DiogenesReport, seq: Sequence,
                    elide_over: int = 30) -> str:
    """Figure 6: numbered listing with recoverable time."""
    lines = [
        f"Time Recoverable: {seq.est_benefit:.3f}s "
        f"({_pct(report, seq.est_benefit):.2f}% of execution time)",
        f"Number of Sync Issues: {seq.sync_issue_count} "
        f"Number of Transfer Issues: {seq.transfer_issue_count}",
        "",
        "Select start/ending subsequence to get refined estimate",
    ]
    entries = seq.listing()
    if len(entries) <= elide_over:
        lines += entries
    else:
        lines += entries[: elide_over // 2] + ["..."] + entries[-elide_over // 2 :]
    return "\n".join(lines)


def render_subsequence(report: DiogenesReport, sub: Sequence,
                       start_entry: int) -> str:
    """Figure 8: refined subsequence estimate."""
    lines = [
        f"Time Recoverable In Subsequence: {sub.est_benefit:.3f}s",
        f"({_pct(report, sub.est_benefit):.2f}% of execution time)",
        "",
    ]
    for offset, entry in enumerate(sub.entries):
        lines.append(f"{start_entry + offset}. {entry.location()}")
    return "\n".join(lines)


def render_problem_list(report: DiogenesReport, limit: int = 20) -> str:
    """Flat ranked problem listing with per-problem detail."""
    lines = [
        f"Workload: {report.workload_name}",
        f"Baseline execution time: {report.analysis.execution_time:.3f}s",
        f"Estimated total recoverable: {report.total_benefit:.3f}s "
        f"({report.total_benefit_percent:.2f}%)",
        "",
    ]
    for i, p in enumerate(report.analysis.problems[:limit], start=1):
        lines.append(
            f"{i:>3}. {p.est_benefit:.6f}s ({_pct(report, p.est_benefit):.2f}%)  "
            f"{_KIND_LABEL[p.kind]} — {p.location()}"
        )
        if p.kind is ProblemKind.MISPLACED_SYNC:
            lines.append(f"       first use of protected data "
                         f"{p.first_use_time * 1e6:.1f}us after sync")
    remaining = len(report.analysis.problems) - limit
    if remaining > 0:
        lines.append(f"... and {remaining} more")
    return "\n".join(lines)


def render_overhead(report: DiogenesReport) -> str:
    """§5.3-style collection cost summary."""
    oh = report.overhead
    lines = [
        "Collection overhead",
        f"  baseline run:         {oh.baseline_time:.3f}s",
    ]
    for stage, t in oh.stage_times.items():
        lines.append(f"  {stage:<20}  {t:.3f}s")
    lines.append(
        f"  total collection:     {oh.total_collection_time:.3f}s "
        f"({oh.overhead_multiple:.1f}x baseline)"
    )
    return "\n".join(lines)


def render_full_report(report: DiogenesReport) -> str:
    """Everything, for the CLI's default output."""
    parts = [render_overview(report), ""]
    for fold in report.api_folds[:3]:
        parts += [render_fold_expansion(report, fold), ""]
    for seq in report.sequences[:2]:
        parts += [render_sequence(report, seq), ""]
    parts += [render_problem_list(report), "", render_overhead(report)]
    return "\n".join(parts)
