"""Per-layer metrics from the spans ``launch.py`` writes.

A layer's time is the summed duration of its spans (spans of one name
never nest), divided by the analysed reports: every report of a CLI
workload, every executed job of a service workload (store hits run no
layer).  Self time is a span's duration minus its children's; a
report's ``unattributed`` residual is its wall minus the self times of
every span that belongs to it.
"""

from __future__ import annotations

import json
import re

#: Timed layers: metric name -> span name.
TIMED = {
    "cli.render_s": "cli.render",
    "instr.discovery_s": "instr.discovery",
    "core.stage1_s": "core.stage1",
    "core.stage2_s": "core.stage2",
    "core.stage3_memtrace_s": "core.stage3_memtrace",
    "core.stage3_hashing_s": "core.stage3_hashing",
    "core.stage4_s": "core.stage4",
    "core.hash_s": "core.hash",
    "core.analysis_s": "core.analysis",
    "core.group_s": "core.group",
    "core.serialize_s": "core.serialize",
    "exec.run_workloads_s": "exec.run_workloads",
    "exec.job_s": "exec.job",
    "exec.codec_s": "exec.codec",
    "exec.cache_get_s": "exec.cache_get",
    "exec.cache_put_s": "exec.cache_put",
    "stream.recompute_s": "stream.recompute",
    "service.store_put_s": "service.store_put",
    "service.trace_put_s": "service.trace_put",
    "service.queue_op_s": "service.queue_op",
    "fleet.pull_s": "fleet.pull",
    "fleet.complete_s": "fleet.complete",
    "fleet.push_s": "fleet.push",
}

#: The collection runs of one report, each executing the workload once.
STAGES = ("core.stage1_s", "core.stage2_s", "core.stage3_memtrace_s",
          "core.stage3_hashing_s", "core.stage4_s")

#: Spans that scope a service job rather than time a layer.
SCOPES = ("service.job", "fleet.job")

#: The per-layer metrics of every workload (BENCHMARK.json's
#: ``per_layer``), with unit and the direction in which each improves.
#: Every time here is measured on every workload; counts and
#: ratios of a layer a workload does not run read 0.
PER_LAYER = {
    "cli.startup_s": ("s", "lower"),
    "instr.discovery_s": ("s", "lower"),
    **{name: ("s", "lower") for name in STAGES},
    "core.hash_s": ("s", "lower"),
    "core.analysis_s": ("s", "lower"),
    "core.group_s": ("s", "lower"),
    "core.serialize_s": ("s", "lower"),
    "apps.bare_s": ("s", "lower"),
    "core.collect_tool_s": ("s", "lower"),
    "core.events": ("count", "higher"),
    "core.problems": ("count", "higher"),
    "instr.intern_entries": ("count", "lower"),
    "stream.snapshots": ("count", "lower"),
    "service.store_hit_ratio": ("ratio", "higher"),
    "fleet.pulls": ("count", "lower"),
    "fleet.pull_empty_ratio": ("ratio", "lower"),
    "fleet.heartbeats": ("count", "lower"),
    "unattributed_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}

#: Times of layers only some workloads run: rendering (CLI), the
#: executor, streaming, service and fleet paths (service).  A traced
#: run prints them and writes them to ``--out`` under
#: ``details.path_layers``; they are not in BENCHMARK.json, where a
#: time that reads 0 on every run of a workload would not be a
#: measurement.
PATH_LAYERS = (
    "cli.render_s", "exec.run_workloads_s", "exec.job_s", "exec.codec_s",
    "exec.cache_get_s", "exec.cache_put_s", "exec.cache_hit_ratio",
    "stream.recompute_s", "service.submit_s", "service.fetch_s",
    "service.queue_wait_s", "service.run_s", "service.poll_lag_s",
    "service.store_put_s", "service.trace_put_s", "service.queue_op_s",
    "fleet.pull_s", "fleet.complete_s", "fleet.push_s",
)


def read_spans(path) -> tuple[dict, list[dict]]:
    """``(header, spans)`` of one traced process."""
    with open(path) as fp:
        lines = [json.loads(line) for line in fp if line.strip()]
    return lines[0], lines[1:]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def startup_seconds(header: dict) -> float:
    """Spawn until ``main`` is entered, minus the shims' own patching."""
    return (header["main_entered"] - header["spawned_at"]
            - header["patch_seconds"])


def prometheus_value(text: str, name: str) -> float:
    """Sum of every sample of metric ``name`` in Prometheus text."""
    pattern = re.compile(rf"^{re.escape(name)}(?:\{{[^}}]*\}})? (\S+)$",
                         re.MULTILINE)
    return sum(float(v) for v in pattern.findall(text))


def span_metrics(spans: list[dict], reports: int) -> dict[str, float]:
    """Timed layers per analysed report, plus the span-derived counts."""
    totals = dict.fromkeys(TIMED.values(), 0.0)
    counts = {"stream.snapshot": 0, "fleet.pull": 0, "fleet.pull_empty": 0,
              "fleet.heartbeat": 0, "exec.cache_get": 0,
              "exec.cache_hit": 0}
    for s in spans:
        name = s["name"]
        if name in totals:
            totals[name] += s["end"] - s["start"]
        if name == "stream.snapshot":
            counts[name] += 1
        elif name == "fleet.pull":
            counts[name] += 1
            counts["fleet.pull_empty"] += not s["hit"]
        elif name == "fleet.heartbeat":
            counts[name] += 1
        elif name == "exec.cache_get":
            counts[name] += 1
            counts["exec.cache_hit"] += bool(s["hit"])
    per = max(reports, 1)
    metrics = {metric: totals[span] / per for metric, span in TIMED.items()}
    metrics["stream.snapshots"] = counts["stream.snapshot"]
    metrics["fleet.pulls"] = counts["fleet.pull"]
    metrics["fleet.pull_empty_ratio"] = (
        counts["fleet.pull_empty"] / counts["fleet.pull"]
        if counts["fleet.pull"] else 0.0)
    metrics["fleet.heartbeats"] = counts["fleet.heartbeat"]
    metrics["exec.cache_hit_ratio"] = (
        counts["exec.cache_hit"] / counts["exec.cache_get"]
        if counts["exec.cache_get"] else 0.0)
    return metrics


def cli_unattributed(header: dict, spans: list[dict], wall: float) -> float:
    """A CLI report's wall not covered by start-up or any span.

    The self times of a process's spans add up to the durations of its
    top-level spans.
    """
    covered = sum(s["end"] - s["start"] for s in spans
                  if s["parent"] is None)
    return wall - startup_seconds(header) - covered


def job_unattributed(spans: list[dict], job_walls: dict[str, float]
                     ) -> list[float]:
    """Per executed service job: its run wall (claimed to done) minus
    the self times of the analysing process's spans inside the job's
    scope span.  The scope span itself counts as unattributed."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    attributed: dict[str, float] = {}
    for s in spans:
        if s["name"] in SCOPES or s["report"] not in job_walls:
            continue
        scope = by_id.get(s["parent"])
        while scope is not None and scope["name"] not in SCOPES:
            scope = by_id.get(scope["parent"])
        if scope is not None:
            attributed[s["report"]] = (attributed.get(s["report"], 0.0)
                                       + own[s["id"]])
    return [wall - attributed.get(job, 0.0)
            for job, wall in job_walls.items()]


def with_derived(metrics: dict, bare_s: float) -> dict:
    """Add ``apps.bare_s`` and the tool's share of collection."""
    metrics["apps.bare_s"] = bare_s
    metrics["core.collect_tool_s"] = (
        sum(metrics[name] for name in STAGES) - len(STAGES) * bare_s)
    return metrics
