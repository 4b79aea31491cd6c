"""Traced launcher: run the diogenes CLI with timing shims on its layers.

::

    PYTHONPATH=src python benchmarks/e2e/launch.py --spans OUT.jsonl \\
        --spawned-at EPOCH [--report ID] -- run cumf-als --json r.json

Before ``repro.core.cli.main`` runs, an import hook wraps the public
functions named in :data:`LAYERS` in timing shims the moment their
module finishes executing.  Patching at module load also covers every
eager ``from ... import`` binding: a module importing a patched name
imports it after the patch (``repro.core.diogenes`` binds
``run_stage1`` at import, ``repro.exec.jobs`` looks it up lazily; both
see the shim).  No file under ``src/`` changes.

Each call records a span — name, start, end, parent span, report id —
in memory; the spans are written as JSON lines when ``main`` returns.
The first line is a header with the process's wall-clock stamps.  A
span nested in a span of the same name (a recursive codec, a renderer
calling a renderer) is not recorded twice.
"""

from __future__ import annotations

import argparse
import functools
import importlib.machinery
import itertools
import json
import sys
import threading
import time

#: module -> [(attribute, span name)].  ``Class.method`` patches a
#: method; ``render_*`` patches every module function with the prefix.
#: Span names are the layer metric names without their ``_s`` suffix.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "repro.core.report": [("render_*", "cli.render")],
    "repro.instr.discovery": [("discover_sync_function", "instr.discovery")],
    "repro.core.stage1_baseline": [("run_stage1", "core.stage1")],
    "repro.core.stage2_tracing": [("run_stage2", "core.stage2")],
    # The probes hash through _transfer_digest (buffer-cached digests,
    # falling back to hash_payload).
    "repro.core.stage3_memtrace": [("run_stage3", "core.stage3"),
                                   ("_transfer_digest", "core.hash"),
                                   ("hash_payload", "core.hash")],
    "repro.core.stage4_syncuse": [("run_stage4", "core.stage4")],
    "repro.core.analysis": [("analyze", "core.analysis"),
                            ("analyze_columns", "stream.recompute")],
    "repro.core.grouping": [("group_by_api", "core.group"),
                            ("group_single_point", "core.group"),
                            ("group_folded_function", "core.group")],
    "repro.core.sequences": [("find_sequences", "core.group")],
    "repro.core.diogenes": [("stability_warnings", "core.group")],
    "repro.core.jsonio": [("report_to_json", "core.serialize"),
                          ("dumps_report", "core.serialize")],
    "repro.exec.executor": [("StageExecutor.run_workloads",
                             "exec.run_workloads")],
    "repro.exec.jobs": [("execute_job", "exec.job")],
    "repro.exec.columnar": [("encode_tree", "exec.codec"),
                            ("decode_tree", "exec.codec")],
    "repro.exec.cache": [("ResultCache.get", "exec.cache_get"),
                         ("ResultCache.put", "exec.cache_put")],
    "repro.stream.incremental": [("StreamAnalyzer._snapshot",
                                  "stream.snapshot")],
    "repro.service.queue": [("JobQueueBackend.submit", "service.queue_op"),
                            ("JobQueueBackend.claim_next", "service.queue_op"),
                            ("JobQueueBackend.claim_job", "service.queue_op"),
                            ("JobQueueBackend.mark_done", "service.queue_op")],
    "repro.service.store": [("ReportStore.put", "service.store_put"),
                            ("ReportStore.put_trace", "service.trace_put")],
    "repro.service.sqlite": [("SqliteReportStore.put", "service.store_put"),
                             ("SqliteReportStore.put_trace",
                              "service.trace_put")],
    "repro.service.daemon": [("ServiceDaemon._execute", "service.job")],
    "repro.fleet.coordinator": [("FleetCoordinator.complete",
                                 "fleet.complete")],
    "repro.fleet.worker": [("WorkerNode.process", "fleet.job")],
    "repro.service.client": [("ServiceClient.fleet_pull", "fleet.pull"),
                             ("ServiceClient.fleet_complete", "fleet.push"),
                             ("ServiceClient.fleet_heartbeat",
                              "fleet.heartbeat")],
}

#: Spans that scope one report (a service job) rather than time a
#: layer; their argument names the report id.
SCOPES = {
    "service.job": lambda args, kwargs: args[1].id,
    "fleet.job": lambda args, kwargs: args[1]["id"],
    "fleet.complete": lambda args, kwargs: args[2],
}


#: Spans that record whether the call returned something (a cache
#: hit, a pull that got a job).
HITS = {"exec.cache_get", "fleet.pull"}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "report", "hit")

    def __init__(self, sid, name, parent, report) -> None:
        self.id = sid
        self.name = name
        self.parent = parent
        self.report = report
        self.hit = None
        self.end = None
        self.start = time.perf_counter()

    def to_json(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self, report: str | None) -> None:
        self.default_report = report
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        if any(span.name == name for span in stack):
            return fn(*args, **kwargs)
        if name == "core.stage3":
            name = f"core.stage3_{kwargs.get('mode', 'both')}"
        elif name == "stream.recompute" and any(
                span.name == "core.analysis" for span in stack):
            # analyze() runs analyze_columns itself; only rolling
            # snapshot recomputes count as streaming work.
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else None
        if name in SCOPES:
            report = SCOPES[name](args, kwargs)
        elif parent is not None:
            report = parent.report
        else:
            report = self.default_report
        span = Span(next(self._ids), name,
                    parent.id if parent is not None else None, report)
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
            if name in HITS:
                span.hit = result is not None
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fp:
            fp.write(json.dumps(header) + "\n")
            for span in self.spans:
                fp.write(json.dumps(span.to_json()) + "\n")


def _shim(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)
    return timed


def _patch(module, targets, recorder: Recorder) -> None:
    for attr, name in targets:
        if attr.endswith("*"):
            for key, value in list(vars(module).items()):
                if key.startswith(attr[:-1]) and callable(value):
                    setattr(module, key, _shim(recorder, name, value))
            continue
        owner, _, member = attr.rpartition(".")
        holder = getattr(module, owner) if owner else module
        setattr(holder, member, _shim(recorder, name, getattr(holder,
                                                              member)))


class _PatchingFinder:
    """Meta-path finder that patches target modules as they load."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.patch_seconds = 0.0

    def find_spec(self, fullname, path, target=None):
        targets = LAYERS.get(fullname)
        if targets is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            t0 = time.perf_counter()
            _patch(module, targets, self.recorder)
            self.patch_seconds += time.perf_counter() - t0

        spec.loader.exec_module = exec_and_patch
        return spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True,
                        help="write the spans here as JSON lines")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the parent spawned us")
    parser.add_argument("--report", default=None,
                        help="report id for spans outside any job scope")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="-- then the diogenes arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    recorder = Recorder(args.report)
    finder = _PatchingFinder(recorder)
    sys.meta_path.insert(0, finder)
    from repro.core.cli import main as cli_main

    entered = time.time()
    entered_perf = time.perf_counter()
    try:
        return cli_main(argv)
    finally:
        returned = time.time()
        stacks = sys.modules.get("repro.instr.stacks")
        recorder.write(args.spans, {
            "spawned_at": args.spawned_at, "main_entered": entered,
            "main_entered_perf": entered_perf, "main_returned": returned,
            "patch_seconds": finder.patch_seconds,
            "intern_entries": (sum(stacks.intern_table_sizes().values())
                               if stacks is not None else 0),
            "report": args.report, "argv": argv})


if __name__ == "__main__":
    sys.exit(main())
