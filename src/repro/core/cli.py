"""Command line interface.

Diogenes "is launched in a similar fashion to hpcprof and NVProf" and
offers a simple terminal interface over the analysed data (§4).  The
reproduction's CLI runs a registered workload through all five stages
and renders the displays::

    diogenes run cumf-als                    # full report
    diogenes run cuibm --view overview       # Figure 7 left
    diogenes run cuibm --view fold --fold cudaFree
    diogenes run cumf-als --view sequence    # Figure 6
    diogenes run cumf-als --view subsequence --from 10 --to 23   # Figure 8
    diogenes run cuibm --view fixes          # §6: remedy recommendations
    diogenes run amg --json out.json         # machine-readable export
    diogenes run cuibm --jobs 4 --cache-dir .dio-cache   # parallel + cached
    diogenes batch cumf-als cuibm amg --jobs 4           # shared executor
    diogenes list                            # available workloads

Independent collection runs fan out to worker processes with ``--jobs``
and land in a content-addressed result cache with ``--cache-dir``; the
report is byte-identical to a serial run either way (see
docs/parallel_execution.md).

The third execution path is the persistent analysis service
(docs/service.md)::

    diogenes serve --data-dir .dio-service               # the daemon
    diogenes submit cuibm --param steps=2 --wait         # run via service
    diogenes status                                      # job table
    diogenes fetch <report-key-or-job-id> --out r.json   # stored report
    diogenes fetch job-000001 --trace-out trace.json     # job's full trace
    diogenes tail job-000001                             # live event stream
    diogenes tail job-000001 --problems                  # live ranked problems
    diogenes overhead r.json                             # perturbation ledger
    diogenes diff <key-a> <key-b>                        # regression diff
    diogenes diff old.json new.json                      # same, offline
    diogenes cache stats .dio-cache                      # cache accounting
    diogenes cache prune .dio-cache --max-bytes 100M --max-age 7d
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import repro.obs as obs
from repro.apps.base import registry
from repro.core.diogenes import Diogenes, DiogenesConfig
from repro.core import report as reports
from repro.core.jsonio import dumps_report, session_meta


def _load_workloads() -> None:
    """Import application modules so they self-register."""
    import repro.apps.synthetic  # noqa: F401
    import repro.apps.cumf_als  # noqa: F401
    import repro.apps.cuibm  # noqa: F401
    import repro.apps.amg  # noqa: F401
    import repro.apps.rodinia_gaussian  # noqa: F401
    import repro.apps.replay  # noqa: F401
    import repro.fuzz.generator  # noqa: F401


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diogenes",
        description="Feed-forward measurement of problematic GPU "
                    "synchronizations and memory transfers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads")

    run = sub.add_parser("run", help="run all FFM stages on a workload")
    run.add_argument("workload", help="registered workload name")
    run.add_argument("--view", default="full",
                     choices=["full", "overview", "fold", "sequence",
                              "subsequence", "problems", "overhead", "fixes"],
                     help="which display to render")
    run.add_argument("--fold", default=None,
                     help="API name to expand (with --view fold)")
    run.add_argument("--sequence-index", type=int, default=0,
                     help="which sequence (rank order) to display")
    run.add_argument("--from", dest="start_entry", type=int, default=None,
                     help="subsequence start entry (1-based)")
    run.add_argument("--to", dest="end_entry", type=int, default=None,
                     help="subsequence end entry (inclusive)")
    run.add_argument("--json", dest="json_path", default=None,
                     help="also export the full report as JSON to this path")
    run.add_argument("--dedup-policy", default="content",
                     choices=["content", "content+dst"])
    run.add_argument("--param", dest="params", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="workload constructor argument, repeatable "
                          "(e.g. --param iterations=50 --param fix=full); "
                          "values parse as int/float/bool when possible")
    run.add_argument("--profile", dest="profile_dir", default=None,
                     metavar="DIR",
                     help="dump a cProfile of each stage to DIR/<stage>.prof "
                          "(tool-side profiling; the report is unaffected — "
                          "see docs/performance.md)")
    _add_exec_flags(run)
    _add_obs_flags(run)

    batch = sub.add_parser(
        "batch", help="run several workloads through one shared executor")
    batch.add_argument("workloads", nargs="+",
                       help="registered workload names")
    batch.add_argument("--dedup-policy", default="content",
                       choices=["content", "content+dst"])
    batch.add_argument("--json-dir", default=None, metavar="DIR",
                       help="write one <workload>.json report per app")
    _add_exec_flags(batch)
    _add_obs_flags(batch)

    explore = sub.add_parser(
        "explore", help="run the stages, then explore interactively")
    explore.add_argument("workload", help="registered workload name")
    explore.add_argument("--param", dest="params", action="append",
                         default=[], metavar="KEY=VALUE")
    explore.add_argument("--dedup-policy", default="content",
                         choices=["content", "content+dst"])

    serve = sub.add_parser(
        "serve", help="run the persistent analysis daemon (docs/service.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8123)
    serve.add_argument("--data-dir", default=".dio-service", metavar="DIR",
                       help="job queue and report store home "
                            "(default: .dio-service)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="slots of the in-process fleet node: concurrently "
                            "analysed submissions (default: 2; 0: none)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="process fan-out per analysis (default: 1)")
    serve.add_argument("--backend", default="sqlite", choices=["sqlite"],
                       help="queue/store persistence (sqlite, the only "
                            "backend; accepted for older scripts)")
    serve.add_argument("--max-queue", type=int, default=None, metavar="N",
                       help="reject /submit with 429 + Retry-After once N "
                            "jobs wait (default: unbounded)")
    serve.add_argument("--lease-seconds", type=float, default=30.0,
                       metavar="S",
                       help="fleet worker lease duration; an expired lease "
                            "returns the job for redelivery, and a worker "
                            "silent for two leases is not live (default: 30)")

    worker = sub.add_parser(
        "worker",
        help="run a fleet worker node pulling jobs from a coordinator "
             "(docs/service.md, Fleet mode)")
    worker.add_argument("--coordinator", default="http://127.0.0.1:8123",
                        metavar="URL",
                        help="the `diogenes serve` endpoint to pull from "
                             "(default: http://127.0.0.1:8123)")
    worker.add_argument("--id", dest="worker_id", default=None,
                        metavar="NAME",
                        help="worker id (default: <hostname>-<pid>)")
    worker.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="process fan-out per analysis (default: 1)")
    worker.add_argument("--poll-interval", type=_positive_seconds,
                        default=0.2, metavar="S",
                        help="longest the coordinator holds one empty pull "
                             "before answering; a submitted job is claimed "
                             "at once (default: 0.2)")
    worker.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="exit after executing N jobs (default: run "
                             "until SIGTERM)")

    submit = sub.add_parser(
        "submit", help="submit a workload to a running analysis service")
    submit.add_argument("workload", help="registered workload name")
    submit.add_argument("--param", dest="params", action="append", default=[],
                        metavar="KEY=VALUE")
    submit.add_argument("--force", action="store_true",
                        help="re-run: the job is never answered from a "
                             "report stored before it was submitted")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes")
    submit.add_argument("--json", dest="json_path", default=None,
                        metavar="PATH",
                        help="with --wait: write the fetched report here")
    _add_url_flag(submit)

    status = sub.add_parser(
        "status", help="show service jobs (all, or one by id)")
    status.add_argument("job_id", nargs="?", default=None)
    _add_url_flag(status)

    fetch = sub.add_parser(
        "fetch", help="fetch a stored report by report key or job id")
    fetch.add_argument("key", help="report key, or a job id (job-NNNNNN)")
    fetch.add_argument("--out", default=None, metavar="PATH",
                       help="write the report JSON here (default: stdout)")
    fetch.add_argument("--trace-out", default=None, metavar="PATH",
                       help="also write the job's distributed trace as "
                            "Chrome-trace JSON (the argument must be a "
                            "job id; traces are stored per job)")
    _add_url_flag(fetch)

    tail = sub.add_parser(
        "tail", help="stream a service job's live events until it finishes")
    tail.add_argument("job_id", help="job id (job-NNNNNN)")
    tail.add_argument("--after", type=int, default=0, metavar="SEQ",
                      help="resume after this event sequence number")
    tail.add_argument("--poll-timeout", type=float, default=10.0,
                      metavar="SECONDS",
                      help="server-side long-poll window per request "
                           "(default: 10)")
    tail.add_argument("--problems", action="store_true",
                      help="render the latest streaming snapshot's ranked "
                           "problem table instead of raw event lines")
    tail.add_argument("--json", action="store_true", dest="as_json",
                      help="emit each event as one NDJSON line (machine "
                           "readable; mutually exclusive with --problems)")
    _add_url_flag(tail)

    overhead = sub.add_parser(
        "overhead",
        help="show a report's perturbation ledger (tool self-overhead)")
    overhead.add_argument("report",
                          help="report JSON file exported with --json while "
                               "observability was on (meta.overhead)")

    diff = sub.add_parser(
        "diff", help="regression-diff two reports (files, or stored keys)")
    diff.add_argument("report_a", help="baseline: report JSON file, "
                                       "report key, or job id")
    diff.add_argument("report_b", help="new run: report JSON file, "
                                       "report key, or job id")
    diff.add_argument("--json", dest="json_path", default=None,
                      metavar="PATH", help="also write the diff as JSON")
    diff.add_argument("--fail-on-regression", action="store_true",
                      help="exit 1 when run b adds or worsens problem "
                           "groups (for CI gates)")
    _add_url_flag(diff)

    fuzz = sub.add_parser(
        "fuzz",
        help="validate seeded fuzz workloads: planted-problem recall + "
             "estimated-vs-actual benefit (docs/fuzzing_and_replay.md)")
    fuzz.add_argument("--seed", type=int, default=0, metavar="N",
                      help="first seed of the sweep (default: 0)")
    fuzz.add_argument("--count", type=int, default=1, metavar="N",
                      help="number of consecutive seeds (default: 1)")
    fuzz.add_argument("--segments", type=int, default=None, metavar="N",
                      help="fix the per-app segment count (default: the "
                           "seed chooses 3-7)")
    fuzz.add_argument("--tol-rel", type=float, default=None, metavar="F",
                      help="relative est-vs-actual tolerance (default: 0.1)")
    fuzz.add_argument("--tol-abs-per-op", type=float, default=None,
                      metavar="SECONDS",
                      help="absolute tolerance per fixed operation "
                           "(default: 15e-6)")
    fuzz.add_argument("--out", default=None, metavar="PATH",
                      help="write the campaign manifest JSON (byte-stable: "
                           "the same sweep always produces the same bytes)")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress per-seed progress lines")

    cache = sub.add_parser(
        "cache", help="manage a stage-result cache directory")
    cache.add_argument("action", choices=["stats", "prune"])
    cache.add_argument("directory", help="the --cache-dir to inspect")
    cache.add_argument("--max-bytes", default=None, metavar="SIZE",
                       help="prune: keep at most SIZE bytes "
                            "(suffixes K/M/G accepted, e.g. 100M)")
    cache.add_argument("--max-age", default=None, metavar="AGE",
                       help="prune: drop entries unused for AGE "
                            "(seconds, or suffixes m/h/d, e.g. 7d)")
    return parser


def _add_url_flag(parser) -> None:
    parser.add_argument("--url", default="http://127.0.0.1:8123",
                        help="analysis service endpoint "
                             "(default: http://127.0.0.1:8123)")


def _add_obs_flags(parser) -> None:
    """Self-observability export flags (run + batch)."""
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a trace of the tool's own pipeline: "
                             "Chrome-trace JSON (open in Perfetto), or "
                             "JSON-lines if PATH ends in .jsonl")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write pipeline metrics: Prometheus text "
                             "format, or JSON if PATH ends in .json")
    parser.add_argument("--verbose-stages", action="store_true",
                        help="print a per-stage observability summary "
                             "(wall + virtual time, counters) after the run")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="arm the flight recorder: when a stage span "
                             "fails, dump the recent structured-event ring "
                             "to DIR as JSONL")


def _add_exec_flags(parser) -> None:
    """Parallel-execution and result-cache flags (run + batch)."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan independent stage runs out to N worker "
                             "processes (default: 1, serial in-process)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed stage-result cache; "
                             "re-runs skip already-measured stages "
                             "(default: none)")


def _make_executor(args):
    """Build a StageExecutor when the flags ask for one, else None."""
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.jobs == 1 and args.cache_dir is None:
        return None
    from repro.exec import StageExecutor

    return StageExecutor(jobs=args.jobs, cache_dir=args.cache_dir)


def _parse_value(raw: str):
    """Best-effort typed parse of a --param value."""
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        params[key] = _parse_value(value)
    return params


def _render(args, report) -> str:
    if args.view == "overview":
        return reports.render_overview(report)
    if args.view == "problems":
        return reports.render_problem_list(report)
    if args.view == "overhead":
        return reports.render_overhead(report)
    if args.view == "fixes":
        from repro.core.autofix import render_fixes

        return render_fixes(report)
    if args.view == "fold":
        if not args.fold:
            raise SystemExit("--view fold requires --fold <api-name>")
        for fold in report.api_folds:
            if fold.label.split()[-1] == args.fold:
                return reports.render_fold_expansion(report, fold)
        raise SystemExit(f"no fold on {args.fold!r}; available: "
                         f"{[f.label.split()[-1] for f in report.api_folds]}")
    if args.view in ("sequence", "subsequence"):
        if not report.sequences:
            raise SystemExit("no problematic sequences found")
        try:
            seq = report.sequences[args.sequence_index]
        except IndexError:
            raise SystemExit(
                f"sequence index {args.sequence_index} out of range "
                f"({len(report.sequences)} sequences)"
            ) from None
        if args.view == "sequence":
            return reports.render_sequence(report, seq)
        if args.start_entry is None or args.end_entry is None:
            raise SystemExit("--view subsequence requires --from and --to")
        from repro.core.sequences import subsequence

        sub = subsequence(report.analysis, seq, args.start_entry,
                          args.end_entry)
        return reports.render_subsequence(report, sub, args.start_entry)
    return reports.render_full_report(report)


def _export_observability(args, session, reports=()) -> None:
    """Write --trace-out / --metrics-out and the --verbose-stages table."""
    from repro.obs.render import render_session

    if args.trace_out:
        if args.trace_out.endswith(".jsonl"):
            session.tracer.write_jsonl(args.trace_out)
        else:
            # Chrome export gets an extra lane per analyzed workload:
            # the application's own traced timeline (pid 3+), which
            # `diogenes run replay --param trace=...` can re-ingest.
            from repro.apps.replay import app_timeline_events
            doc = session.tracer.to_chrome_trace()
            for offset, report in enumerate(reports):
                doc["traceEvents"].extend(
                    app_timeline_events(report, pid=3 + offset))
            with open(args.trace_out, "w") as fp:
                json.dump(doc, fp)
        print(f"pipeline trace written to {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        if args.metrics_out.endswith(".json"):
            session.metrics.write_json(args.metrics_out)
        else:
            session.metrics.write_prometheus(args.metrics_out)
        print(f"pipeline metrics written to {args.metrics_out}",
              file=sys.stderr)
    if args.verbose_stages:
        print("\n" + render_session(session.tracer, session.metrics,
                                    session.ledger))


def _run_batch(args) -> int:
    """Run several workloads through one shared executor + cache."""
    import os

    from repro.core.diogenes import report_from_stage_results
    from repro.exec import StageExecutor, WorkloadSpec

    config = DiogenesConfig(dedup_policy=args.dedup_policy)
    try:
        workloads = [registry.create(name) for name in args.workloads]
    except KeyError as exc:
        raise SystemExit(str(exc)) from exc
    specs = [WorkloadSpec.for_workload(w) for w in workloads]

    observing = (args.trace_out or args.metrics_out or args.verbose_stages
                 or args.flight_dir)
    session = (obs.enable(obs.Observability(flight_dir=args.flight_dir))
               if observing else None)
    try:
        with StageExecutor(jobs=args.jobs,
                           cache_dir=args.cache_dir) as executor:
            results = executor.run_workloads(specs, config)
        reports = [
            report_from_stage_results(getattr(w, "name", spec.name),
                                      results[spec], config)
            for w, spec in zip(workloads, specs)
        ]
    finally:
        if session is not None:
            obs.disable()

    header = (f"{'workload':<28} {'problems':>8} {'est benefit':>12} "
              f"{'exec time':>10} {'warnings':>8}")
    print(header)
    print("-" * len(header))
    for name, report in zip(args.workloads, reports):
        print(f"{name:<28} {len(report.analysis.problems):>8} "
              f"{report.total_benefit_percent:>11.2f}% "
              f"{report.analysis.execution_time * 1e3:>8.3f}ms "
              f"{len(report.warnings):>8}")
        if args.json_dir:
            os.makedirs(args.json_dir, exist_ok=True)
            path = os.path.join(args.json_dir, f"{name}.json")
            meta = session_meta(session) if session is not None else None
            with open(path, "w") as fp:
                fp.write(dumps_report(report, meta=meta))
    if args.json_dir:
        print(f"\nJSON reports written to {args.json_dir}", file=sys.stderr)
    if session is not None:
        _export_observability(args, session, reports)
    return 0


# ----------------------------------------------------------------------
# Service and cache-management subcommands (docs/service.md)
# ----------------------------------------------------------------------
_SIZE_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _parse_size(raw: str | None) -> int | None:
    """``"100M"`` -> bytes; plain integers pass through."""
    if raw is None:
        return None
    text = raw.strip().lower().removesuffix("b")
    mult = _SIZE_SUFFIXES.get(text[-1:], None)
    if mult is not None:
        text = text[:-1]
    try:
        return int(float(text) * (mult or 1))
    except ValueError:
        raise SystemExit(f"bad size {raw!r} (try 500000, 100M, 2G)") from None


def _parse_age(raw: str | None) -> float | None:
    """``"7d"`` -> seconds; plain numbers are seconds already."""
    if raw is None:
        return None
    text = raw.strip().lower()
    mult = _AGE_SUFFIXES.get(text[-1:], None)
    if mult is not None:
        text = text[:-1]
    try:
        return float(text) * (mult or 1.0)
    except ValueError:
        raise SystemExit(f"bad age {raw!r} (try 3600, 30m, 12h, 7d)") from None


def _human_bytes(n: int | float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GB"  # pragma: no cover - unreachable


def _positive_seconds(raw: str) -> float:
    """argparse type: a finite number of seconds > 0."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds > 0, not {raw!r}")
    return value


def _client(args):
    """The command's one service client; :func:`main` closes it."""
    from repro.service.client import ServiceClient

    if getattr(args, "client", None) is None:
        args.client = ServiceClient(args.url)
    return args.client


def _cmd_serve(args) -> int:
    from repro.service.daemon import ServiceDaemon

    try:
        daemon = ServiceDaemon(args.data_dir, workers=args.workers,
                               jobs=args.jobs, max_queue=args.max_queue,
                               lease_seconds=args.lease_seconds)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    print(f"diogenes analysis service on http://{args.host}:{args.port} "
          f"(data: {args.data_dir}; POST /shutdown to stop)",
          file=sys.stderr)
    daemon.run(args.host, args.port)
    return 0


def _cmd_worker(args) -> int:
    import signal

    from repro.fleet.worker import WorkerNode

    node = WorkerNode(args.coordinator, worker_id=args.worker_id,
                      jobs=args.jobs, poll_interval=args.poll_interval,
                      on_event=lambda name, **fields: print(
                          f"[{name}] " + " ".join(
                              f"{k}={v}" for k, v in fields.items()),
                          file=sys.stderr, flush=True))
    # SIGTERM/SIGINT drain gracefully: the in-flight job finishes and
    # pushes home, then the loop exits 0.
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: node.stop())
        except ValueError:  # pragma: no cover - non-main thread
            pass
    print(f"diogenes fleet worker {node.worker_id} pulling from "
          f"{args.coordinator} (SIGTERM to drain)", file=sys.stderr)
    executed = node.run(max_jobs=args.max_jobs)
    print(f"worker {node.worker_id} drained after {executed} jobs",
          file=sys.stderr)
    return 0


def _cmd_submit(args) -> int:
    import json

    client = _client(args)
    result = client.submit(args.workload, parse_params(args.params),
                           force=args.force)
    job = result["job"]
    origin = "served from report store" if result["cached"] else "queued"
    print(f"{job['id']}  {job['state']}  ({origin})")
    print(f"report key: {job['report_key']}")
    if not args.wait:
        return 0
    job = client.wait(job["id"])
    print(f"{job['id']}  {job['state']}")
    if args.json_path:
        report = client.report(job["report_key"])
        with open(args.json_path, "w") as fp:
            fp.write(json.dumps(report, indent=2))
        print(f"report written to {args.json_path}", file=sys.stderr)
    return 0


def _cmd_status(args) -> int:
    client = _client(args)
    if args.job_id is not None:
        job = client.job(args.job_id)
        print(f"{job['id']}  {job['state']}  {job['workload']}  "
              f"attempts={job['attempts']}")
        print(f"report key: {job['report_key']}")
        if job.get("error"):
            print(f"error: {job['error']}")
        return 0
    listing = client.jobs()
    header = f"{'job':<12} {'state':<10} {'workload':<28} {'report key':<16}"
    print(header)
    print("-" * len(header))
    for job in listing["jobs"]:
        print(f"{job['id']:<12} {job['state']:<10} {job['workload']:<28} "
              f"{job['report_key'][:12]}…")
    counts = listing["counts"]
    print("\n" + "  ".join(f"{state}: {n}" for state, n in counts.items()))
    return 0


def _resolve_report_key(client, ref: str) -> str:
    """A job id resolves to its report key; anything else is a key."""
    if ref.startswith("job-"):
        return client.job(ref)["report_key"]
    return ref


def _cmd_fetch(args) -> int:
    import json

    client = _client(args)
    report = client.report(_resolve_report_key(client, args.key))
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(text)
    if args.trace_out:
        if not args.key.startswith("job-"):
            raise SystemExit("--trace-out needs a job id argument (traces "
                             "are stored per job, not per report key)")
        trace = client.trace(args.key)
        with open(args.trace_out, "w") as fp:
            json.dump(trace["chrome_trace"], fp)
        print(f"trace written to {args.trace_out} "
              f"(trace id {trace.get('trace_id')})", file=sys.stderr)
    return 0


def _render_tail_snapshot(ev: dict) -> None:
    """One streaming snapshot as a ranked problem table (tail --problems)."""
    seen = ev.get("events_seen", {}).get("total", 0)
    head = (f"-- snapshot v{ev.get('version')}"
            f"{' (final)' if ev.get('final') else ''}"
            f"  stage={ev.get('stage') or '-'}  events={seen}"
            f"  rate={ev.get('events_per_second', 0.0):.0f}/s"
            f"  benefit={ev.get('total_benefit', 0.0):.6f}s")
    print(head, flush=True)
    problems = ev.get("problems") or []
    if not problems:
        print("   (no problems ranked yet)", flush=True)
        return
    for rank, p in enumerate(problems, start=1):
        print(f"  {rank:>2}. {p['kind']:<22} {p['location']:<40} "
              f"benefit={p['est_benefit']:.6f}s", flush=True)


def _cmd_tail(args) -> int:
    import json as _json

    from repro.service.queue import FAILED

    if args.as_json and args.problems:
        raise SystemExit("--json and --problems are mutually exclusive")
    client = _client(args)
    after = args.after
    while True:
        resp = client.events(args.job_id, after=after,
                             timeout=args.poll_timeout)
        for ev in resp["events"]:
            after = max(after, ev["seq"])
            if ev["event"] == "events.dropped":
                # Always visible, even in machine modes: events past
                # our cursor were trimmed and the stream has a gap.
                print(f"warning: {ev.get('count', '?')} events dropped "
                      f"before seq {ev['seq'] + 1} (trimmed; gap in "
                      f"stream)", file=sys.stderr, flush=True)
            if args.as_json:
                print(_json.dumps(ev, sort_keys=True), flush=True)
                continue
            if args.problems:
                if ev["event"] == "stream.snapshot":
                    _render_tail_snapshot(ev)
                continue
            if ev["event"] == "events.dropped":
                continue  # already reported on stderr above
            detail = "  ".join(
                f"{k}={v}" for k, v in sorted(ev.items())
                if k not in ("seq", "ts", "event", "job"))
            if ev["event"] == "stream.snapshot":
                detail = (f"version={ev.get('version')}  "
                          f"events={ev.get('events_seen', {}).get('total')}  "
                          f"problems={ev.get('problem_count')}  "
                          f"benefit={ev.get('total_benefit', 0.0):.6f}")
            print(f"[{ev['seq']:>4}] {ev['event']:<16} {detail}".rstrip(),
                  flush=True)
        if resp.get("done"):
            state = resp.get("state")
            print(f"-- job {args.job_id} {state}", file=sys.stderr)
            return 1 if state == FAILED else 0


def _cmd_overhead(args) -> int:
    from repro.core.jsonio import load_report_json
    from repro.obs.render import render_overhead_ledger

    try:
        data = load_report_json(args.report)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    meta = data.get("meta") or {}
    overhead = meta.get("overhead")
    if not overhead:
        raise SystemExit(
            f"{args.report} carries no meta.overhead ledger — export with "
            "`diogenes run <workload> --json out.json --verbose-stages` "
            "(any observability flag arms the ledger)")
    if meta.get("trace_id"):
        print(f"trace id: {meta['trace_id']}\n")
    print(render_overhead_ledger(overhead))
    return 0


def _cmd_diff(args) -> int:
    import json
    import os

    from repro.core.diffing import diff_from_json, diff_reports, diff_to_json
    from repro.core.jsonio import load_report_json

    if os.path.isfile(args.report_a) and os.path.isfile(args.report_b):
        # Offline: the same delta table with no service in the loop.
        try:
            diff = diff_reports(load_report_json(args.report_a),
                                load_report_json(args.report_b))
        except ValueError as exc:  # includes SchemaMismatchError
            raise SystemExit(str(exc)) from exc
    else:
        client = _client(args)
        diff = diff_from_json(client.diff(
            _resolve_report_key(client, args.report_a),
            _resolve_report_key(client, args.report_b)))
    print(reports.render_diff(diff))
    if args.json_path:
        with open(args.json_path, "w") as fp:
            json.dump(diff_to_json(diff), fp, indent=2)
        print(f"diff written to {args.json_path}", file=sys.stderr)
    if args.fail_on_regression and diff.is_regression:
        return 1
    return 0


def _cmd_cache(args) -> int:
    from repro.exec.cache import ResultCache

    cache = ResultCache(args.directory)
    if args.action == "stats":
        stats = cache.stats()
        print(f"stage-result cache at {stats['directory']}")
        print(f"  entries: {stats['entries']}   "
              f"total: {_human_bytes(stats['total_bytes'])}")
        for stage, bucket in stats["by_stage"].items():
            print(f"  {stage:<18} {bucket['entries']:>5} entries  "
                  f"{_human_bytes(bucket['bytes'])}")
        if stats["entries"]:
            print(f"  least recently used: "
                  f"{stats['oldest_age_seconds']:.0f}s ago; most recent: "
                  f"{stats['newest_age_seconds']:.0f}s ago")
        return 0
    max_bytes = _parse_size(args.max_bytes)
    max_age = _parse_age(args.max_age)
    if max_bytes is None and max_age is None:
        raise SystemExit("cache prune needs --max-bytes and/or --max-age")
    result = cache.prune(max_bytes=max_bytes, max_age=max_age)
    print(f"pruned {result['removed_entries']} entries "
          f"({_human_bytes(result['removed_bytes'])}); "
          f"kept {result['kept_entries']} "
          f"({_human_bytes(result['kept_bytes'])})")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz import Tolerance, run_campaign

    if args.count < 1:
        raise SystemExit(f"--count must be >= 1, got {args.count}")
    tol = Tolerance()
    if args.tol_rel is not None or args.tol_abs_per_op is not None:
        tol = Tolerance(
            rel=args.tol_rel if args.tol_rel is not None else tol.rel,
            abs_per_op=(args.tol_abs_per_op
                        if args.tol_abs_per_op is not None
                        else tol.abs_per_op),
        )

    def progress(result) -> None:
        if args.quiet:
            return
        verdict = "ok  " if result.ok else "FAIL"
        print(f"seed {result.seed:>6}  {verdict}  "
              f"planted {result.planted_problems:>3}  "
              f"detected {result.detected_problems:>3}  "
              f"est {result.est_benefit * 1e6:>8.1f}us  "
              f"actual {result.actual_benefit * 1e6:>8.1f}us")
        for error in result.errors:
            print(f"             {error}")

    campaign = run_campaign(args.count, args.seed, segments=args.segments,
                            tolerance=tol, progress=progress)
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(campaign.to_json_text())
        print(f"campaign manifest written to {args.out}", file=sys.stderr)

    n = len(campaign.results)
    print(f"\n{n} seeds: planted-problem recall "
          f"{campaign.recall() * 100.0:.1f}%, "
          f"max est-vs-actual deviation "
          f"{campaign.max_deviation() * 1e6:.1f}us, "
          f"{len(campaign.failures)} failing")
    if campaign.failures:
        print("reproduce each failure with:")
        for result in campaign.failures:
            seg = (f" --segments {args.segments}"
                   if args.segments is not None else "")
            print(f"  diogenes fuzz --seed {result.seed}{seg}")
        return 1
    return 0


_SERVICE_COMMANDS = {
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "fetch": _cmd_fetch,
    "tail": _cmd_tail,
    "overhead": _cmd_overhead,
    "diff": _cmd_diff,
    "cache": _cmd_cache,
    "worker": _cmd_worker,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _load_workloads()

    if args.command == "list":
        for name in registry.names():
            print(name)
        return 0

    if args.command == "batch":
        return _run_batch(args)

    if args.command == "fuzz":
        return _cmd_fuzz(args)

    if args.command in _SERVICE_COMMANDS:
        from repro.service.client import ServiceError

        try:
            return _SERVICE_COMMANDS[args.command](args)
        except ServiceError as exc:
            raise SystemExit(str(exc)) from exc
        except BrokenPipeError:
            # `diogenes tail --json | head` closes our stdout mid-
            # stream; exit quietly like any well-behaved filter.  The
            # dup2 keeps the interpreter's exit-time stdout flush from
            # raising the same error again.
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        finally:
            if getattr(args, "client", None) is not None:
                args.client.close()

    try:
        workload = registry.create(args.workload,
                                   **parse_params(args.params))
    except TypeError as exc:
        raise SystemExit(f"bad --param for {args.workload!r}: {exc}") from exc
    config = DiogenesConfig(dedup_policy=args.dedup_policy)

    executor = _make_executor(args) if args.command == "run" else None
    observing = args.command == "run" and (
        args.trace_out or args.metrics_out or args.verbose_stages
        or args.flight_dir)
    session = (obs.enable(obs.Observability(flight_dir=args.flight_dir))
               if observing else None)
    tool = Diogenes(workload, config, executor=executor,
                    profile_dir=getattr(args, "profile_dir", None))
    try:
        report = tool.run()
    finally:
        if session is not None:
            obs.disable()
        if executor is not None:
            executor.shutdown()
        if tool.profiler is not None and tool.profiler.dumped:
            print(f"stage profiles written to {tool.profiler.directory} "
                  f"({len(tool.profiler.dumped)} files)", file=sys.stderr)

    if args.command == "explore":
        from repro.core.explorer import Explorer

        Explorer(report, sys.stdout, prompt=False).run(sys.stdin)
        return 0

    print(_render(args, report))
    if args.json_path:
        meta = session_meta(session) if session is not None else None
        with open(args.json_path, "w") as fp:
            fp.write(dumps_report(report, meta=meta))
        print(f"\nJSON report written to {args.json_path}", file=sys.stderr)
    if session is not None:
        _export_observability(args, session, [report])
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
