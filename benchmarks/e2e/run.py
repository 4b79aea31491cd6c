#!/usr/bin/env python3
"""End-to-end benchmark: the diogenes CLI, a replay firehose, and the
analysis service (local and fleet) under open-loop load.

One command runs one workload, checks every report against an
in-process reference, and prints every metric by name with its unit::

    PYTHONPATH=src python benchmarks/e2e/run.py --workload serve-local --seed 1
    PYTHONPATH=src python benchmarks/e2e/run.py --workload serve-fleet --seed 1 --traced --out r.json
    python3 benchmarks/e2e/run.py --workload replay-firehose --seed 1 --seconds 30 --trace 0

It drives the program from outside, the way users do: ``diogenes run``
as a fresh process per report, ``diogenes serve`` and ``diogenes
worker`` as subprocesses fed over HTTP.  End-to-end metrics come from
untraced processes.  With ``--trace 1`` (``--traced``) the run
alternates untraced and traced passes (CLI), or runs an untraced and
then a traced phase of half the time each (service); the
traced processes start under ``launch.py``, whose shims time each
layer, and the run prints the per-layer metrics instead.  See
``README.md`` for the workloads, the metrics and their bounds.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when a report is wrong or missing, 3 when the load generator ran too
late for an open-loop run to count, and 2 when the program is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
WORK = ROOT / ".bench_e2e"

import inputs  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import stats  # noqa: E402

#: Default measured seconds per run (BENCHMARK.json's run_seconds).
DEFAULT_SECONDS = 30
MAX_SECONDS = 60

#: Cold starts per run; setup_s is their median.  They are spread over
#: the run (CLI: one each fifth of the measured time; service: before
#: and after the open loop) rather than taken back to back, so one
#: moment of the host's speed does not decide them all.
COLD_STARTS = 5

#: Service cold starts taken after the open loop; the rest come before
#: it, the last of those being the service the loop drives.
COLD_STARTS_AFTER = 2

#: A service run is invalid when the load generator sent its
#: submissions later than this at the 90th percentile.
MAX_LATENESS_P90 = 0.020

#: Longest one CLI report may take before it is killed.
CLI_TIMEOUT = 150.0

#: Time per report is the mean over the run, not the median: the host
#: flips between a fast and a 1.5x slower state many times a second,
#: in a proportion that drifts from minute to minute.  A mean moves in
#: step with that proportion; a median jumps between the two states.
#: Over ten 30 s runs the median of the firehose's report walls spread
#: 23-27% (quartile distance over median), their mean 14-21%.  The
#: median and the highest percentile the sample supports are printed
#: and written to ``--out`` beside the metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "report_s": ("s", "lower"),
    "events_per_s": ("events/s", "higher"),
    "rss_peak_mb": ("MB", "lower"),
}

#: The workloads BENCHMARK.json lists.
WORKLOADS = ("replay-firehose", "serve-local", "serve-fleet")

#: Runnable by name but not in BENCHMARK.json.  With three workloads a
#: run can last 30 s within the time every run of the benchmark may
#: take together; apps-golden, whose 4 s passes give a run the fewest
#: samples, is the one left out.
EXTRA_WORKLOADS = ("apps-golden",)


def host_probe_ms() -> float:
    """Median milliseconds of a fixed pure-Python loop: the host's speed
    when a run starts and ends, recorded beside its metrics (the VM's
    vCPUs run 1.4-1.7x slower while neighbours load the host)."""
    samples = []
    for _ in range(15):
        t0 = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i % 7
        samples.append(time.perf_counter() - t0)
    return stats.median(samples) * 1e3


def apps_golden_inputs(seed: int) -> list[tuple[str, dict]]:
    """The paper's four apps, at the sizes the closed loop runs."""
    return [("cumf-als", {"iterations": 20, "seed": seed}),
            ("cuibm", {"steps": 10, "cg_iters": 20}),
            ("amg", {"cycles": 20}),
            ("rodinia-gaussian", {"n": 64, "seed": seed})]


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def analysing_jobs(jobs: dict[str, dict]) -> list[dict]:
    """The job that analysed each stored report: the first one claimed
    under its report key.  A later claim of the same key is answered
    from the report store."""
    first: dict[str, dict] = {}
    for job in jobs.values():
        if job["state"] != "done" or job.get("claimed") is None:
            continue
        prior = first.get(job["report_key"])
        if prior is None or job["claimed"] < prior["claimed"]:
            first[job["report_key"]] = job
    return list(first.values())


def input_key(name: str, params: dict) -> str:
    return json.dumps([name, params], sort_keys=True)


def param_args(params: dict) -> list[str]:
    args = []
    for key, value in sorted(params.items()):
        args += ["--param", f"{key}={value!r}" if isinstance(value, float)
                 else f"{key}={value}"]
    return args


class References:
    """Serial in-process reports, the bytes every run must reproduce.

    ``Diogenes(registry.create(...)).run()`` + ``dumps_report`` for each
    distinct input, computed outside the timed window.
    """

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        from repro.apps.base import registry
        from repro.core.cli import _load_workloads
        from repro.core.diogenes import Diogenes
        from repro.core.jsonio import dumps_report

        _load_workloads()
        self._create = registry.create
        self._diogenes = Diogenes
        self._dumps = dumps_report
        self.entries: dict[str, dict] = {}

    def add(self, name: str, params: dict) -> dict:
        key = input_key(name, params)
        if key not in self.entries:
            workload = self._create(name, **params)
            body = self._dumps(self._diogenes(workload).run()).encode()
            report = json.loads(body)
            self.entries[key] = {
                "body": body, "workload": workload,
                "events": report["stages"]["stage2"]["event_count"],
                "problems": len(report["problems"])}
        return self.entries[key]

    def get(self, name: str, params: dict) -> dict:
        return self.entries[input_key(name, params)]

    def bare_seconds(self, name: str, params: dict) -> float:
        """One ``Workload.execute()`` on the reference's instance: app,
        runtime, CUDA driver and simulator with no probes (``apps.bare_s``)."""
        workload = self.get(name, params)["workload"]
        t0 = time.perf_counter()
        workload.execute()
        return time.perf_counter() - t0


class Bench:
    """One benchmark run: a workload, a seed, a work directory."""

    def __init__(self, args) -> None:
        self.args = args
        self.traced = bool(args.trace)
        self.work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.refs = References()
        self.attempted = 0
        self.failures: list[str] = []
        self.details: dict = {}

    # -- process helpers ---------------------------------------------
    def diogenes(self, args: list[str], *, spans: Path | None = None,
                 report: str | None = None) -> list[str]:
        """argv running ``diogenes <args>``, traced when ``spans``."""
        if spans is None:
            return [sys.executable, "-m", "repro.core.cli", *args]
        traced = [sys.executable, str(LAUNCH), "--spans", str(spans),
                  "--spawned-at", repr(time.time())]
        if report is not None:
            traced += ["--report", report]
        return traced + ["--", *args]

    def run_child(self, argv: list[str]) -> tuple[float, float, int]:
        """Run one CLI process: (wall seconds, peak RSS MB, exit code)."""
        with open(self.work / "cli.log", "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work,
                                    stdout=subprocess.DEVNULL, stderr=log)
            watchdog = threading.Timer(CLI_TIMEOUT, proc.kill)
            watchdog.start()
            try:
                # wait4, not Popen.wait: it also returns the child's
                # own resource usage (its peak RSS).
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def check(self, what: str, body: bytes | None, ref: dict,
              error: str | None = None) -> bool:
        """Count one attempted report; True when its bytes are the
        reference's."""
        self.attempted += 1
        if body is not None and body == ref["body"]:
            return True
        if error is None:
            error = ("no report" if body is None
                     else "report differs from the serial reference")
        self.failures.append(f"{what}: {error}")
        return False

    def end_to_end(self, setup: list[float], walls: list[float],
                   events_per_s: float, rss: float) -> dict:
        """The end-to-end metrics of one run.  ``walls`` are the correct
        reports' walls (CLI) or latencies (service)."""
        if not walls:
            raise RuntimeError("no correct report to time")
        self.details.update(setup_samples=setup, report_samples=walls,
                            report=stats.summary(walls))
        return {
            "setup_s": stats.median(setup),
            "report_s": mean(walls),
            "events_per_s": events_per_s,
            "rss_peak_mb": rss,
        }

    # -- CLI workloads -----------------------------------------------
    def cold_start(self) -> float:
        """Wall of one ``diogenes list`` process."""
        wall, _, code = self.run_child(self.diogenes(["list"]))
        if code != 0:
            raise RuntimeError(f"`diogenes list` exited {code}")
        return wall

    def closed_loop(self, items: list[tuple[str, str, dict]],
                    setup: list[float]) -> dict:
        """Passes over ``items`` ((label, workload, params)) until
        ``--seconds`` have elapsed; traced runs alternate plain and
        traced passes.  A cold start goes before the first pass of each
        fifth of the run, into ``setup``, outside every pass's wall.
        Returns {mode: [pass, ...]}."""
        modes = ["plain", "traced"] if self.traced else ["plain"]
        passes: dict[str, list] = {mode: [] for mode in modes}
        out = self.work / "report.json"
        start = time.perf_counter()
        k = 0
        while (time.perf_counter() - start < self.args.seconds
               or not all(passes.values())):
            if (len(setup) < COLD_STARTS and time.perf_counter() - start
                    >= len(setup) * self.args.seconds / COLD_STARTS):
                setup.append(self.cold_start())
            mode = modes[k % len(modes)]
            reports = []
            for label, name, params in items:
                spans = (self.work / f"spans-{k}-{label}.jsonl"
                         if mode == "traced" else None)
                argv = self.diogenes(
                    ["run", name, *param_args(params), "--json", str(out)],
                    spans=spans, report=label)
                wall, rss, code = self.run_child(argv)
                body = out.read_bytes() if code == 0 and out.exists() else None
                out.unlink(missing_ok=True)
                ok = self.check(f"{mode} {label} pass {k}", body,
                                self.refs.get(name, params),
                                None if code == 0 else f"exit code {code}")
                reports.append({"label": label, "workload": name,
                                "params": params, "wall": wall, "rss": rss,
                                "ok": ok, "spans": spans})
                if spans is not None:
                    reports[-1]["bare"] = self.refs.bare_seconds(name, params)
            # A pass's wall is its reports' walls: the benchmark's own
            # checks between reports are not part of it.
            passes[mode].append({"wall": sum(r["wall"] for r in reports),
                                 "reports": reports})
            k += 1
        return passes

    def cli_workload(self, items) -> dict:
        for _, name, params in items:
            self.refs.add(name, params)
        setup: list[float] = []
        passes = self.closed_loop(items, setup)
        while len(setup) < COLD_STARTS:  # passes longer than a fifth
            setup.append(self.cold_start())
        plain = passes["plain"]
        reports = [r for p in plain for r in p["reports"] if r["ok"]]
        walls = [r["wall"] for r in reports]
        events = sum(self.refs.get(r["workload"], r["params"])["events"]
                     for r in reports)
        metrics = self.end_to_end(
            setup, walls, events / sum(walls) if walls else 0.0,
            max((r["rss"] for r in reports), default=0.0))
        self.details.update(passes=len(plain))
        if not self.traced:
            return metrics
        # Tracing overhead compares whole passes, so every input counts
        # once in each mode.
        traced = passes["traced"]
        overhead = (mean(p["wall"] for p in traced)
                    / mean(p["wall"] for p in plain) - 1.0)
        return self.cli_layers(
            items, [r for p in traced for r in p["reports"] if r["ok"]],
            overhead)

    def cli_layers(self, items, reports: list[dict],
                   overhead: float) -> dict:
        loaded = [(r, *layers.read_spans(r["spans"])) for r in reports]
        every = [s for _, _, spans in loaded for s in spans]
        metrics = layers.span_metrics(every, len(reports))
        layers.with_derived(metrics, mean(r["bare"] for r in reports))
        distinct = [self.refs.get(name, params) for _, name, params in items]
        metrics.update({
            "cli.startup_s": mean(
                layers.startup_seconds(h) for _, h, _ in loaded),
            "core.events": sum(d["events"] for d in distinct),
            "core.problems": sum(d["problems"] for d in distinct),
            "service.store_hit_ratio": 0.0,
            "instr.intern_entries": mean(
                h["intern_entries"] for _, h, _ in loaded),
            "unattributed_s": mean(
                layers.cli_unattributed(h, spans, r["wall"])
                for r, h, spans in loaded),
            "trace_overhead_frac": overhead,
        })
        wall = mean(r["wall"] for r in reports)
        self.details.update(
            traced_reports=len(reports), traced_wall_mean_s=wall,
            unattributed_share=metrics["unattributed_s"] / wall)
        return metrics

    def apps_golden(self) -> dict:
        return self.cli_workload(
            [(name, name, params)
             for name, params in apps_golden_inputs(self.args.seed)])

    def replay_firehose(self) -> dict:
        trace = self.work / f"firehose-{self.args.seed}.json"
        inputs.write_firehose_trace(trace, self.args.seed)
        return self.cli_workload(
            [("firehose", "replay", {"trace": str(trace)})])

    # -- service workloads -------------------------------------------
    def start_service(self, label: str, *, traced: bool
                      ) -> tuple[loadgen.Service, float]:
        """A started service and its start-up seconds."""
        def command(args, name):
            spans = (self.work / label / f"{name}.spans.jsonl"
                     if traced else None)
            return self.diogenes(args, spans=spans)
        svc = loadgen.Service(command, self.env, self.work / label,
                              fleet=self.args.workload == "serve-fleet")
        try:
            return svc, svc.start()
        except BaseException:
            svc.stop()
            raise

    def run_phase(self, svc: loadgen.Service, schedule, mode: str) -> dict:
        """The open loop against a started service, which it stops."""
        try:
            t0 = time.monotonic() + 0.1
            records = loadgen.drive(
                svc.port, [dict(e, due=t0 + e["at"]) for e in schedule],
                timeout=self.args.seconds + 120.0)
            jobs = svc.jobs()
            metrics_text = svc.metrics_text()
            rss = loadgen.peak_rss_mb(svc.analyser.pid)
        finally:
            svc.stop()
        for r in records:
            r["ok"] = self.check(f"{mode} {r.get('job', r['index'])} "
                                 f"{r['workload']}", r["body"],
                                 self.refs.get(r["workload"], r["params"]),
                                 r["error"])
        return {"records": records, "jobs": jobs,
                "metrics_text": metrics_text, "rss": rss}

    def service_workload(self) -> dict:
        # A traced run splits --seconds between an untraced and a
        # traced phase that replay the same (shorter) schedule.
        seconds = self.args.seconds / 2 if self.traced else self.args.seconds
        schedule = inputs.open_loop_schedule(self.args.seed, seconds)
        for entry in schedule:
            self.refs.add(entry["workload"], entry["params"])
        setup = []
        before = COLD_STARTS - COLD_STARTS_AFTER
        for k in range(COLD_STARTS):
            svc, startup = self.start_service(f"plain-{k}", traced=False)
            setup.append(startup)
            if k == before - 1:
                plain = self.run_phase(svc, schedule, "plain")
            else:
                svc.stop()
        ok = [r for r in plain["records"] if r["ok"]]
        sent = {r["job"] for r in ok}
        analysed = [(self.refs.get(job["workload"], job["params"])["events"],
                     job["updated"] - job["claimed"])
                    for job in analysing_jobs(plain["jobs"])
                    if job["id"] in sent]
        busy = sum(s for _, s in analysed)
        metrics = self.end_to_end(
            setup, [r["latency"] for r in ok],
            sum(e for e, _ in analysed) / busy if busy else 0.0,
            plain["rss"])
        lateness = [r["lateness"] for r in plain["records"]
                    if "lateness" in r]
        self.details.update(
            lateness_p90_s=stats.percentile(lateness, 90),
            lateness_max_s=max(lateness),
            analysed_samples=analysed,
            busy_share=busy / seconds,
            submissions=len(schedule),
            repeats=sum(e["repeat_of"] is not None for e in schedule))
        if not self.traced:
            return metrics
        svc, startup = self.start_service("traced", traced=True)
        traced = self.run_phase(svc, schedule, "traced")
        self.details["traced_setup_s"] = startup
        traced_lat = [r["latency"] for r in traced["records"] if r["ok"]]
        overhead = (mean(traced_lat) / metrics["report_s"] - 1.0
                    if traced_lat else 0.0)
        return self.service_layers(svc, schedule, traced, overhead)

    def service_layers(self, svc, schedule, phase: dict,
                       overhead: float) -> dict:
        fleet = self.args.workload == "serve-fleet"
        analyser = "worker" if fleet else "serve"
        files = {name: layers.read_spans(svc.data_dir + f"/{name}.spans.jsonl")
                 for name in (["serve", "worker"] if fleet else ["serve"])}
        header, spans = files[analyser]
        jobs = phase["jobs"]
        executed = sorted({s["report"] for s in spans
                           if s["name"] == "exec.run_workloads"
                           and s["report"] in jobs})
        walls = {job: jobs[job]["updated"] - jobs[job]["claimed"]
                 for job in executed}
        every = [s for _, file_spans in files.values() for s in file_spans]
        metrics = layers.span_metrics(every, len(executed))
        layers.with_derived(metrics, mean(
            self.refs.bare_seconds(jobs[j]["workload"], jobs[j]["params"])
            for j in executed))
        distinct = {input_key(e["workload"], e["params"]):
                    self.refs.get(e["workload"], e["params"])
                    for e in schedule}
        records = [r for r in phase["records"] if r["ok"]]
        text = phase["metrics_text"]
        hits = layers.prometheus_value(text, "repro_service_store_hits")
        misses = layers.prometheus_value(text, "repro_service_store_misses")
        metrics.update({
            "cli.startup_s": layers.startup_seconds(header),
            "core.events": sum(d["events"] for d in distinct.values()),
            "core.problems": sum(d["problems"] for d in distinct.values()),
            "service.submit_s": mean(r["submit_s"] for r in records),
            "service.fetch_s": mean(r["fetch_s"] for r in records),
            "service.queue_wait_s": mean(
                jobs[j]["claimed"] - jobs[j]["created"] for j in executed),
            "service.run_s": mean(walls.values()),
            "service.poll_lag_s": mean(
                r["observed"] - jobs[r["job"]]["updated"] for r in records),
            "service.store_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "instr.intern_entries": layers.prometheus_value(
                text, "repro_instr_intern_entries"),
            "unattributed_s": mean(layers.job_unattributed(spans, walls)),
            "trace_overhead_frac": overhead,
        })
        run_s = metrics["service.run_s"]
        self.details.update(
            executed_jobs=len(executed),
            unattributed_share=metrics["unattributed_s"] / run_s if run_s
            else None)
        return metrics

    # -- entry ---------------------------------------------------------
    def run(self) -> dict:
        if self.args.workload == "apps-golden":
            return self.apps_golden()
        if self.args.workload == "replay-firehose":
            return self.replay_firehose()
        return self.service_workload()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the diogenes CLI and service")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per run (default: "
                             f"{DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced runs")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the run's metrics and samples "
                             "as JSON here")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        # Longer schedules run out of distinct synthetic jobs.
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "cli.py").is_file():
        print(f"run.py: the program is missing ({SRC}/repro); run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # One BLAS thread in this process and every child: with two, the
    # second OpenBLAS thread spin-waits whenever the host preempts a
    # vCPU, and the same cumf-als report took 1.2 s or 2.2 s by the
    # minute on a 2-core VM.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # A SIGTERM unwinds like an error, so the finally blocks stop every
    # service and CLI process this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = Bench(args)
    probe = host_probe_ms()
    try:
        values = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    bench.details["host_probe_ms"] = [probe, host_probe_ms()]
    units = layers.PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name][0]}
               for name in units}
    lateness = bench.details.get("lateness_p90_s")
    valid = lateness is None or lateness <= MAX_LATENESS_P90
    for name, metric in metrics.items():
        print(f"{name:<26} {metric['value']:>14.6g} {metric['unit']}")
    if args.trace:
        # The CLI workloads have no service path: its layers read 0.
        bench.details["path_layers"] = {name: values.get(name, 0.0)
                                        for name in layers.PATH_LAYERS}
        for name, value in bench.details["path_layers"].items():
            print(f"# {name:<24} {value:>14.6g}"
                  f"{'' if name.endswith('ratio') else ' s'}")
    report = bench.details["report"]
    tail = report["tail"]
    print(f"# reports n={report['n']}; median {report['median']:.6g} s; "
          "highest percentile with 10 samples beyond it: "
          + (f"p{tail['p']:g} {tail['value']:.6g} s" if tail
             else "none (n < 20)"))
    if lateness is not None:
        print(f"# load generator lateness p90 {lateness * 1e3:.2f} ms "
              f"(limit {MAX_LATENESS_P90 * 1e3:.0f} ms)")
    print("# host probe (fixed loop) at start, end: "
          + ", ".join(f"{ms:.2f} ms" for ms in bench.details["host_probe_ms"]))
    for failure in bench.failures[:20]:
        print(f"# FAILED {failure}")
    result = {"correct": not bench.failures,
              "attempted": bench.attempted,
              "failed": len(bench.failures),
              "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fp:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "valid": valid, **result, "details": bench.details},
                      fp, default=str)
    print(json.dumps(result))
    if bench.failures:
        return 1
    if not valid:
        print(f"run.py: invalid open-loop run: lateness p90 "
              f"{lateness * 1e3:.1f} ms > {MAX_LATENESS_P90 * 1e3:.0f} ms",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
