"""Fleet-mode load bench and the service perf-regression baseline.

Stands up a real coordinator (``ServiceDaemon`` with no in-process
workers) plus four ``diogenes worker`` subprocesses pulling over
HTTP, and writes ``BENCH_service.json`` at the repo root — the
committed baseline CI's ``fleet-smoke`` job compares against:

* **fleet** — eight distinct submissions executed by the worker
  fleet; every report fetched back must be **byte-identical** to the
  serial CLI report for the same workload (scale-out changes
  throughput, never bytes), and the consistent-hash ring must spread
  the jobs across workers;
* **throughput** — a sustained multi-process submission storm of
  duplicate (store-served) submissions against the live fleet.  The
  front door must sustain >= 1000 submissions/sec: that is what the
  keep-alive HTTP layer, the incremental queue indexes, and the
  cached default-config identity on the submit path buy.

Standalone::

    PYTHONPATH=src python benchmarks/bench_service_load.py           # refresh
    PYTHONPATH=src python benchmarks/bench_service_load.py --check BENCH_service.json

``--check`` re-measures and fails (exit 1) when the submission rate
dropped, or the fleet wall time grew, past the threshold (default
25%).  Shape assertions (byte identity, the 1000/sec floor) run in
both modes.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import time

from common import archive, fmt_s

from repro.apps.base import registry
from repro.core.cli import _load_workloads
from repro.core.diogenes import Diogenes
from repro.core.jsonio import dumps_report
from repro.service import DONE, ServiceClient, ServiceDaemon, ServiceError

REPO_ROOT = pathlib.Path(__file__).parent.parent
SRC_DIR = REPO_ROOT / "src"
BASELINE_PATH = REPO_ROOT / "BENCH_service.json"
SCHEMA = 1

#: Fractional slowdown tolerated by ``--check`` before failing.
THRESHOLD = 0.25

#: Sustained front-door submissions/sec the service must clear (the
#: ISSUE's acceptance criterion), measured against a live 4-worker
#: fleet.
SUBMIT_RATE_FLOOR = 1000.0

#: Worker processes in the fleet.
WORKERS = 4

#: Submission-storm shape: separate OS processes so the load
#: generator never shares the daemon's GIL.
SUBMIT_PROCS = 6
SUBMITS_PER_PROC = 400

#: Distinct submissions for the byte-identity phase — every synthetic
#: problem family, two parameterisations each.
FLEET_JOBS = [
    ("synthetic-unnecessary-sync", {"iterations": 3}),
    ("synthetic-unnecessary-sync", {"iterations": 5}),
    ("synthetic-misplaced-sync", {"iterations": 3}),
    ("synthetic-misplaced-sync", {"iterations": 4}),
    ("synthetic-duplicate-transfer", {"iterations": 3}),
    ("synthetic-duplicate-transfer", {"iterations": 4}),
    ("synthetic-private-sync", {"iterations": 3}),
    ("synthetic-quiet", {"iterations": 3}),
]

_STORM_SRC = """
import json, sys, time
from repro.service import ServiceClient
url, per = sys.argv[1], int(sys.argv[2])
client = ServiceClient(url, retries=6)
client.health()  # warm the keep-alive connection before timing
t0 = time.perf_counter()
for _ in range(per):
    client.submit("synthetic-unnecessary-sync", {"iterations": 3})
print(json.dumps({"n": per, "wall": time.perf_counter() - t0}))
"""


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def _serial_reports() -> tuple[dict[tuple, str], float]:
    """Reference bytes per (workload, params), and total serial wall."""
    _load_workloads()
    serial: dict[tuple, str] = {}
    t0 = time.perf_counter()
    for name, params in FLEET_JOBS:
        report = Diogenes(registry.create(name, **params)).run()
        serial[(name, json.dumps(params, sort_keys=True))] = \
            dumps_report(report)
    return serial, time.perf_counter() - t0


def _start_workers(url: str, count: int) -> list[subprocess.Popen]:
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", "worker",
             "--coordinator", url, "--id", f"bench-w{i}",
             "--poll-interval", "0.5"],
            env=_subprocess_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        for i in range(count)
    ]


def _wait_for_fleet(client: ServiceClient, count: int,
                    timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if len(client.fleet_workers()["live"]) >= count:
                return
        except ServiceError:
            pass
        time.sleep(0.2)
    raise RuntimeError(f"fleet did not reach {count} live workers "
                       f"within {timeout}s")


def _drain_workers(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
            proc.kill()
            proc.wait(timeout=10)


def bench_fleet() -> dict:
    """Byte identity + submission throughput against a live fleet."""
    serial, serial_wall = _serial_reports()

    with tempfile.TemporaryDirectory() as tmp:
        daemon = ServiceDaemon(os.path.join(tmp, "svc"), workers=0)
        daemon_thread = threading.Thread(target=daemon.run,
                                         kwargs={"port": 0}, daemon=True)
        daemon_thread.start()
        assert daemon.started.wait(15), "coordinator failed to start"
        url = f"http://127.0.0.1:{daemon.bound_port}"
        client = ServiceClient(url)
        workers = _start_workers(url, WORKERS)
        try:
            _wait_for_fleet(client, WORKERS)

            # -- fleet phase: distinct jobs, byte-identical reports --
            t0 = time.perf_counter()
            submitted = [(name, params,
                          client.submit(name, params)["job"])
                         for name, params in FLEET_JOBS]
            finals = [client.wait(job["id"], timeout=180)
                      for _, _, job in submitted]
            fleet_wall = time.perf_counter() - t0

            byte_identical = 0
            workers_used = set()
            job_latency = []
            for (name, params, _), final in zip(submitted, finals):
                assert final["state"] == DONE, final
                workers_used.add(final["worker"])
                fetched = client.report(final["report_key"])
                key = (name, json.dumps(params, sort_keys=True))
                if json.dumps(fetched, indent=2) == serial[key]:
                    byte_identical += 1
                # Queue-latency breakdown from the persisted claim
                # stamp: wait (created -> claimed) is what the adaptive
                # worker pull controls; run (claimed -> done) is pure
                # execution + push.
                if final.get("claimed"):
                    job_latency.append({
                        "job": final["id"],
                        "workload": name,
                        "queue_wait_seconds":
                            round(final["claimed"] - final["created"], 4),
                        "run_seconds":
                            round(final["updated"] - final["claimed"], 4),
                    })

            # -- throughput phase: duplicate (store-served) storm --
            procs = [
                subprocess.Popen(
                    [sys.executable, "-c", _STORM_SRC, url,
                     str(SUBMITS_PER_PROC)],
                    env=_subprocess_env(), stdout=subprocess.PIPE)
                for _ in range(SUBMIT_PROCS)
            ]
            outs = [json.loads(proc.communicate(timeout=300)[0])
                    for proc in procs]
            submissions = sum(out["n"] for out in outs)
            # Sustained rate over the slowest submitter's window — the
            # conservative read of "sustained".
            storm_window = max(out["wall"] for out in outs)
            rate = submissions / storm_window

            counts = client.jobs()["counts"]
            live_during_storm = len(client.fleet_workers()["live"])
        finally:
            _drain_workers(workers)
            try:
                client.shutdown()
            except ServiceError:  # pragma: no cover - already down
                pass
            daemon_thread.join(30)

    return {
        "fleet": {
            "jobs": len(FLEET_JOBS),
            "workers": WORKERS,
            "distinct_workers_used": len(workers_used),
            "byte_identical": byte_identical,
            "serial_wall_seconds": round(serial_wall, 3),
            "fleet_wall_seconds": round(fleet_wall, 3),
            "job_latency": job_latency,
            "max_queue_wait_seconds": round(
                max((j["queue_wait_seconds"] for j in job_latency),
                    default=0.0), 4),
        },
        "throughput": {
            "backend": "sqlite",
            "submitters": SUBMIT_PROCS,
            "submissions": submissions,
            "storm_window_seconds": round(storm_window, 3),
            "submissions_per_second": round(rate, 1),
            "live_workers_during_storm": live_during_storm,
            "queue_counts": counts,
        },
    }


# ----------------------------------------------------------------------
def generate() -> dict:
    results = {"schema": SCHEMA, **bench_fleet()}
    fleet = results["fleet"]
    assert fleet["byte_identical"] == fleet["jobs"], (
        f"only {fleet['byte_identical']}/{fleet['jobs']} fleet reports "
        f"were byte-identical to serial execution")
    assert fleet["distinct_workers_used"] >= 2, (
        "the hash ring must spread jobs across workers, but "
        f"{fleet['distinct_workers_used']} worker(s) did everything")
    rate = results["throughput"]["submissions_per_second"]
    assert rate >= SUBMIT_RATE_FLOOR, (
        f"sustained {rate:,.0f} submissions/sec is below the "
        f"{SUBMIT_RATE_FLOOR:,.0f}/sec floor")
    return results


def render(results: dict) -> str:
    fleet = results["fleet"]
    storm = results["throughput"]
    lines = [
        f"service load bench — {fleet['workers']} worker processes, "
        f"sqlite backend",
        f"  fleet: {fleet['jobs']} jobs over "
        f"{fleet['distinct_workers_used']} workers in "
        f"{fmt_s(fleet['fleet_wall_seconds'])} "
        f"(serial: {fmt_s(fleet['serial_wall_seconds'])}); "
        f"{fleet['byte_identical']}/{fleet['jobs']} byte-identical",
        f"  latency: max queue wait "
        f"{fmt_s(fleet.get('max_queue_wait_seconds', 0.0))} across "
        f"{len(fleet.get('job_latency', []))} jobs (adaptive pull)",
        f"  storm: {storm['submissions']:,} submissions from "
        f"{storm['submitters']} processes in "
        f"{fmt_s(storm['storm_window_seconds'])} = "
        f"{storm['submissions_per_second']:,.0f}/sec "
        f"(floor {SUBMIT_RATE_FLOOR:,.0f}/sec, "
        f"{storm['live_workers_during_storm']} workers live)",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Baseline comparison (CI's fleet-smoke gate)
# ----------------------------------------------------------------------
def _regressions(baseline: dict, current: dict,
                 threshold: float = THRESHOLD) -> list[str]:
    """Rates that dropped, or walls that grew, past the threshold."""
    problems: list[str] = []
    before = baseline.get("throughput", {}).get("submissions_per_second")
    after = current.get("throughput", {}).get("submissions_per_second")
    if before and after and after < before * (1 - threshold):
        problems.append(
            f"throughput.submissions_per_second: {after:,.0f} vs baseline "
            f"{before:,.0f} (-{(1 - after / before) * 100:.0f}%)")
    before = baseline.get("fleet", {}).get("fleet_wall_seconds")
    after = current.get("fleet", {}).get("fleet_wall_seconds")
    if before and after and after > before * (1 + threshold):
        problems.append(
            f"fleet.fleet_wall_seconds: {after:.2f}s vs baseline "
            f"{before:.2f}s (+{(after / before - 1) * 100:.0f}%)")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against a committed baseline JSON "
                             "instead of rewriting it")
    parser.add_argument("--threshold", type=float, default=THRESHOLD,
                        help=f"fractional regression tolerated by --check "
                             f"(default: {THRESHOLD})")
    parser.add_argument("--out", default=str(BASELINE_PATH), metavar="PATH",
                        help="baseline path to write (default: repo root)")
    args = parser.parse_args(argv)

    results = generate()
    archive("service", render(results))

    if args.check:
        baseline = json.loads(pathlib.Path(args.check).read_text())
        problems = _regressions(baseline, results, args.threshold)
        if problems:
            print(f"\nperf regressions past {args.threshold * 100:.0f}%:",
                  file=sys.stderr)
            for line in problems:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\nno perf regression past {args.threshold * 100:.0f}% "
              f"of {args.check}")
        return 0

    pathlib.Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nbaseline written to {args.out}")
    return 0


# Pytest-benchmark entry point (consistent with the other bench modules;
# excluded from tier-1 by ``testpaths``).
def test_service_load_floors():
    results = generate()
    fleet = results["fleet"]
    assert fleet["byte_identical"] == fleet["jobs"]
    assert results["throughput"]["submissions_per_second"] >= \
        SUBMIT_RATE_FLOOR
    archive("service", render(results))


if __name__ == "__main__":
    sys.exit(main())
