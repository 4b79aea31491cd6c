"""Service submit-storm bench and the service perf-regression baseline.

Stands up a real daemon (``ServiceDaemon`` with one in-process node
slot), stores one report through it, then drives a sustained
multi-process storm of duplicate submissions of that report — each
one served from the report store.  One storm cannot tell a 25%
regression from noise, so ``STORM_RUNS`` storms run, each on a fresh
daemon, and ``BENCH_service.json`` at the repo root (the committed
baseline CI's ``service-load`` job compares against) records every
rate, their median and their quartiles.  The median must sustain
>= 1000 submissions/sec: that is what the keep-alive HTTP layer, the
indexed job table, and the cached default-config identity on the
submit path buy.

Standalone::

    PYTHONPATH=src python benchmarks/bench_service_load.py           # refresh
    PYTHONPATH=src python benchmarks/bench_service_load.py --check BENCH_service.json

``--check`` re-measures and fails (exit 1) when the median submission
rate dropped past the threshold (default 25%) below the baseline's
median.  The 1000/sec floor is asserted on the median in both modes.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import threading

from common import archive

from repro.service import DONE, ServiceClient, ServiceDaemon, ServiceError

REPO_ROOT = pathlib.Path(__file__).parent.parent
SRC_DIR = REPO_ROOT / "src"
BASELINE_PATH = REPO_ROOT / "BENCH_service.json"
SCHEMA = 2

#: Fractional slowdown tolerated by ``--check`` before failing.
THRESHOLD = 0.25

#: Sustained front-door submissions/sec the service must clear.
SUBMIT_RATE_FLOOR = 1000.0

#: Submission-storm shape: separate OS processes so the load
#: generator never shares the daemon's GIL.
SUBMIT_PROCS = 6
SUBMITS_PER_PROC = 400

#: Storms per measurement; the median rate is the one judged.
STORM_RUNS = 5

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


def bench_storm() -> tuple[float, dict]:
    """One storm on a fresh daemon: the sustained rate of store-served
    duplicate submissions, and the queue's counts after it."""
    with tempfile.TemporaryDirectory() as tmp:
        daemon = ServiceDaemon(os.path.join(tmp, "svc"), workers=1)
        daemon_thread = threading.Thread(target=daemon.run,
                                         kwargs={"port": 0}, daemon=True)
        daemon_thread.start()
        assert daemon.started.wait(15), "daemon failed to start"
        url = f"http://127.0.0.1:{daemon.bound_port}"
        client = ServiceClient(url)
        try:
            # The in-process node stores the report every storm
            # submission is then served from.
            stored = client.wait(client.submit(
                "synthetic-unnecessary-sync", {"iterations": 3})["job"]["id"],
                timeout=180)
            assert stored["state"] == DONE, stored
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
            counts = client.jobs()["counts"]
        finally:
            try:
                client.shutdown()
            except ServiceError:  # pragma: no cover - already down
                pass
            client.close()
            daemon_thread.join(30)
    return submissions / storm_window, counts


def bench_storms() -> dict:
    """``STORM_RUNS`` storms: every rate, their median and quartiles."""
    rates = []
    for _ in range(STORM_RUNS):
        rate, counts = bench_storm()
        rates.append(round(rate, 1))
    q1, median, q3 = statistics.quantiles(rates, n=4)
    return {
        "throughput": {
            "backend": "sqlite",
            "submitters": SUBMIT_PROCS,
            "submissions": SUBMIT_PROCS * SUBMITS_PER_PROC,
            "rates": rates,
            "submissions_per_second": {"median": round(median, 1),
                                       "q1": round(q1, 1),
                                       "q3": round(q3, 1)},
            "queue_counts": counts,
        },
    }


def median_rate(results: dict) -> float:
    return results["throughput"]["submissions_per_second"]["median"]


# ----------------------------------------------------------------------
def generate() -> dict:
    results = {"schema": SCHEMA, **bench_storms()}
    rate = median_rate(results)
    assert rate >= SUBMIT_RATE_FLOOR, (
        f"median {rate:,.0f} submissions/sec is below the "
        f"{SUBMIT_RATE_FLOOR:,.0f}/sec floor")
    return results


def render(results: dict) -> str:
    storm = results["throughput"]
    rate = storm["submissions_per_second"]
    return (f"service load bench — sqlite backend\n"
            f"  {len(storm['rates'])} storms of {storm['submissions']:,} "
            f"store-served submissions from {storm['submitters']} "
            f"processes: median {rate['median']:,.0f}/sec "
            f"(quartiles {rate['q1']:,.0f}-{rate['q3']:,.0f}; "
            f"floor {SUBMIT_RATE_FLOOR:,.0f}/sec)\n"
            f"  rates: {', '.join(f'{r:,.0f}' for r in storm['rates'])}")


# ----------------------------------------------------------------------
# Baseline comparison (CI's service-load job)
# ----------------------------------------------------------------------
def _regressions(baseline: dict, current: dict,
                 threshold: float = THRESHOLD) -> list[str]:
    """The median submission rate, if it dropped past the threshold."""
    if baseline.get("schema") != SCHEMA:
        return [f"baseline schema {baseline.get('schema')} is not "
                f"{SCHEMA}; regenerate it"]
    before, after = median_rate(baseline), median_rate(current)
    if after < before * (1 - threshold):
        return [f"median submissions_per_second: {after:,.0f} vs "
                f"baseline {before:,.0f} (-{(1 - after / before) * 100:.0f}%)"]
    return []


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
    assert median_rate(results) >= SUBMIT_RATE_FLOOR
    archive("service", render(results))


if __name__ == "__main__":
    sys.exit(main())
