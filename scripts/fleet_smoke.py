#!/usr/bin/env python
"""CI fleet smoke: coordinator + 2 workers, one killed mid-run.

Drives the full fleet protocol end to end with real processes:

1. start ``diogenes serve`` as a pure coordinator (sqlite backend,
   short leases);
2. submit the four golden apps;
3. start worker 1, wait until it holds a running job, SIGKILL it —
   the lease must expire and the job return for redelivery;
4. start worker 2, which executes everything (including the
   redelivered job);
5. verify every report is byte-identical to its committed golden
   fixture, the killed job was re-attempted, the coordinator counted
   a lease expiry, and every job's trace is one connected tree;
6. start worker 3, SIGKILL it while it waits in a held pull, and
   submit one more golden app (forced to re-run): worker 2 must run it
   on attempt 1 with no new lease expiry — the coordinator never
   leases a job to a pull whose worker hung up;
7. SIGTERM worker 2 and expect a graceful exit 0.

Trace payloads land in ``--artifact-dir`` for CI artifact upload.
Exit status is the verdict; every check prints what it saw.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_DIR))

from repro.service import DONE, RUNNING, ServiceClient, ServiceError  # noqa: E402

#: The four committed golden fixtures (mirrors tests/goldens.py).
GOLDEN_APPS = {
    "synthetic": ("synthetic-unnecessary-sync", {"iterations": 4}),
    "rodinia_gaussian": ("rodinia-gaussian", {"n": 24}),
    "cumf_als": ("cumf-als", {"iterations": 3, "users": 120, "items": 80}),
    "cuibm": ("cuibm", {"steps": 2, "cg_iters": 4}),
}


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.core.cli", *args]


def _spawn(argv: list[str]) -> subprocess.Popen:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _wait_healthy(client: ServiceClient, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            client.health()
            return
        except ServiceError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)


def _metric(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=8790)
    parser.add_argument("--data-dir", default=".dio-fleet-smoke")
    parser.add_argument("--artifact-dir", default="fleet-artifacts")
    args = parser.parse_args()

    artifacts = pathlib.Path(args.artifact_dir)
    artifacts.mkdir(parents=True, exist_ok=True)
    url = f"http://127.0.0.1:{args.port}"
    procs: list[subprocess.Popen] = []

    coordinator = _spawn(_cli(
        "serve", "--port", str(args.port), "--data-dir", args.data_dir,
        "--workers", "0",
        "--lease-seconds", "2"))
    procs.append(coordinator)
    client = ServiceClient(url, retries=6)
    try:
        _wait_healthy(client)
        print(f"coordinator up on {url} (sqlite backend, 2s leases)")

        jobs = {}
        for stem, (name, params) in GOLDEN_APPS.items():
            jobs[stem] = client.submit(name, params)["job"]
            print(f"submitted {jobs[stem]['id']}: {name} {params}")

        # Worker 1 takes the first job, then dies mid-lease.
        w1 = _spawn(_cli("worker", "--coordinator", url, "--id", "smoke-w1",
                         "--poll-interval", "0.1"))
        procs.append(w1)
        victim = None
        deadline = time.monotonic() + 60
        while victim is None and time.monotonic() < deadline:
            for job in client.jobs()["jobs"]:
                if job["state"] == RUNNING and job["worker"] == "smoke-w1":
                    victim = job
                    break
            time.sleep(0.02)
        assert victim is not None, "worker 1 never claimed a job"
        w1.kill()  # SIGKILL: no drain, no heartbeat, lease must expire
        w1.wait(10)
        print(f"killed smoke-w1 while it held {victim['id']} "
              f"(attempt {victim['attempts']})")

        w2 = _spawn(_cli("worker", "--coordinator", url, "--id", "smoke-w2",
                         "--poll-interval", "0.1"))
        procs.append(w2)

        finals = {stem: client.wait(job["id"], timeout=300)
                  for stem, job in jobs.items()}
        assert all(job["state"] == DONE for job in finals.values())

        redelivered = next(job for job in finals.values()
                           if job["id"] == victim["id"])
        assert redelivered["worker"] == "smoke-w2", redelivered["worker"]
        assert redelivered["attempts"] >= 2, redelivered["attempts"]
        expiries = _metric(client.metrics(),
                          "repro_service_fleet_lease_expiries")
        assert expiries >= 1, f"no lease expiry counted ({expiries})"
        print(f"{victim['id']} redelivered to smoke-w2 "
              f"(attempts={redelivered['attempts']}, "
              f"lease expiries={expiries:g})")

        for stem, job in finals.items():
            fetched = client.report(job["report_key"])
            golden = (REPO_ROOT / "tests" / "golden" / f"{stem}.json")
            assert json.dumps(fetched, indent=2) + "\n" == golden.read_text(), \
                f"{stem}: fleet report differs from {golden}"
        print(f"{len(finals)} reports byte-identical to committed goldens")

        for stem, job in finals.items():
            trace = client.trace(job["id"])
            roots = [s for s in trace["spans"] if s["parent_id"] is None]
            assert [r["name"] for r in roots] == ["service.job"], roots
            by_id = {s["span_id"]: s for s in trace["spans"]}
            assert len(by_id) == len(trace["spans"]), "span ids collide"
            for span in trace["spans"]:
                cursor, hops = span, 0
                while cursor["parent_id"] is not None and hops < 100:
                    cursor = by_id[cursor["parent_id"]]
                    hops += 1
                assert cursor is roots[0], f"{span['name']} unreachable"
            out = artifacts / f"trace-{stem}.json"
            out.write_text(json.dumps(trace, indent=2))
            print(f"{job['id']} ({stem}): {len(trace['spans'])} spans, one "
                  f"tree under service.job, worker={trace['worker']} "
                  f"-> {out}")

        # A submit wakes every held pull, so without the coordinator's
        # hang-up check worker 3's dead one could take the next job.
        name, params = GOLDEN_APPS["synthetic"]
        w3_id = "smoke-w3"
        w3 = _spawn(_cli("worker", "--coordinator", url, "--id", w3_id,
                         "--poll-interval", "2"))
        procs.append(w3)
        deadline = time.monotonic() + 60
        while w3_id not in client.fleet_workers()["live"]:
            assert time.monotonic() < deadline, f"{w3_id} never registered"
            time.sleep(0.05)
        time.sleep(0.5)  # registered, then pulling: each pull held 2 s
        w3.kill()
        w3.wait(10)
        time.sleep(0.2)
        extra = client.submit(name, params, force=True)["job"]
        final = client.wait(extra["id"], timeout=120)
        assert final["state"] == DONE and final["worker"] == "smoke-w2", \
            final
        assert final["attempts"] == 1, final["attempts"]
        after = _metric(client.metrics(),
                        "repro_service_fleet_lease_expiries")
        assert after == expiries, f"lease expiries {expiries:g} -> {after:g}"
        print(f"killed {w3_id} in a held pull; {extra['id']} ran on "
              f"smoke-w2 on attempt 1, no new lease expiry")

        w2.send_signal(signal.SIGTERM)
        assert w2.wait(60) == 0, f"worker drain exited {w2.returncode}"
        print("smoke-w2 drained cleanly on SIGTERM (exit 0)")

        client.shutdown()
        assert coordinator.wait(30) == 0, \
            f"coordinator exited {coordinator.returncode}"
        print("coordinator shut down cleanly")
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)


if __name__ == "__main__":
    sys.exit(main())
