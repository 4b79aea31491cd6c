#!/usr/bin/env python
"""CI memory smoke: the peak RSS one replay-firehose report adds.

Writes the seed-1 firehose trace of the end-to-end benchmark (with
``benchmarks/e2e/inputs.py``, which it only reads) and a one-record
trace, then spawns two CLI processes and reads each one's peak
resident set from ``os.wait4``:

* ``diogenes run replay`` on the one-record trace, the floor: the
  interpreter and every module a replay report loads, numpy and the
  simulator included, with almost no report;
* ``diogenes run replay --param trace=<trace> --json <out>``: one
  full five-stage report of the 1,500-event trace.

The verdict is on ``run - floor``, the memory the report itself adds,
so it does not move with the runner's Python or numpy build.  The
floor imports what the report's process imports: ``diogenes list``
would not, since it loads neither numpy nor the simulator and peaks
about 20 MB lower.  Each collection run frees its simulated process
when its stage returns, and the report is written by the chunked
writer of :mod:`repro.core.jsonio`, so the report adds about 16-19 MB
(2-vCPU x86 VM, Python 3.11).  Measured over ``diogenes list`` when
``list`` still imported everything, it added about 31 MB when
finished runs waited for the cycle collector, and about 59 MB when
the report was also encoded a token at a time
(``json.dumps(indent=2)``).  :data:`BOUND_MB` sits between the first
and the last.  A child's ``ru_maxrss`` starts from this script's own
RSS at the fork, so the floor must read above this script's peak, or
it measures the script.  The smallest difference of :data:`PAIRS`
pairs is judged, and the exit status is the verdict::

    python scripts/peak_rss_smoke.py
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"
INPUTS = REPO_ROOT / "benchmarks" / "e2e" / "inputs.py"

#: Largest peak RSS, in MB, the report may add over the floor.
BOUND_MB = 40.0

#: (floor, run) pairs measured.
PAIRS = 3

#: The floor's trace: one device sync, a report with nothing in it.
ONE_RECORD = {"schema": "diogenes-cupti-activity/1",
              "records": [{"kind": "sync", "api": "cudaDeviceSynchronize",
                           "start": 0.0, "file": "one.cpp", "line": 1}]}


def write_trace(path: pathlib.Path) -> None:
    """The end-to-end benchmark's seed-1 firehose trace."""
    spec = importlib.util.spec_from_file_location("e2e_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.write_firehose_trace(path, 1)


def peak_rss_mb(args: list[str], cwd: pathlib.Path) -> float:
    """Run ``diogenes <args>``; its peak RSS in MB (Linux ``ru_maxrss``
    is in KiB).  A non-zero exit is fatal and shows the child's stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", *args], cwd=cwd,
            env=env, stdout=subprocess.DEVNULL, stderr=err)
        # wait4, not Popen.wait: it also returns the child's own
        # resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace"))
            raise SystemExit(f"`diogenes {' '.join(args)}` exited {code}")
    return usage.ru_maxrss / 1024.0


def replay_peak_mb(trace: pathlib.Path, work: pathlib.Path) -> float:
    """Peak RSS of ``diogenes run replay`` on ``trace``, with --json."""
    return peak_rss_mb(["run", "replay", "--param", f"trace={trace}",
                        "--json", str(work / "report.json")], work)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="peak-rss-") as tmp:
        work = pathlib.Path(tmp)
        trace = work / "firehose-1.json"
        write_trace(trace)
        one = work / "one-record.json"
        one.write_text(json.dumps(ONE_RECORD))
        added = []
        for i in range(PAIRS):
            floor = replay_peak_mb(one, work)
            report = replay_peak_mb(trace, work)
            added.append(report - floor)
            print(f"pair {i + 1}: floor {floor:.1f} MB, run {report:.1f} "
                  f"MB, run - floor {report - floor:.1f} MB")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if floor <= own:
        print(f"FAIL: the floor ({floor:.1f} MB) is not above this "
              f"script's own peak RSS ({own:.1f} MB), which every child's "
              f"ru_maxrss includes")
        return 1
    best = min(added)
    verdict = "ok" if best <= BOUND_MB else "FAIL"
    print(f"{verdict}: a firehose report adds {best:.1f} MB of peak RSS "
          f"(bound {BOUND_MB:g} MB)")
    return 0 if best <= BOUND_MB else 1


if __name__ == "__main__":
    sys.exit(main())
