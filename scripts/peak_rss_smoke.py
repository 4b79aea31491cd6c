#!/usr/bin/env python
"""CI memory smoke: the peak RSS one replay-firehose report adds.

Writes the seed-1 firehose trace of the end-to-end benchmark (with
``benchmarks/e2e/inputs.py``, which it only reads), then spawns two
CLI processes and reads each one's peak resident set from
``os.wait4``:

* ``diogenes list``: the interpreter and every import, the floor;
* ``diogenes run replay --param trace=<trace> --json <out>``: one
  full five-stage report of the 1,500-event trace.

The verdict is on ``run - list``, the memory the report itself adds,
so it does not move with the runner's Python or numpy build.  Each
collection run frees its simulated process when its stage returns, and
the report is written by the chunked writer of
:mod:`repro.core.jsonio`, so the report adds about 20 MB (2-vCPU x86
VM, Python 3.11).  When finished runs wait for the cycle collector it
adds about 31 MB, and when the report is also encoded a token at a
time (``json.dumps(indent=2)``), about 59 MB.  :data:`BOUND_MB` sits
between the first and the last.  The smallest difference of
:data:`PAIRS` pairs is judged, and the exit status is the verdict::

    python scripts/peak_rss_smoke.py
"""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"
INPUTS = REPO_ROOT / "benchmarks" / "e2e" / "inputs.py"

#: Largest peak RSS, in MB, the report may add over ``diogenes list``.
BOUND_MB = 40.0

#: (list, run) pairs measured.
PAIRS = 3


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


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="peak-rss-") as tmp:
        work = pathlib.Path(tmp)
        trace = work / "firehose-1.json"
        write_trace(trace)
        added = []
        for i in range(PAIRS):
            floor = peak_rss_mb(["list"], work)
            report = peak_rss_mb(["run", "replay", "--param",
                                  f"trace={trace}", "--json",
                                  str(work / "report.json")], work)
            added.append(report - floor)
            print(f"pair {i + 1}: list {floor:.1f} MB, run {report:.1f} MB, "
                  f"run - list {report - floor:.1f} MB")
    best = min(added)
    verdict = "ok" if best <= BOUND_MB else "FAIL"
    print(f"{verdict}: a firehose report adds {best:.1f} MB of peak RSS "
          f"(bound {BOUND_MB:g} MB)")
    return 0 if best <= BOUND_MB else 1


if __name__ == "__main__":
    sys.exit(main())
