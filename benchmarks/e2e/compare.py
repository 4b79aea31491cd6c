#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

::

    python benchmarks/e2e/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are run files written by ``run.py --out`` or
directories of them.  One row per workload and metric gives each
side's median, quartiles and n, the change, and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``regressed`` — the change's median is worse than the base's by more
  than the bound;
* ``unresolved`` — the base's own spread (quartile distance over the
  median) is wider than the bound, so the bound cannot be checked,
  unless every change run reads better than every base run;
* ``within bound`` — otherwise.

Per-layer metrics have no bound and get no verdict.  The exit code is
1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(paths: list[str]) -> list[dict]:
    runs = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            with open(file) as fp:
                runs.append(json.load(fp))
    return runs


def samples(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the metric's value in every run."""
    table: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(
                float(metric["value"]))
    return table


def verdict(base: list[float], change: list[float], better: str,
            bound: float | None) -> str:
    """Classify one metric on one workload (see the module docstring)."""
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    base_median = stats.median(base)
    if stats.spread(base) > bound:
        if all(sign * c < sign * b for c in change for b in base):
            return "within bound"
        return "unresolved"
    worse = sign * (stats.median(change) - base_median) / abs(base_median)
    return "regressed" if worse > bound else "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base",
                        help="run file or directory of the base side")
    parser.add_argument("change",
                        help="run file or directory of the changed side")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fp:
        spec = json.load(fp)
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in spec["end_to_end"]}
    directions = {m["name"]: (m["better"], None) for m in spec["per_layer"]}
    base = samples(load_runs([args.base]))
    change = samples(load_runs([args.change]))

    header = (f"{'workload':<16} {'metric':<24} {'base median [q1, q3] n':>34} "
              f"{'change median [q1, q3] n':>34} {'change':>8} {'bound':>6}  "
              f"verdict")
    print(header)
    print("-" * len(header))
    regressed = 0
    for key in sorted(set(base) & set(change)):
        workload, name = key
        better, bound = bounds.get(name) or directions.get(name, ("lower",
                                                                  None))
        b, c = base[key], change[key]

        def cell(values):
            q1, q2, q3 = stats.quartiles(values)
            return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}"

        delta = ((stats.median(c) - stats.median(b)) / abs(stats.median(b))
                 if stats.median(b) else float("nan"))
        result = verdict(b, c, better, bound)
        regressed += result == "regressed"
        print(f"{workload:<16} {name:<24} {cell(b):>34} {cell(c):>34} "
              f"{delta:>+8.1%} {'' if bound is None else f'{bound:.0%}':>6}  "
              f"{result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
