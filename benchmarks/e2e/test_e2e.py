"""Tests of the end-to-end benchmark's own helpers.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import collections
import json
import statistics

import pytest

import compare
import inputs
import layers
import stats


# -- seeded inputs ------------------------------------------------------
def test_firehose_trace_is_a_function_of_the_seed():
    def text(seed):
        return json.dumps(inputs.firehose_trace(seed, loops=5))

    assert text(3) == text(3)
    assert text(3) != text(4)
    # The record structure is fixed, so work per report is too.
    assert (len(inputs.firehose_trace(3)["records"])
            == len(inputs.firehose_trace(4)["records"]))


def test_schedule_is_a_function_of_the_seed():
    def text(seed):
        return json.dumps(inputs.open_loop_schedule(seed, 20))

    assert text(1) == text(1)
    assert text(1) != text(2)


@pytest.mark.parametrize("seconds", [0.2, 1, 3])
def test_short_schedules_start_fresh(seconds):
    schedule = inputs.open_loop_schedule(7, seconds)
    assert len(schedule) == max(1, round(inputs.ARRIVAL_RATE * seconds))
    assert schedule[0]["repeat_of"] is None


@pytest.mark.parametrize("seed, seconds", [(1, 20), (2, 20), (3, 60)])
def test_schedule_mix(seed, seconds):
    schedule = inputs.open_loop_schedule(seed, seconds)
    n = round(inputs.ARRIVAL_RATE * seconds)
    assert len(schedule) == n
    ats = [e["at"] for e in schedule]
    assert ats == sorted(ats) and 0 <= ats[0] and ats[-1] < seconds
    kinds = collections.Counter(
        "repeat" if e["repeat_of"] is not None
        else "app" if e["workload"] in dict(inputs.SEEDED_APPS)
        else "synthetic" for e in schedule)
    apps = round(n * inputs.APP_SHARE)
    repeats = round(n * inputs.REPEAT_SHARE)
    assert kinds == {"synthetic": n - apps - repeats, "app": apps,
                     "repeat": repeats}
    fresh = [json.dumps([e["workload"], e["params"]], sort_keys=True)
             for e in schedule if e["repeat_of"] is None]
    assert len(fresh) == len(set(fresh))
    for entry in schedule:
        if entry["repeat_of"] is not None:
            earlier = schedule[entry["repeat_of"]]
            assert earlier["index"] < entry["index"]
            assert (earlier["workload"], earlier["params"]) == (
                entry["workload"], entry["params"])
        elif entry["workload"] in inputs.SYNTHETIC_FAMILIES:
            low, high = inputs.SYNTHETIC_ITERATIONS
            assert low <= entry["params"]["iterations"] <= high


def test_firehose_replays_with_planted_problems(tmp_path):
    from repro.apps.base import registry
    from repro.core.cli import _load_workloads
    from repro.core.diogenes import Diogenes

    _load_workloads()
    path = tmp_path / "firehose.json"
    inputs.write_firehose_trace(path, seed=5, loops=4)
    report = Diogenes(registry.create("replay", trace=str(path))).run()
    kinds = collections.Counter(p.kind.value for p in report.analysis.problems)
    assert kinds["unnecessary_synchronization"] >= 1
    assert kinds["unnecessary_transfer"] >= 1  # the duplicate uploads
    assert kinds["misplaced_synchronization"] >= 1


# -- statistics ---------------------------------------------------------
def test_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert stats.median(values) == statistics.median(values)
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_percentile_interpolates():
    values = list(range(1, 101))
    assert stats.percentile(values, 0) == 1
    assert stats.percentile(values, 100) == 100
    assert stats.percentile(values, 90) == pytest.approx(90.1)
    assert stats.percentile([7.0], 90) == 7.0


@pytest.mark.parametrize("n, p", [(19, None), (20, 50.0), (39, 50.0),
                                  (40, 75.0), (99, 75.0), (100, 90.0),
                                  (199, 90.0), (200, 95.0), (1000, 99.0),
                                  (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, p):
    tail = stats.tail_percentile(range(n))
    if p is None:
        assert tail is None
    else:
        assert (tail["p"], tail["n"]) == (p, n)


# -- comparison ---------------------------------------------------------
@pytest.mark.parametrize("base, change, better, bound, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.05, 1.04, 1.06, 1.05], "lower", 0.1,
     "within bound"),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower", 0.1,
     "regressed"),
    ([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "higher", 0.1, "regressed"),
    ([100.0, 101.0, 99.0], [120.0, 121.0, 119.0], "higher", 0.1,
     "within bound"),
    ([1.0, 1.5, 0.7, 1.2], [1.3, 1.1, 1.0, 1.4], "lower", 0.1, "unresolved"),
    ([1.0, 1.5, 0.7, 1.2], [0.5, 0.6, 0.55, 0.6], "lower", 0.1,
     "within bound"),
    ([1.0, 1.1], [3.0, 3.1], "lower", None, "-"),
])
def test_compare_verdicts(base, change, better, bound, expected):
    assert compare.verdict(base, change, better, bound) == expected


def test_benchmark_json_lists_the_metrics_run_py_prints():
    import run

    with open(compare.BENCHMARK) as fp:
        spec = json.load(fp)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    # Every timed layer is listed either in BENCHMARK.json or as a
    # path-specific layer, never both.
    assert not set(layers.PER_LAYER) & set(layers.PATH_LAYERS)
    assert set(layers.TIMED) <= set(layers.PER_LAYER) | set(layers.PATH_LAYERS)


# -- layer accounting ---------------------------------------------------
def _span(sid, name, start, end, parent=None, report="r"):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "report": report, "hit": None}


def test_self_times_and_residuals():
    spans = [_span(0, "core.stage1", 0.0, 1.0),
             _span(1, "instr.discovery", 0.1, 0.3, parent=0),
             _span(2, "core.serialize", 1.5, 2.0)]
    assert layers.self_times(spans) == pytest.approx(
        {0: 0.8, 1: 0.2, 2: 0.5})
    header = {"spawned_at": 10.0, "main_entered": 10.4,
              "patch_seconds": 0.1}
    # wall 3.0 - startup 0.3 - top-level spans 1.5
    assert layers.cli_unattributed(header, spans, 3.0) == pytest.approx(1.2)
    scoped = [_span(0, "service.job", 0.0, 1.0, report="job-1"),
              _span(1, "exec.run_workloads", 0.1, 0.7, 0, "job-1"),
              _span(2, "exec.job", 0.2, 0.6, 1, "job-1")]
    assert layers.job_unattributed(scoped, {"job-1": 1.2}) == pytest.approx(
        [0.6])


def test_prometheus_value_sums_labelled_samples():
    text = ("# TYPE repro_instr_intern_entries gauge\n"
            'repro_instr_intern_entries{table="frames"} 6\n'
            'repro_instr_intern_entries{table="snapshots"} 4\n'
            "repro_service_store_hits 3\n")
    assert layers.prometheus_value(text, "repro_instr_intern_entries") == 10
    assert layers.prometheus_value(text, "repro_service_store_hits") == 3
    assert layers.prometheus_value(text, "repro_missing") == 0
