"""Determinism suite for the parallel executor and result cache.

The hard requirement that keeps ``repro.exec`` honest (and the reason
this file exists): the report JSON from a ``--jobs 4`` run must be
**byte-identical** to the serial in-process path, and a warm-cache
re-run must produce the same bytes again while *skipping* stage
execution — verified through the observability counters, never
inferred from wall time.

Apps run at test scale (small constructor parameters) so the whole
file stays in CI-friendly territory; the byte-identity property is
scale-independent.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.apps.base import registry
from repro.core.cli import _load_workloads
from repro.core.diogenes import Diogenes, DiogenesConfig
from repro.core.jsonio import dumps_report
from repro.exec import ResultCache, StageExecutor, WorkloadSpec
from repro.exec.fingerprint import config_from_json, config_to_json

_load_workloads()

#: The four example apps at test scale.  Keys are registry names;
#: values are constructor parameters shipped to worker processes.
TEST_SCALE_APPS: dict[str, dict] = {
    "synthetic-unnecessary-sync": {"iterations": 4},
    "rodinia-gaussian": {"n": 24},
    "cumf-als": {"iterations": 3, "users": 120, "items": 80},
    "cuibm": {"steps": 2, "cg_iters": 4},
}


def _app(name: str):
    return registry.create(name, **TEST_SCALE_APPS[name])


def _serial_json(name: str) -> str:
    return dumps_report(Diogenes(_app(name)).run())


def _parallel_json(name: str, jobs: int = 4, **executor_kwargs) -> str:
    with StageExecutor(jobs=jobs, **executor_kwargs) as executor:
        return dumps_report(Diogenes(_app(name), executor=executor).run())


@pytest.fixture(autouse=True)
def _observability_off():
    obs.disable()
    yield
    obs.disable()


# ----------------------------------------------------------------------
# Serial vs --jobs 4
# ----------------------------------------------------------------------
class TestParallelByteIdentity:
    @pytest.mark.parametrize("name", sorted(TEST_SCALE_APPS))
    def test_jobs4_report_is_byte_identical_to_serial(self, name):
        serial = _serial_json(name)
        parallel = _parallel_json(name, jobs=4)
        assert serial == parallel, (
            f"{name}: report from --jobs 4 differs from the serial run"
        )

    def test_inline_executor_matches_serial(self):
        # jobs=1 exercises the same job functions without a pool.
        name = "synthetic-unnecessary-sync"
        assert _serial_json(name) == _parallel_json(name, jobs=1,
                                                    cache_dir=None)

    def test_no_cache_computes_no_job_keys(self, monkeypatch):
        # A key (canonical JSON + SHA-256 of every upstream stage's
        # data) only addresses a cache; without one it is never built.
        def no_key(self, job):
            raise AssertionError("job key computed without a cache")

        monkeypatch.setattr(StageExecutor, "job_key", no_key)
        name = "synthetic-unnecessary-sync"
        assert _serial_json(name) == _parallel_json(name, jobs=1)

    def test_hand_built_workload_is_rejected_loudly(self):
        from repro.apps.synthetic import QuietApp

        with StageExecutor(jobs=1) as executor:
            with pytest.raises(ValueError, match="registry"):
                Diogenes(QuietApp(), executor=executor).run()


# ----------------------------------------------------------------------
# Warm cache
# ----------------------------------------------------------------------
class TestWarmCache:
    @pytest.mark.parametrize("name", ["synthetic-unnecessary-sync", "cuibm"])
    def test_warm_rerun_same_bytes_and_skips_execution(self, name, tmp_path):
        cold = _parallel_json(name, jobs=2, cache_dir=tmp_path)
        assert len(ResultCache(tmp_path)) == 5  # one entry per stage run

        with obs.enabled() as session:
            warm = _parallel_json(name, jobs=2, cache_dir=tmp_path)
        hits = sum(c.value
                   for c in session.metrics.series("exec.cache_hits"))
        misses = sum(c.value
                     for c in session.metrics.series("exec.cache_misses"))
        assert warm == cold
        assert hits == 5, "every stage run must be served from the cache"
        assert misses == 0, "a warm cache must not re-execute any stage"

    def test_cache_hits_are_visible_in_spans(self, tmp_path):
        _parallel_json("synthetic-unnecessary-sync", jobs=1,
                       cache_dir=tmp_path)
        with obs.enabled() as session:
            _parallel_json("synthetic-unnecessary-sync", jobs=1,
                           cache_dir=tmp_path)
        job_spans = session.tracer.find("exec.job")
        assert job_spans, "each stage job must emit an exec.job span"
        assert all(sp.attrs["cache_hit"] for sp in job_spans)

    def test_no_cache_flag_re_executes(self, tmp_path):
        _parallel_json("synthetic-unnecessary-sync", jobs=1,
                       cache_dir=tmp_path)
        with obs.enabled() as session:
            with StageExecutor(jobs=1) as executor:
                dumps_report(Diogenes(_app("synthetic-unnecessary-sync"),
                                      executor=executor).run())
        assert not session.metrics.series("exec.cache_hits")
        executed = sum(c.value
                       for c in session.metrics.series("exec.jobs_executed"))
        assert executed == 5

    def test_config_change_invalidates(self, tmp_path):
        _parallel_json("synthetic-unnecessary-sync", jobs=1,
                       cache_dir=tmp_path)
        config = DiogenesConfig(tracing_probe_overhead=9e-6)
        with obs.enabled() as session:
            with StageExecutor(jobs=1, cache_dir=tmp_path) as executor:
                Diogenes(_app("synthetic-unnecessary-sync"), config,
                         executor=executor).run()
        assert not session.metrics.series("exec.cache_hits")

    def test_param_change_invalidates(self, tmp_path):
        _parallel_json("synthetic-unnecessary-sync", jobs=1,
                       cache_dir=tmp_path)
        with obs.enabled() as session:
            with StageExecutor(jobs=1, cache_dir=tmp_path) as executor:
                Diogenes(registry.create("synthetic-unnecessary-sync",
                                         iterations=5),
                         executor=executor).run()
        assert not session.metrics.series("exec.cache_hits")

    def test_corrupt_cache_entry_degrades_to_miss(self, tmp_path):
        _parallel_json("synthetic-unnecessary-sync", jobs=1,
                       cache_dir=tmp_path)
        for path in tmp_path.glob("*/*.json"):
            path.write_text("{not json")
        warm = _parallel_json("synthetic-unnecessary-sync", jobs=1,
                              cache_dir=tmp_path)
        assert json.loads(warm)["workload"]


# ----------------------------------------------------------------------
# Batch fan-out
# ----------------------------------------------------------------------
class TestBatchDeterminism:
    def test_batch_matches_per_app_serial_runs(self):
        specs = [WorkloadSpec.from_params(name, params)
                 for name, params in sorted(TEST_SCALE_APPS.items())]
        config = DiogenesConfig()
        from repro.core.diogenes import report_from_stage_results

        with StageExecutor(jobs=4) as executor:
            results = executor.run_workloads(specs, config)
        for spec in specs:
            batch_json = dumps_report(report_from_stage_results(
                getattr(registry.create(spec.name, **spec.params_dict()),
                        "name"),
                results[spec], config))
            assert batch_json == _serial_json(spec.name), spec.name

    def test_merge_is_input_ordered_not_completion_ordered(self):
        # Reversing the submission order must not change any report.
        specs = [WorkloadSpec.from_params(name, params)
                 for name, params in sorted(TEST_SCALE_APPS.items())]
        config = DiogenesConfig()
        with StageExecutor(jobs=4) as executor:
            forward = executor.run_workloads(specs, config)
        with StageExecutor(jobs=4) as executor:
            backward = executor.run_workloads(list(reversed(specs)), config)
        for spec in specs:
            assert forward[spec] == backward[spec]


# ----------------------------------------------------------------------
# Config round-trip (what crosses the process boundary)
# ----------------------------------------------------------------------
class TestConfigRoundTrip:
    def test_default_config_round_trips(self):
        config = DiogenesConfig()
        assert config_from_json(config_to_json(config)) == config

    def test_custom_config_round_trips(self):
        from repro.core.benefit import BenefitConfig
        from repro.sim.costs import CostParameters
        from repro.sim.machine import MachineConfig

        config = DiogenesConfig(
            machine_config=MachineConfig(
                cost_params=CostParameters(h2d_bandwidth=1e9),
                compute_engines=2),
            dedup_policy="content+dst",
            benefit=BenefitConfig(cap_misplaced_at_wait=False),
        )
        assert config_from_json(config_to_json(config)) == config


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------
class TestExecutorGuardRails:
    def test_zero_jobs_is_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            StageExecutor(jobs=0)

    def test_unknown_stage_is_rejected(self):
        from repro.exec.jobs import StageJob, execute_job

        spec = WorkloadSpec.from_params("synthetic-unnecessary-sync",
                                        {"iterations": 2})
        job = StageJob(workload=spec, stage="stage9",
                       config=config_to_json(DiogenesConfig()))
        with pytest.raises(ValueError, match="unknown stage"):
            execute_job(job)

    def test_cache_rejects_foreign_schema_and_shape(self, tmp_path):
        from repro.exec.cache import ResultCache

        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, "stage1", "w", {"x": 1})
        (entry,) = tmp_path.glob("*/*.json")
        assert cache.get("ab" * 32) == {"x": 1}
        # A payload from a different cache schema must read as a miss.
        entry.write_text(json.dumps({"schema": -1, "data": {"x": 1}}))
        assert cache.get("ab" * 32) is None
        # So must an entry that is not even an object.
        entry.write_text(json.dumps([1, 2, 3]))
        assert cache.get("ab" * 32) is None

    def test_cache_len_without_directory_is_zero(self, tmp_path):
        from repro.exec.cache import ResultCache

        assert len(ResultCache(tmp_path / "never-created")) == 0
