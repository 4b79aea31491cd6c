"""Tests for the four FFM collection stages on synthetic workloads."""

import gc
import weakref

import pytest

from repro.apps.replay import ReplayApp
from repro.apps.synthetic import (
    DuplicateTransferApp,
    HiddenPrivateSyncApp,
    MisplacedSyncApp,
    QuietApp,
    ScriptedApp,
    UnnecessarySyncApp,
)
from repro.core.diogenes import DiogenesConfig
from repro.core.stage1_baseline import run_stage1
from repro.core.stage2_tracing import run_stage2, traced_function_set
from repro.core.stage3_memtrace import DedupStore, run_stage3
from repro.core.stage4_syncuse import run_stage4
from repro.core.records import SiteKey
from repro.core.singlerun import run_single_run_collection
from repro.driver.api import INTERNAL_WAIT_SYMBOL
from repro.instr.discovery import discover_sync_function
from repro.profilers.hpctoolkit import HpcToolkitProfiler
from repro.profilers.nvprof import NvprofProfiler
from repro.runtime.context import ExecutionContext


@pytest.fixture
def config():
    return DiogenesConfig()


class TestStage1:
    def test_discovers_wait_symbol(self, config):
        data = run_stage1(UnnecessarySyncApp(iterations=3), config)
        assert data.wait_symbol == INTERNAL_WAIT_SYMBOL

    def test_finds_synchronizing_functions(self, config):
        data = run_stage1(UnnecessarySyncApp(iterations=3), config)
        assert "cudaDeviceSynchronize" in data.synchronizing_functions
        assert "cudaMemcpy" in data.synchronizing_functions  # implicit
        assert "cudaFree" not in data.synchronizing_functions  # app has none

    def test_finds_private_sync_functions(self, config):
        data = run_stage1(HiddenPrivateSyncApp(iterations=2), config)
        assert "__priv_fence" in data.synchronizing_functions

    def test_site_counts_match_iterations(self, config):
        data = run_stage1(UnnecessarySyncApp(iterations=5), config)
        ds_sites = [s for s in data.sync_sites
                    if s.api_name == "cudaDeviceSynchronize"]
        assert len(ds_sites) == 1  # one static site
        assert ds_sites[0].count == 5

    def test_baseline_is_lightweight(self, config):
        app = UnnecessarySyncApp(iterations=5)
        uninstrumented = app.uninstrumented_time()
        data = run_stage1(app, config)
        assert data.execution_time <= uninstrumented * 1.02

    def test_sync_sites_have_stacks(self, config):
        data = run_stage1(UnnecessarySyncApp(iterations=2), config)
        for site in data.sync_sites:
            assert len(site.stack) > 0


class TestStage2:
    def _run(self, app, config):
        stage1 = run_stage1(app, config)
        return stage1, run_stage2(app, stage1, config)

    def test_traced_set_includes_transfers_and_stage1(self, config):
        stage1 = run_stage1(UnnecessarySyncApp(iterations=2), config)
        traced = traced_function_set(stage1)
        assert "cudaMemcpy" in traced
        assert "cudaDeviceSynchronize" in traced
        assert "__priv_dma" in traced

    def test_events_cover_all_syncs(self, config):
        app = UnnecessarySyncApp(iterations=4)
        _, stage2 = self._run(app, config)
        syncs = stage2.sync_events()
        # 4 in-loop device syncs + 1 final sync memcpy
        assert len(syncs) == 5

    def test_sync_wait_measured(self, config):
        app = UnnecessarySyncApp(iterations=3, kernel_time=1e-3, cpu_time=1e-5)
        _, stage2 = self._run(app, config)
        ds = [e for e in stage2.sync_events()
              if e.api_name == "cudaDeviceSynchronize"]
        assert all(e.sync_wait > 0.5e-3 for e in ds)
        assert all(e.sync_wait <= e.duration for e in stage2.events)

    def test_transfer_metadata(self, config):
        app = DuplicateTransferApp(iterations=2, elements=1024)
        _, stage2 = self._run(app, config)
        transfers = stage2.transfer_events()
        assert all(t.nbytes == 1024 * 8 for t in transfers)
        directions = {t.direction for t in transfers}
        assert directions == {"h2d", "d2h"}

    def test_occurrences_number_dynamic_calls(self, config):
        app = UnnecessarySyncApp(iterations=3)
        _, stage2 = self._run(app, config)
        ds = [e for e in stage2.sync_events()
              if e.api_name == "cudaDeviceSynchronize"]
        assert [e.site.occurrence for e in ds] == [0, 1, 2]

    def test_stray_sync_detected(self, config):
        from repro.core.records import Stage1Data

        # Fabricate a stage-1 result that missed cudaDeviceSynchronize.
        bogus = Stage1Data(execution_time=1.0,
                           wait_symbol=INTERNAL_WAIT_SYMBOL,
                           synchronizing_functions=[])
        with pytest.raises(RuntimeError, match="incomplete"):
            run_stage2(UnnecessarySyncApp(iterations=1), bogus, config)

    def test_events_are_time_ordered(self, config):
        app = MisplacedSyncApp(iterations=3)
        _, stage2 = self._run(app, config)
        entries = [e.t_entry for e in stage2.events]
        assert entries == sorted(entries)


class TestStage3:
    def _run(self, app, config):
        stage1 = run_stage1(app, config)
        return run_stage3(app, stage1, config)

    def test_duplicate_transfers_flagged(self, config):
        app = DuplicateTransferApp(iterations=4, elements=1024)
        stage3 = self._run(app, config)
        h2d = [r for r in stage3.transfer_hashes if r.direction == "h2d"]
        assert len(h2d) == 4
        assert [r.duplicate for r in h2d] == [False, True, True, True]
        assert all(r.first_site == h2d[0].site for r in h2d[1:])

    def test_fresh_transfers_not_flagged(self, config):
        app = ScriptedApp([("h2d", 0), ("h2d", 0), ("h2d", 0)])
        stage3 = self._run(app, config)
        assert not any(r.duplicate for r in stage3.transfer_hashes)

    def test_unnecessary_sync_not_required(self, config):
        app = UnnecessarySyncApp(iterations=3)
        stage3 = self._run(app, config)
        ds = [r for r in stage3.sync_uses
              if r.api_name == "cudaDeviceSynchronize"]
        assert ds and not any(r.required for r in ds)

    def test_consumed_sync_is_required(self, config):
        app = UnnecessarySyncApp(iterations=2)
        stage3 = self._run(app, config)
        memcpy = [r for r in stage3.sync_uses if r.api_name == "cudaMemcpy"]
        assert len(memcpy) == 1
        assert memcpy[0].required
        assert memcpy[0].access_file == "synthetic.cpp"
        assert memcpy[0].access_line == 31

    def test_access_stack_recorded(self, config):
        app = UnnecessarySyncApp(iterations=1)
        stage3 = self._run(app, config)
        required = [r for r in stage3.sync_uses if r.required]
        assert required[0].access_stack is not None
        assert required[0].access_address != 0

    def test_quiet_app_all_syncs_required(self, config):
        stage3 = self._run(QuietApp(iterations=3), config)
        assert all(r.required for r in stage3.sync_uses)

    def test_hashing_charges_time(self, config):
        app = DuplicateTransferApp(iterations=3, elements=64 * 1024)
        baseline = app.uninstrumented_time()
        stage3 = self._run(app, config)
        assert stage3.execution_time > baseline * 1.2


class TestDedupStore:
    def test_content_policy_matches_across_destinations(self):
        store = DedupStore(policy="content")
        a = SiteKey((1,), 0)
        assert store.check("deadbeef", 100, a) is None
        assert store.check("deadbeef", 999, SiteKey((2,), 0)) == a

    def test_content_dst_policy_requires_same_destination(self):
        store = DedupStore(policy="content+dst")
        a = SiteKey((1,), 0)
        assert store.check("deadbeef", 100, a) is None
        assert store.check("deadbeef", 999, SiteKey((2,), 0)) is None
        assert store.check("deadbeef", 100, SiteKey((3,), 0)) == a

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            DedupStore(policy="fuzzy")


class TestStage4:
    def _run(self, app, config):
        stage1 = run_stage1(app, config)
        stage3 = run_stage3(app, stage1, config)
        return stage3, run_stage4(app, stage1, stage3, config)

    def test_misplaced_sync_delay_measured(self, config):
        app = MisplacedSyncApp(iterations=3, independent_cpu_time=400e-6)
        _, stage4 = self._run(app, config)
        assert len(stage4.first_uses) >= 3
        for record in stage4.first_uses:
            assert record.first_use_delay == pytest.approx(400e-6, rel=0.1)

    def test_prompt_use_has_small_delay(self, config):
        app = QuietApp(iterations=3)
        _, stage4 = self._run(app, config)
        for record in stage4.first_uses:
            assert record.first_use_delay < 20e-6

    def test_unnecessary_syncs_produce_no_first_use(self, config):
        app = UnnecessarySyncApp(iterations=3)
        stage3, stage4 = self._run(app, config)
        required_sites = {r.site for r in stage3.sync_uses if r.required}
        assert {r.site for r in stage4.first_uses} <= required_sites


class TestRunsEndTheirProcess:
    """Each collection run is freed, by reference counting, when its
    stage returns: no cycle keeps a finished run's machine, device
    timeline or buffers waiting for the cycle collector.  The runs
    outside the FFM stages (the single-run ablation, both baseline
    profilers, an uninstrumented timing run) end theirs the same way."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Weak references to the machine and the driver of every
        context created."""
        refs = []
        create = ExecutionContext.create.__func__

        def recording_create(cls, config=None):
            ctx = create(cls, config)
            refs.append(weakref.ref(ctx.machine))
            refs.append(weakref.ref(ctx.driver))
            return ctx

        monkeypatch.setattr(ExecutionContext, "create",
                            classmethod(recording_create))
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            yield refs
        finally:
            gc.set_debug(0)
            del gc.garbage[:]
            gc.enable()
            gc.collect()

    @pytest.mark.parametrize("workload", [
        UnnecessarySyncApp(iterations=4),
        ReplayApp("dl-training"),
    ], ids=["synthetic-unnecessary-sync", "replay-dl-training"])
    def test_no_run_outlives_its_stage(self, workload, config, runs):
        def check(label, run):
            runs.clear()
            result = run()
            assert runs, f"{label} created no context"
            assert all(ref() is None for ref in runs), \
                f"{label}: a run's Machine or CudaDriver outlived it"
            gc.collect()
            garbage = sorted({type(o).__name__ for o in gc.garbage})
            del gc.garbage[:]
            assert garbage == [], f"{label} left cyclic garbage"
            return result

        evidence = check("discovery", discover_sync_function)
        stage1 = check("stage 1",
                       lambda: run_stage1(workload, config, evidence))
        check("stage 2", lambda: run_stage2(workload, stage1, config))
        memtrace = check("stage 3 memtrace", lambda: run_stage3(
            workload, stage1, config, mode="memtrace"))
        check("stage 3 hashing", lambda: run_stage3(
            workload, stage1, config, mode="hashing"))
        check("stage 4",
              lambda: run_stage4(workload, stage1, memtrace, config))
        check("single run", lambda: run_single_run_collection(workload))
        check("nvprof", lambda: NvprofProfiler().profile(workload))
        check("hpctoolkit", lambda: HpcToolkitProfiler().profile(workload))
        check("uninstrumented time", workload.uninstrumented_time)

