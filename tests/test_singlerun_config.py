"""Tests for single-run staged collection and Diogenes config plumbing."""

import pytest

from repro.apps.synthetic import UnnecessarySyncApp
from repro.core.diogenes import Diogenes, DiogenesConfig
from repro.core.singlerun import run_single_run_collection


class TestSingleRunCollection:
    def test_threshold_zero_captures_everything(self):
        result = run_single_run_collection(
            UnnecessarySyncApp(iterations=6), escalation_threshold=0)
        assert result.coverage == 1.0
        assert result.missed_operations == 0
        # 6 loop syncs + the final memcpy sync
        assert result.observed_operations == 7

    def test_threshold_skips_early_occurrences(self):
        result = run_single_run_collection(
            UnnecessarySyncApp(iterations=6), escalation_threshold=2)
        # Two loop-sync occurrences lost + the one-shot memcpy site lost.
        assert result.missed_operations == 3
        assert result.observed_operations == 7
        assert result.coverage == pytest.approx(4 / 7)

    def test_one_shot_sites_never_graduate(self):
        result = run_single_run_collection(
            UnnecessarySyncApp(iterations=1), escalation_threshold=1)
        # Both sites occur once: nothing is ever traced in detail.
        assert result.coverage == 0.0
        assert result.stage2.events == []

    def test_graduated_site_count(self):
        result = run_single_run_collection(
            UnnecessarySyncApp(iterations=6), escalation_threshold=2)
        assert result.graduated_sites == 1  # only the loop site repeats

    def test_events_carry_wait_durations(self):
        result = run_single_run_collection(
            UnnecessarySyncApp(iterations=5, kernel_time=1e-3,
                               cpu_time=1e-5),
            escalation_threshold=1)
        assert result.stage2.events
        assert all(e.sync_wait > 0.5e-3 for e in result.stage2.events)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            run_single_run_collection(UnnecessarySyncApp(iterations=1),
                                      escalation_threshold=-1)

    def test_empty_run_coverage_is_full(self):
        from repro.apps.base import Workload

        class NoSyncApp(Workload):
            name = "nosync"

            def run(self, ctx):
                ctx.cpu_work(1e-4)

        result = run_single_run_collection(NoSyncApp())
        assert result.coverage == 1.0


class TestDiogenesConfigPlumbing:
    def test_split_mode_has_five_collection_runs(self):
        report = Diogenes(UnnecessarySyncApp(iterations=3)).run()
        assert len(report.overhead.stage_times) == 5

    def test_dedup_policy_flows_to_stage3(self):
        from repro.apps.base import Workload
        import numpy as np

        class CrossDestinationApp(Workload):
            """Same content uploaded to two different device buffers."""

            name = "cross-dst"

            def run(self, ctx):
                rt = ctx.cudart
                with ctx.frame("main", "x.cpp", 5):
                    src = ctx.host_array(1024)
                    src.write(np.ones(1024))
                    a = rt.cudaMalloc(8192)
                    b = rt.cudaMalloc(8192)
                    with ctx.frame("main", "x.cpp", 10):
                        rt.cudaMemcpy(a, src)
                    with ctx.frame("main", "x.cpp", 12):
                        rt.cudaMemcpy(b, src)

        content = Diogenes(CrossDestinationApp(),
                           DiogenesConfig(dedup_policy="content")).run()
        strict = Diogenes(CrossDestinationApp(),
                          DiogenesConfig(dedup_policy="content+dst")).run()
        content_dups = [r for r in content.stage3.transfer_hashes
                        if r.duplicate]
        strict_dups = [r for r in strict.stage3.transfer_hashes
                       if r.duplicate]
        assert len(content_dups) == 1   # paper semantics: content match
        assert strict_dups == []        # different destinations

    def test_probe_overheads_slow_collection(self):
        cheap = DiogenesConfig(tracing_probe_overhead=0.0,
                               memtrace_probe_overhead=0.0,
                               syncuse_probe_overhead=0.0,
                               loadstore_overhead=0.0,
                               hash_bandwidth=1e15)
        expensive = DiogenesConfig(tracing_probe_overhead=20e-6,
                                   memtrace_probe_overhead=20e-6,
                                   syncuse_probe_overhead=20e-6)
        cheap_report = Diogenes(UnnecessarySyncApp(iterations=5), cheap).run()
        costly_report = Diogenes(UnnecessarySyncApp(iterations=5),
                                 expensive).run()
        assert costly_report.overhead.total_collection_time > \
            cheap_report.overhead.total_collection_time

    def test_invalid_fix_of_sequence_min_length(self):
        config = DiogenesConfig(sequence_min_length=1000)
        report = Diogenes(UnnecessarySyncApp(iterations=5), config).run()
        assert report.sequences == []
