"""Tests for report rendering, JSON export, and the CLI."""

import json

import pytest

from repro.apps.cumf_als import CumfAls
from repro.apps.synthetic import DuplicateTransferApp, UnnecessarySyncApp
from repro.core import report as reports
from repro.core.cli import build_parser, main
from repro.core.diogenes import Diogenes
from repro.core.jsonio import dumps_report, report_to_json
from repro.core.sequences import subsequence


@pytest.fixture(scope="module")
def als_report():
    return Diogenes(CumfAls(iterations=3)).run()


@pytest.fixture(scope="module")
def simple_report():
    return Diogenes(UnnecessarySyncApp(iterations=4)).run()


class TestRendering:
    def test_overview_has_folds_and_sequences(self, als_report):
        text = reports.render_overview(als_report)
        assert "Diogenes Overview Display" in text
        assert "Fold on cudaFree" in text
        assert "Sequence starting at call" in text
        assert "% of execution time" in text or "%" in text

    def test_fold_expansion_shows_conditional_note(self, als_report):
        fold = als_report.api_folds[0]
        text = reports.render_fold_expansion(als_report, fold)
        assert "Fold on" in text
        assert "Conditionally unnecessary" in text

    def test_sequence_render_matches_figure6_format(self, als_report):
        seq = als_report.sequences[0]
        text = reports.render_sequence(als_report, seq)
        assert text.startswith("Time Recoverable:")
        assert "Number of Sync Issues: 23 Number of Transfer Issues: 5" in text
        assert "cudaFree in als.cpp at line 856" in text

    def test_subsequence_render_matches_figure8_format(self, als_report):
        seq = als_report.sequences[0]
        sub = subsequence(als_report.analysis, seq, 10, 23)
        text = reports.render_subsequence(als_report, sub, 10)
        assert "Time Recoverable In Subsequence" in text
        assert "10. cudaFree in als.cpp at line 856" in text
        assert "23. cudaFree in als.cpp at line 987" in text

    def test_problem_list_is_ranked(self, simple_report):
        text = reports.render_problem_list(simple_report)
        assert "Unnecessary synchronization" in text
        assert "Estimated total recoverable" in text

    def test_overhead_render(self, simple_report):
        text = reports.render_overhead(simple_report)
        assert "x baseline" in text
        assert "stage3_memtrace" in text

    def test_full_report_renders(self, als_report):
        text = reports.render_full_report(als_report)
        assert len(text) > 500


class TestJsonExport:
    def test_export_is_json_serializable(self, als_report):
        blob = dumps_report(als_report)
        parsed = json.loads(blob)
        assert parsed["workload"] == "cumf-als"

    def test_export_contains_all_sections(self, als_report):
        data = report_to_json(als_report)
        for key in ("stages", "problems", "groups", "sequences", "overhead",
                    "execution_time", "total_est_benefit"):
            assert key in data

    def test_problem_entries_carry_locations(self, als_report):
        data = report_to_json(als_report)
        locations = {p["location"] for p in data["problems"]}
        assert any("als.cpp" in loc for loc in locations)

    def test_sequence_entries_exported(self, als_report):
        data = report_to_json(als_report)
        seq = data["sequences"][0]
        assert seq["length"] == len(seq["entries"])
        assert seq["sync_issues"] == 23

    def test_fold_expansion_exported(self, als_report):
        data = report_to_json(als_report)
        fold = data["groups"]["api_folds"][0]
        assert "expansion" in fold
        assert fold["total_benefit"] >= 0

    def test_stage1_roundtrips_sites(self, als_report):
        data = report_to_json(als_report)
        site = data["stages"]["stage1"]["sync_sites"][0]
        assert {"api_name", "stack", "count", "total_wait"} <= set(site)

    def test_overhead_multiple_positive(self, als_report):
        data = report_to_json(als_report)
        assert data["overhead"]["overhead_multiple"] > 1.0


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "amg", "--view", "overview"])
        assert args.workload == "amg"

    @pytest.mark.parametrize("argv", [
        ["run", "synthetic-unnecessary-sync", "--no-cache"],
        ["batch", "synthetic-unnecessary-sync", "--no-cache"],
    ])
    def test_no_cache_flag_is_gone(self, argv, capsys):
        # A run without --cache-dir neither reads nor writes a cache.
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cumf-als" in out
        assert "rodinia-gaussian" in out

    def test_run_overview(self, capsys):
        assert main(["run", "synthetic-unnecessary-sync",
                     "--view", "overview"]) == 0
        assert "Diogenes Overview Display" in capsys.readouterr().out

    def test_run_with_json_export(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["run", "synthetic-duplicate-transfer",
                     "--view", "problems", "--json", str(out_file)]) == 0
        parsed = json.loads(out_file.read_text())
        assert parsed["workload"] == "synthetic-duplicate-transfer"

    def test_run_subsequence_requires_range(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "synthetic-unnecessary-sync",
                  "--view", "subsequence"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            main(["run", "no-such-app"])

    def test_fold_view(self, capsys):
        assert main(["run", "synthetic-unnecessary-sync", "--view", "fold",
                     "--fold", "cudaDeviceSynchronize"]) == 0
        assert "Fold on cudaDeviceSynchronize" in capsys.readouterr().out

    def test_unknown_fold_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "synthetic-unnecessary-sync", "--view", "fold",
                  "--fold", "cudaNothing"])


class TestStageRoundTrip:
    """Stage data exports losslessly and re-analyses identically."""

    def test_stage_data_roundtrip_preserves_analysis(self, als_report):
        import json as json_mod

        from repro.core.jsonio import analyze_from_json, stages_to_json

        blob = json_mod.dumps(stages_to_json(als_report))
        reanalysed = analyze_from_json(json_mod.loads(blob))
        original = als_report.analysis
        assert reanalysed.execution_time == original.execution_time
        assert len(reanalysed.problems) == len(original.problems)
        assert reanalysed.total_benefit == pytest.approx(
            original.total_benefit)
        assert [p.location() for p in reanalysed.problems] == \
            [p.location() for p in original.problems]

    def test_reanalysis_with_different_settings(self, als_report):
        from repro.core.jsonio import analyze_from_json, stages_to_json

        # A huge misplaced threshold disables misplaced classification;
        # everything else must still work from the serialized data.
        reanalysed = analyze_from_json(stages_to_json(als_report),
                                       misplaced_min_delay=1e9)
        from repro.core.graph import ProblemKind

        assert not any(p.kind is ProblemKind.MISPLACED_SYNC
                       for p in reanalysed.problems)

    def test_stage1_roundtrip(self, als_report):
        from repro.core.records import Stage1Data

        back = Stage1Data.from_json(als_report.stage1.to_json())
        assert back.wait_symbol == als_report.stage1.wait_symbol
        assert back.synchronizing_functions == \
            als_report.stage1.synchronizing_functions
        assert len(back.sync_sites) == len(als_report.stage1.sync_sites)
        assert back.sync_sites[0].stack.address_key() == \
            als_report.stage1.sync_sites[0].stack.address_key()

    def test_stage4_roundtrip(self, als_report):
        from repro.core.records import Stage4Data

        back = Stage4Data.from_json(als_report.stage4.to_json())
        assert back.delay_by_site() == als_report.stage4.delay_by_site()


class TestCliParams:
    def test_param_parsing_types(self):
        from repro.core.cli import parse_params

        params = parse_params(["iterations=7", "kernel_time=1e-3",
                               "fixed=true", "fix=full"])
        assert params == {"iterations": 7, "kernel_time": 1e-3,
                          "fixed": True, "fix": "full"}

    def test_param_flows_to_workload(self, capsys):
        from repro.core.cli import main

        assert main(["run", "synthetic-unnecessary-sync",
                     "--view", "problems", "--param", "iterations=2"]) == 0
        out = capsys.readouterr().out
        # two in-loop unnecessary syncs -> exactly 2 problems
        assert "  2. " in out and "  3. " not in out

    def test_bad_param_shape_rejected(self):
        from repro.core.cli import main

        with pytest.raises(SystemExit):
            main(["run", "synthetic-unnecessary-sync", "--param", "oops"])

    def test_unknown_param_rejected(self):
        from repro.core.cli import main

        with pytest.raises(SystemExit):
            main(["run", "synthetic-unnecessary-sync",
                  "--param", "nonsense=1"])

    @pytest.mark.parametrize("args, message", [
        (["cumf-als", "--param", "fix=bogus"], "fix must be one of"),
        (["replay", "--param", "trace=no-such-trace"], "unknown trace"),
    ], ids=["cumf-als-fix", "replay-trace"])
    def test_rejected_param_value_is_a_bad_param_line(self, args, message):
        # The constructor's ValueError becomes the same one-line exit as
        # a parameter the workload does not take, not a traceback.
        from repro.core.cli import main

        with pytest.raises(SystemExit) as info:
            main(["run", *args])
        assert str(info.value).startswith(f"bad --param for {args[0]!r}: ")
        assert message in str(info.value)

    def test_fixes_view(self, capsys):
        from repro.core.cli import main

        assert main(["run", "synthetic-unnecessary-sync",
                     "--view", "fixes"]) == 0
        assert "remove_synchronization" in capsys.readouterr().out


class TestRenderEdgeCases:
    def test_long_sequence_listing_elides_middle(self):
        from repro.apps.synthetic import UnnecessarySyncApp

        # 40 distinct problem entries in one sequence would be unwieldy;
        # force one by scripting many one-off sync sites.
        from repro.apps.synthetic import ScriptedApp

        script = []
        for _ in range(20):
            script.append(("launch", 100e-6))
            script.append(("sync",))
        report = Diogenes(ScriptedApp(script)).run()
        seq = report.sequences[0]
        assert seq.length == 20
        text = reports.render_sequence(report, seq, elide_over=10)
        assert "..." in text
        assert "1. " in text
        assert f"{seq.length}. " in text

    def test_overview_limit(self, als_report):
        text = reports.render_overview(als_report, limit=1)
        body = [l for l in text.splitlines()
                if "Fold on" in l or "Sequence" in l]
        assert len(body) == 1

    def test_problem_list_truncation_note(self):
        from repro.apps.synthetic import UnnecessarySyncApp

        report = Diogenes(UnnecessarySyncApp(iterations=30)).run()
        text = reports.render_problem_list(report, limit=5)
        assert "... and 25 more" in text
