"""End-to-end tests for ``python -m repro.analysis`` and the IO layer:
byte-stable reports, regression gating exit codes, streaming JSONL reading,
and the fluent ``Campaign(...).analyze()`` terminal."""

import json
import math

import pytest

from repro.analysis.cli import main
from repro.analysis.engine import CampaignAnalysis
from repro.analysis.io import discover_result_files, iter_records
from repro.bench.campaign import Campaign
from repro.core.metrics import (
    CampaignResult,
    DetectionStats,
    RunOutcome,
    RunRecord,
    append_record_jsonl,
    iter_result_records,
    read_result_header,
)
from repro.world.scenario_gen import generate_suite
from repro.world.scenario_suite import build_evaluation_suite


def write_campaign(
    directory,
    name="MLS-V1",
    successes=8,
    total=10,
    landing_error=0.3,
    platform="desktop",
    scenario_ids=None,
):
    """Persist a synthetic campaign the way ``Campaign.out`` lays it out."""
    path = directory / f"{name}.jsonl"
    for index in range(total):
        outcome = RunOutcome.SUCCESS if index < successes else RunOutcome.COLLISION
        scenario_id = (
            scenario_ids[index] if scenario_ids is not None else f"s{index:03d}"
        )
        record = RunRecord(
            scenario_id=scenario_id,
            system_name=name,
            outcome=outcome,
            landing_error=landing_error if outcome is RunOutcome.SUCCESS else float("nan"),
            landed=outcome is RunOutcome.SUCCESS,
            mission_time=35.0 + index,
            adverse_weather=index % 2 == 0,
            detection=DetectionStats(
                frames_with_visible_marker=20, frames_detected=19,
                deviation_samples=[0.1],
            ),
        )
        append_record_jsonl(path, name, record, extra_header={"platform": platform})
    return path


class TestIo:
    def test_iter_records_streams_file(self, tmp_path):
        path = write_campaign(tmp_path, total=5)
        records = list(iter_result_records(path))
        assert len(records) == 5
        assert all(isinstance(record, RunRecord) for record in records)

    def test_torn_tail_dropped_with_warning(self, tmp_path):
        path = write_campaign(tmp_path, total=3)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"scenario_id": "torn", "system_na')
        with pytest.warns(RuntimeWarning, match="torn"):
            records = list(iter_result_records(path))
        assert len(records) == 3

    def test_malformed_mid_file_raises(self, tmp_path):
        path = write_campaign(tmp_path, total=2)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(2, "{not json}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            list(iter_result_records(path))

    def test_directory_discovery_skips_suite_files(self, tmp_path):
        write_campaign(tmp_path, name="MLS-V1")
        write_campaign(tmp_path, name="MLS-V3")
        generate_suite("smoke", seed=3).to_jsonl(tmp_path / "suite.jsonl")
        results, suites = discover_result_files(tmp_path)
        assert [p.name for p in results] == ["MLS-V1.jsonl", "MLS-V3.jsonl"]
        assert [p.name for p in suites] == ["suite.jsonl"]
        assert len(list(iter_records(tmp_path))) == 20

    def test_header_platform_round_trip(self, tmp_path):
        path = write_campaign(tmp_path, platform="jetson-nano")
        assert read_result_header(path)["platform"] == "jetson-nano"

    def test_live_results_source(self):
        campaign = CampaignResult(system_name="MLS-V1")
        campaign.add(
            RunRecord(scenario_id="s0", system_name="MLS-V1", outcome=RunOutcome.SUCCESS)
        )
        assert len(list(iter_records({"MLS-V1": campaign}))) == 1

    def test_missing_source_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_records(tmp_path / "nope"))
        with pytest.raises(ValueError, match="no campaign-result"):
            empty = tmp_path / "empty"
            empty.mkdir()
            list(iter_records(empty))


class TestSummarizeCli:
    def test_byte_identical_across_invocations(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        write_campaign(results)
        first, second = tmp_path / "a.md", tmp_path / "b.md"
        assert main(["summarize", str(results), "--seed", "3", "--out", str(first)]) == 0
        assert main(["summarize", str(results), "--seed", "3", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text(encoding="utf-8")
        assert "Wilson" in text and "bootstrap" in text
        assert "80.00%" in text  # 8/10 success
        assert "Paper reference" in text  # MLS-V1 is in Table I

    def test_summarize_prints_to_stdout(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        write_campaign(results)
        assert main(["summarize", str(results)]) == 0
        assert "Outcome rates" in capsys.readouterr().out

    def test_missing_dir_exits_2_with_diagnostic(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "missing")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dir_without_results_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["summarize", str(empty)]) == 2
        assert "no campaign-result" in capsys.readouterr().err

    @pytest.mark.parametrize("resamples", ["0", "-5"])
    def test_resample_count_below_one_exits_2(self, tmp_path, capsys, resamples):
        # Exit 1 means "regression found" to `gate`; a bad flag is exit 2.
        results = tmp_path / "results"
        results.mkdir()
        write_campaign(results)
        assert main(["summarize", str(results), "--resamples", resamples]) == 2
        assert "resamples must be at least 1" in capsys.readouterr().err


class TestSliceCli:
    def test_slice_with_suite_join(self, tmp_path, capsys):
        suite = generate_suite("stress", count=4, seed=9)
        suite_path = tmp_path / "suite.jsonl"
        suite.to_jsonl(suite_path)
        results = tmp_path / "results"
        results.mkdir()
        write_campaign(
            results, total=4, scenario_ids=[s.scenario_id for s in suite]
        )
        assert (
            main(
                [
                    "slice", str(results), "--by", "stress-axis",
                    "--suite", str(suite_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Campaign slice by stress-axis" in out
        assert "(unjoined)" not in out

    def test_slice_auto_joins_suite_in_results_dir(self, tmp_path, capsys):
        suite = generate_suite("stress", count=4, seed=9)
        results = tmp_path / "results"
        results.mkdir()
        suite.to_jsonl(results / "suite.jsonl")
        write_campaign(
            results, total=4, scenario_ids=[s.scenario_id for s in suite]
        )
        assert main(["slice", str(results), "--by", "wind-band"]) == 0
        assert "(unjoined)" not in capsys.readouterr().out

    def test_unjoined_without_suite(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        write_campaign(results, total=2)
        assert main(["slice", str(results), "--by", "map-style"]) == 0
        assert "(unjoined)" in capsys.readouterr().out


class TestCompareAndGateCli:
    def _two_campaigns(self, tmp_path, current_successes):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        baseline.mkdir()
        current.mkdir()
        write_campaign(baseline, successes=80, total=100)
        write_campaign(current, successes=current_successes, total=100)
        return baseline, current

    def test_compare_flags_injected_regression(self, tmp_path, capsys):
        baseline, current = self._two_campaigns(tmp_path, current_successes=55)
        assert main(["compare", str(baseline), str(current)]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "significant regression(s)" in out

    def test_gate_exits_nonzero_on_regression(self, tmp_path, capsys):
        baseline, current = self._two_campaigns(tmp_path, current_successes=55)
        assert main(["gate", str(current), "--baseline", str(baseline)]) == 1
        assert "GATE FAILED" in capsys.readouterr().err

    def test_gate_passes_identical_campaigns(self, tmp_path):
        baseline, current = self._two_campaigns(tmp_path, current_successes=80)
        assert main(["gate", str(current), "--baseline", str(baseline)]) == 0

    def test_gate_passes_on_improvement(self, tmp_path):
        baseline, current = self._two_campaigns(tmp_path, current_successes=95)
        assert main(["gate", str(current), "--baseline", str(baseline)]) == 0

    def test_gate_alpha_changes_sensitivity(self, tmp_path):
        # 80 -> 72 of 100: p ~ 0.18, insignificant at 0.05 but not at 0.5.
        baseline, current = self._two_campaigns(tmp_path, current_successes=72)
        assert main(["gate", str(current), "--baseline", str(baseline)]) == 0
        assert (
            main(
                ["gate", str(current), "--baseline", str(baseline), "--alpha", "0.5"]
            )
            == 1
        )

    def test_gate_fails_when_baseline_system_vanishes(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        baseline.mkdir()
        current.mkdir()
        write_campaign(baseline, name="MLS-V1", successes=8, total=10)
        write_campaign(baseline, name="MLS-V3", successes=9, total=10)
        # MLS-V3 produced no records at all in the current campaign: that
        # must fail the gate even though every compared rate is unchanged.
        write_campaign(current, name="MLS-V1", successes=8, total=10)
        assert main(["gate", str(current), "--baseline", str(baseline)]) == 1
        assert "MLS-V3 missing" in capsys.readouterr().err

    def test_new_system_in_current_does_not_fail_gate(self, tmp_path):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        baseline.mkdir()
        current.mkdir()
        write_campaign(baseline, name="MLS-V1", successes=8, total=10)
        write_campaign(current, name="MLS-V1", successes=8, total=10)
        write_campaign(current, name="MLS-V3", successes=9, total=10)
        assert main(["gate", str(current), "--baseline", str(baseline)]) == 0

    def test_missing_suite_path_is_a_file_error(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        write_campaign(results)
        assert (
            main(
                [
                    "slice", str(results), "--by", "wind-band",
                    "--suite", str(tmp_path / "nope.jsonl"),
                ]
            )
            == 2
        )
        # A typo'd suite path reads as a missing file, not an unknown preset.
        assert "nope.jsonl" in capsys.readouterr().err

    def test_compare_report_deterministic(self, tmp_path):
        baseline, current = self._two_campaigns(tmp_path, current_successes=55)
        first, second = tmp_path / "a.md", tmp_path / "b.md"
        assert main(["compare", str(baseline), str(current), "--out", str(first)]) == 0
        assert main(["compare", str(baseline), str(current), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestAnalyzeTerminal:
    @pytest.mark.slow
    def test_campaign_analyze_runs_and_reports(self):
        suite = build_evaluation_suite(base_seed=2025).subset(2)
        suite.repetitions = 1
        campaign = Campaign("mls-v1").suite(suite)
        analysis = campaign.analyze(seed=1)
        assert campaign._suite is suite  # analyze() restores the suite setting
        summaries = analysis.summaries()
        assert "MLS-V1" in summaries
        assert summaries["MLS-V1"].runs == 2
        report = analysis.report()
        assert "Outcome rates" in report
        slices = analysis.slice("map-style")
        assert "(unjoined)" not in slices  # the campaign's suite is joined

    def test_one_shot_iterator_source_is_pinned(self):
        campaign = CampaignResult(system_name="MLS-V1")
        campaign.add(
            RunRecord(scenario_id="s0", system_name="MLS-V1", outcome=RunOutcome.SUCCESS)
        )
        analysis = CampaignAnalysis(iter([campaign]))  # generator-like source
        assert analysis.summaries()["MLS-V1"].runs == 1
        # A second streaming pass (slicing) must see the records again.
        assert analysis.slice("weather")

    def test_analysis_over_live_results_matches_persisted(self, tmp_path):
        campaign = CampaignResult(system_name="MLS-V1")
        for index in range(6):
            outcome = RunOutcome.SUCCESS if index < 4 else RunOutcome.POOR_LANDING
            campaign.add(
                RunRecord(
                    scenario_id=f"s{index}",
                    system_name="MLS-V1",
                    outcome=outcome,
                    landing_error=0.2,
                    landed=outcome is RunOutcome.SUCCESS,
                    mission_time=30.0,
                )
            )
        live = CampaignAnalysis({"MLS-V1": campaign}, seed=2)
        path = campaign.to_jsonl(tmp_path / "MLS-V1.jsonl")
        persisted = CampaignAnalysis(str(path), seed=2)
        assert live.report() == persisted.report()

    def test_gate_api(self, tmp_path):
        good = CampaignResult(system_name="MLS-V1")
        bad = CampaignResult(system_name="MLS-V1")
        for index in range(60):
            good.add(
                RunRecord(
                    scenario_id=f"s{index}", system_name="MLS-V1",
                    outcome=RunOutcome.SUCCESS, landed=True, landing_error=0.2,
                )
            )
            bad.add(
                RunRecord(
                    scenario_id=f"s{index}", system_name="MLS-V1",
                    outcome=RunOutcome.COLLISION,
                )
            )
        comparison = CampaignAnalysis({"MLS-V1": bad}).compare_to({"MLS-V1": good})
        assert comparison.has_regression
        comparison = CampaignAnalysis({"MLS-V1": good}).compare_to({"MLS-V1": good})
        assert not comparison.has_regression


class TestRoundTripNumbers:
    def test_summary_json_content_survives_jsonl(self, tmp_path):
        """The persisted stream feeds the same numbers the live records do."""
        path = write_campaign(tmp_path, successes=3, total=5, landing_error=0.42)
        records = list(iter_result_records(path))
        loaded = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
        assert loaded["landing_error"] == pytest.approx(0.42)
        nan_errors = [r.landing_error for r in records if not r.landed]
        assert all(math.isnan(value) for value in nan_errors)


class TestSummarizeCache:
    """The report memo behind the service's report endpoints."""

    def test_unchanged_dir_is_a_cache_hit_and_byte_identical(self, tmp_path):
        from repro.analysis.memo import cached_report

        write_campaign(tmp_path, total=6)
        first = cached_report(tmp_path)
        assert not first.hit
        second = cached_report(tmp_path)
        assert second.hit and second.key == first.key
        assert second.text == first.text
        # The memoized output equals the uncached path byte for byte.
        plain = tmp_path / "plain.md"
        assert main(["summarize", str(tmp_path), "--out", str(plain)]) == 0
        assert plain.read_text(encoding="utf-8") == first.text

    def test_appended_records_move_the_key_and_prune_the_old_entry(self, tmp_path):
        from repro.analysis.memo import cached_report

        write_campaign(tmp_path, total=4)
        first = cached_report(tmp_path)
        write_campaign(tmp_path, total=2)  # appends to the same file
        second = cached_report(tmp_path)
        assert not second.hit and second.key != first.key
        assert second.records == first.records + 2
        # One live entry per report kind: the superseded key was pruned.
        cache_dir = tmp_path / ".report-cache"
        assert [path.name for path in cache_dir.glob("summary-*.md")] == [second.path.name]

    @pytest.mark.parametrize(
        "argv",
        [
            ["summarize", "--cache"],
            ["slice", "--by", "stress-axis", "--cache"],
            ["slice", "--by", "stress-axis", "--seed", "1"],
            ["slice", "--by", "stress-axis", "--resamples", "0"],
        ],
    )
    def test_flags_nothing_reads_are_gone(self, tmp_path, capsys, argv):
        # The memo serves the service only; a slice report draws no bootstrap.
        write_campaign(tmp_path, total=2)
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], str(tmp_path), *argv[1:]])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
