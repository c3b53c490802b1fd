"""Tests for the analysis statistics layer: Wilson intervals, bootstrap CIs,
two-proportion tests, streaming summaries, slicing and campaign diffing."""

import math

import pytest

from repro.analysis.compare import compare_summaries, compare_to_paper
from repro.analysis.io import RecordContext
from repro.analysis.slicing import (
    UNJOINED,
    ScenarioIndex,
    lighting_band,
    obstacle_band,
    slice_contexts,
    wind_band,
)
from repro.analysis.stats import (
    MetricSamples,
    RateEstimate,
    SystemSummary,
    bootstrap_diff_ci,
    bootstrap_mean_ci,
    metric_seed,
    summarize_records,
    two_proportion_test,
    wilson_interval,
)
from repro.core.metrics import (
    RECORD_FACTORS,
    CampaignResult,
    DetectionStats,
    RunOutcome,
    RunRecord,
)
from repro.world.scenario_gen import generate_suite


def make_record(
    scenario_id="s000",
    name="MLS-V1",
    outcome=RunOutcome.SUCCESS,
    landing_error=0.3,
    adverse=False,
    mission_time=40.0,
    frames_visible=10,
    frames_detected=9,
):
    return RunRecord(
        scenario_id=scenario_id,
        system_name=name,
        outcome=outcome,
        landing_error=landing_error,
        landed=outcome is RunOutcome.SUCCESS,
        mission_time=mission_time,
        adverse_weather=adverse,
        detection=DetectionStats(
            frames_with_visible_marker=frames_visible,
            frames_detected=frames_detected,
            deviation_samples=[0.1, 0.2],
        ),
    )


class TestWilson:
    def test_known_value(self):
        # Classic check: 5/10 at 95% gives roughly [0.2366, 0.7634].
        low, high = wilson_interval(5, 10)
        assert low == pytest.approx(0.2366, abs=1e-3)
        assert high == pytest.approx(0.7634, abs=1e-3)

    def test_extremes_stay_in_unit_interval(self):
        assert wilson_interval(0, 20)[0] == 0.0
        assert wilson_interval(20, 20)[1] == 1.0
        low, high = wilson_interval(0, 20)
        assert 0.0 < high < 0.25  # never collapses to a zero-width interval

    def test_empty_counts_give_trivial_interval(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_narrower_with_more_data(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_invalid_counts_raise(self):
        with pytest.raises(ValueError):
            wilson_interval(3, 2)


class TestBootstrap:
    def test_deterministic_for_seed(self):
        samples = [0.1, 0.5, 0.9, 0.2, 0.7, 0.4]
        assert bootstrap_mean_ci(samples, seed=7) == bootstrap_mean_ci(samples, seed=7)
        assert bootstrap_mean_ci(samples, seed=7) != bootstrap_mean_ci(samples, seed=8)

    def test_brackets_the_mean(self):
        samples = list(range(100))
        low, high = bootstrap_mean_ci(samples, seed=0)
        assert low < 49.5 < high

    @pytest.mark.parametrize("resamples", [0, -5])
    def test_resample_count_below_one_raises(self, resamples):
        # Even where no draw would be needed (one sample, an empty side).
        with pytest.raises(ValueError, match="resamples must be at least 1"):
            bootstrap_mean_ci([0.1, 0.5], resamples=resamples)
        with pytest.raises(ValueError, match="resamples must be at least 1"):
            bootstrap_mean_ci([0.1], resamples=resamples)
        with pytest.raises(ValueError, match="resamples must be at least 1"):
            bootstrap_diff_ci([0.1, 0.5], [], resamples=resamples)

    def test_degenerate_sizes(self):
        assert all(math.isnan(v) for v in bootstrap_mean_ci([], seed=0))
        assert bootstrap_mean_ci([2.5], seed=0) == (2.5, 2.5)

    def test_diff_ci_detects_shift(self):
        baseline = [1.0 + 0.01 * i for i in range(50)]
        shifted = [value + 1.0 for value in baseline]
        low, high = bootstrap_diff_ci(baseline, shifted, seed=3)
        assert low > 0.5 and high < 1.5

    def test_metric_seed_is_stable_and_distinct(self):
        assert metric_seed(0, "a", "b") == metric_seed(0, "a", "b")
        assert metric_seed(0, "a", "b") != metric_seed(0, "a", "c")
        assert metric_seed(0, "a", "b") != metric_seed(1, "a", "b")


class TestTwoProportion:
    def test_significant_difference(self):
        result = two_proportion_test(80, 100, 50, 100)
        assert result.p_value < 0.001
        assert result.significant(0.05)

    def test_no_difference(self):
        result = two_proportion_test(50, 100, 50, 100)
        assert result.z == 0.0
        assert result.p_value == pytest.approx(1.0)

    def test_degenerate_inputs_are_null(self):
        assert two_proportion_test(0, 0, 5, 10).p_value == 1.0
        assert two_proportion_test(10, 10, 10, 10).p_value == 1.0


class TestSystemSummary:
    def test_streaming_counts_match_campaign_result(self):
        records = [
            make_record("s0", outcome=RunOutcome.SUCCESS),
            make_record("s1", outcome=RunOutcome.COLLISION, adverse=True),
            make_record("s2", outcome=RunOutcome.POOR_LANDING),
            make_record("s3", outcome=RunOutcome.SUCCESS),
        ]
        summaries = summarize_records(iter(records))
        summary = summaries["MLS-V1"]
        campaign = CampaignResult(system_name="MLS-V1", records=records)
        assert summary.runs == len(campaign)
        assert summary.rates()["success"].rate == pytest.approx(campaign.success_rate)
        assert summary.rates()["collision"].rate == pytest.approx(
            campaign.collision_failure_rate
        )
        assert summary.rates()["detection-fn"].rate == pytest.approx(
            campaign.false_negative_rate
        )
        assert summary.landing_errors.mean == pytest.approx(campaign.mean_landing_error)

    def test_nan_landing_error_excluded(self):
        summary = SystemSummary("MLS-V1")
        summary.add(make_record("s0", landing_error=float("nan")))
        assert len(summary.landing_errors) == 0

    def test_wrong_system_rejected(self):
        summary = SystemSummary("MLS-V3")
        with pytest.raises(ValueError):
            summary.add(make_record(name="MLS-V1"))

    def test_metrics_deterministic(self):
        summary = SystemSummary("MLS-V1")
        for index in range(8):
            summary.add(make_record(f"s{index}", landing_error=0.1 * index))
        first = summary.metrics(seed=5)
        second = summary.metrics(seed=5)
        assert first == second

    def test_merge(self):
        left, right = SystemSummary("MLS-V1"), SystemSummary("MLS-V1")
        left.add(make_record("s0"))
        right.add(make_record("s1", outcome=RunOutcome.COLLISION))
        left.merge(right)
        assert left.runs == 2
        assert left.outcome_counts[RunOutcome.COLLISION] == 1


class TestMetricSamples:
    def test_ignores_non_finite(self):
        samples = MetricSamples("m")
        samples.extend([1.0, float("nan"), float("inf"), 2.0])
        assert samples.values == [1.0, 2.0]


class TestFilterAndFactors:
    def test_filter_predicate(self):
        # A factor with no label for a record filters it out of every slice.
        contexts = [
            RecordContext(record=make_record("s0", outcome=RunOutcome.SUCCESS)),
            RecordContext(record=make_record("s1", outcome=RunOutcome.COLLISION)),
        ]
        slices = slice_contexts(
            contexts, lambda context: ("kept",) if context.record.succeeded else ()
        )
        assert list(slices) == ["kept"]
        assert slices["kept"]["MLS-V1"].runs == 1

    def test_subset_is_filter_wrapper(self):
        contexts = [
            RecordContext(record=make_record("s0", adverse=True)),
            RecordContext(record=make_record("s1", adverse=False)),
        ]
        named = slice_contexts(contexts, "weather")
        predicate = slice_contexts(
            contexts,
            lambda context: ("adverse",) if context.record.adverse_weather else (),
        )
        assert named["adverse"]["MLS-V1"].runs == predicate["adverse"]["MLS-V1"].runs == 1

    def test_record_factors(self):
        record = make_record(adverse=True)
        assert RECORD_FACTORS["system"](record) == ("MLS-V1",)
        assert RECORD_FACTORS["weather"](record) == ("adverse",)
        assert RECORD_FACTORS["outcome"](record) == ("success",)


class TestSlicing:
    def test_bands(self):
        assert wind_band(0.0).startswith("calm")
        assert wind_band(5.0).startswith("moderate")
        assert wind_band(9.0).startswith("strong")
        assert lighting_band(1.0).startswith("day")
        assert lighting_band(0.3).startswith("night")
        assert obstacle_band(2.0).startswith("dense")

    def test_scenario_join_and_stress_axis_slices(self):
        suite = generate_suite("stress", count=6, seed=11)
        index = ScenarioIndex.from_sources([suite])
        contexts = [
            RecordContext(record=make_record(scenario.scenario_id))
            for scenario in suite
        ]
        slices = slice_contexts(contexts, "stress-axis", index)
        assert slices  # the stress preset engages at least one axis
        assert UNJOINED not in slices
        total = sum(s.runs for systems in slices.values() for s in systems.values())
        assert total >= len(suite)  # multi-label: records fan out to axes

    def test_fingerprint_mismatch_unjoins(self):
        suite = generate_suite("smoke", count=2, seed=1)
        index = ScenarioIndex.from_sources([suite])
        record = make_record(suite.scenarios[0].scenario_id)
        record.scenario_fingerprint = "deadbeefdeadbeef"
        slices = slice_contexts([RecordContext(record=record)], "wind-band", index)
        assert list(slices) == [UNJOINED]
        assert index.mismatches == 1

    def test_record_level_factor_needs_no_join(self):
        contexts = [RecordContext(record=make_record("s0", adverse=True))]
        slices = slice_contexts(contexts, "weather")
        assert list(slices) == ["adverse"]

    def test_platform_factor_uses_context(self):
        contexts = [
            RecordContext(record=make_record("s0"), platform="jetson-nano"),
            RecordContext(record=make_record("s1")),
        ]
        slices = slice_contexts(contexts, "platform")
        assert set(slices) == {"jetson-nano", "(unknown)"}


class TestCompare:
    def _summaries(self, successes, total, name="MLS-V1", landing_error=0.3):
        summary = SystemSummary(name)
        for index in range(total):
            outcome = RunOutcome.SUCCESS if index < successes else RunOutcome.COLLISION
            summary.add(
                make_record(f"s{index:03d}", name=name, outcome=outcome,
                            landing_error=landing_error)
            )
        return {name: summary}

    def test_injected_regression_is_flagged(self):
        comparison = compare_summaries(
            self._summaries(80, 100), self._summaries(55, 100), seed=0
        )
        regressed = {(d.system, d.metric) for d in comparison.regressions}
        assert ("MLS-V1", "success") in regressed
        assert ("MLS-V1", "collision") in regressed
        assert comparison.has_regression

    def test_improvement_is_not_a_regression(self):
        comparison = compare_summaries(
            self._summaries(55, 100), self._summaries(80, 100), seed=0
        )
        assert not comparison.has_regression
        success = next(d for d in comparison.rates if d.metric == "success")
        assert success.significant and not success.regression
        assert success.verdict == "improvement"

    def test_identical_campaigns_pass(self):
        comparison = compare_summaries(
            self._summaries(60, 100), self._summaries(60, 100), seed=0
        )
        assert not comparison.has_regression

    def test_small_noise_is_not_significant(self):
        comparison = compare_summaries(
            self._summaries(60, 100), self._summaries(58, 100), seed=0
        )
        assert not comparison.has_regression

    def test_landing_error_regression(self):
        comparison = compare_summaries(
            self._summaries(50, 50, landing_error=0.2),
            self._summaries(50, 50, landing_error=0.6),
            seed=0,
        )
        regressed = {(d.system, d.metric) for d in comparison.regressions}
        assert ("MLS-V1", "landing-error-m") in regressed

    def test_disjoint_systems_reported_not_compared(self):
        comparison = compare_summaries(
            self._summaries(10, 20, name="MLS-V1"),
            self._summaries(10, 20, name="MLS-V2"),
        )
        assert comparison.baseline_only == ("MLS-V1",)
        assert comparison.current_only == ("MLS-V2",)
        assert not comparison.rates

    def test_compare_to_paper(self):
        deltas = compare_to_paper(self._summaries(80, 100))
        metrics = {delta.metric for delta in deltas}
        assert metrics == {"success", "collision", "poor-landing"}
        success = next(d for d in deltas if d.metric == "success")
        assert success.paper_rate == pytest.approx(0.2467)
        assert not success.paper_in_interval  # 80% CI excludes 24.67%


class TestRateEstimate:
    def test_contains(self):
        estimate = RateEstimate.from_counts(50, 100)
        assert estimate.contains(0.5)
        assert not estimate.contains(0.9)
