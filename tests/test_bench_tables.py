"""Tests for the bench table rendering and campaign plumbing."""

import importlib.util
from pathlib import Path

import pytest

from repro.bench import paper_values
from repro.bench.campaign import DEFAULT_REPETITIONS, DEFAULT_SCENARIOS, Campaign
from repro.bench.tables import (
    format_markdown_table,
    format_table,
    render_detection_table,
    render_landing_accuracy,
    render_landing_table,
    render_resource_summary,
)
from repro.core.metrics import CampaignResult, DetectionStats, ResourceStats, RunOutcome, RunRecord


def make_campaign(name="MLS-V3", outcomes=(RunOutcome.SUCCESS, RunOutcome.COLLISION)):
    campaign = CampaignResult(system_name=name)
    for index, outcome in enumerate(outcomes):
        detection = DetectionStats(frames_with_visible_marker=10, frames_detected=9)
        resources = ResourceStats(
            cpu_utilisation_samples=[0.8], memory_mb_samples=[2200.0], gpu_utilisation_samples=[0.3]
        )
        campaign.add(
            RunRecord(
                scenario_id=f"s{index}",
                system_name=name,
                outcome=outcome,
                landing_error=0.3,
                landed=outcome is RunOutcome.SUCCESS,
                detection=detection,
                resources=resources,
            )
        )
    return campaign


class TestPaperValues:
    def test_table1_rates_sum_to_100(self):
        for row in paper_values.TABLE_1_SIL.values():
            assert row["success"] + row["collision"] + row["poor_landing"] == pytest.approx(100.0, abs=0.1)

    def test_shape_claims_present(self):
        assert len(paper_values.SHAPE_CLAIMS) >= 5


class TestTableRendering:
    def test_format_table_aligns_columns(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_render_landing_table_contains_rates_and_paper_reference(self):
        text = render_landing_table({"MLS-V3": make_campaign()})
        assert "MLS-V3" in text
        assert "50.00%" in text
        assert "84.00%" in text  # paper reference value

    def test_render_detection_table(self):
        text = render_detection_table({"MLS-V1": make_campaign("MLS-V1"), "MLS-V3": make_campaign()})
        assert "OpenCV" in text and "TPH-YOLO" in text
        assert "10.00" in text  # 1/10 missed

    def test_render_resource_summary(self):
        text = render_resource_summary(make_campaign())
        assert "2.20 GB" in text
        assert "Mean CPU utilisation" in text

    def test_render_landing_accuracy(self):
        text = render_landing_accuracy(make_campaign(), make_campaign())
        assert "SIL / HIL" in text and "Real world" in text


class TestTableEdgeCases:
    def test_empty_campaign_renders_zero_rates(self):
        empty = CampaignResult(system_name="MLS-V3")
        text = render_landing_table({"MLS-V3": empty})
        assert "0.00%" in text
        assert " 0" in text  # zero runs column

    def test_empty_campaign_detection_and_resources(self):
        empty = CampaignResult(system_name="MLS-V3")
        detection = render_detection_table({"MLS-V3": empty})
        assert "0.00" in detection  # FN rate over zero frames is 0
        resources = render_resource_summary(empty)
        assert "0.00 GB" in resources

    def test_system_missing_from_paper_tables(self):
        hybrid = make_campaign(name="V1.5-hybrid")
        text = render_landing_table({"V1.5-hybrid": hybrid})
        assert "V1.5-hybrid" in text
        # No paper row for a custom composition: the reference column is "-".
        row = next(line for line in text.splitlines() if "V1.5-hybrid" in line)
        assert "| - " in row or row.rstrip().endswith("| 2")
        detection = render_detection_table({"V1.5-hybrid": hybrid})
        assert "nan" in detection  # paper FN reference is NaN

    def test_nan_landing_error_renders(self):
        campaign = CampaignResult(system_name="MLS-V3")
        campaign.add(
            RunRecord(
                scenario_id="s0",
                system_name="MLS-V3",
                outcome=RunOutcome.COLLISION,
                landing_error=float("nan"),
            )
        )
        text = render_landing_accuracy(campaign, None)
        assert "nan m" in text  # no crash, NaN shown explicitly

    def test_markdown_table_shape_and_escaping(self):
        text = format_markdown_table(["a", "b"], [["1", "x|y"], ["22", "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("| a")
        assert set(lines[1]) <= {"|", "-", " "}  # the separator row
        assert "x\\|y" in text
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_markdown_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_markdown_table(["a", "b"], [["only-one"]])

    def test_markdown_table_empty_rows(self):
        text = format_markdown_table(["a", "b"], [])
        assert text.splitlines()[0] == "| a | b |"


def bench_conftest():
    """``benchmarks/conftest.py``, the one reader of the ``REPRO_BENCH_*`` knobs."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCampaignConfig:
    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCENARIOS", "42")
        monkeypatch.setenv("REPRO_BENCH_REPETITIONS", "2")
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
        knobs = bench_conftest()
        assert knobs.bench_scenario_count() == 42
        assert knobs.bench_repetitions() == 2
        assert knobs.bench_workers() == 3

    def test_defaults_are_reasonable(self, monkeypatch):
        for name in ("REPRO_BENCH_SCENARIOS", "REPRO_BENCH_REPETITIONS", "REPRO_BENCH_WORKERS"):
            monkeypatch.delenv(name, raising=False)
        knobs = bench_conftest()
        assert (knobs.bench_scenario_count(), knobs.bench_repetitions()) == (
            DEFAULT_SCENARIOS, DEFAULT_REPETITIONS
        ) == (6, 1)
        assert knobs.bench_workers() == 1

    def test_environment_does_not_size_a_campaign(self, monkeypatch):
        # The benchmark fixtures size their campaigns explicitly; a
        # Campaign itself never reads the environment.
        monkeypatch.setenv("REPRO_BENCH_SCENARIOS", "2")
        monkeypatch.setenv("REPRO_BENCH_REPETITIONS", "3")
        jobs = Campaign("mls-v1").jobs()
        assert len({job.scenario.scenario_id for job in jobs}) == DEFAULT_SCENARIOS
        assert {job.repetition for job in jobs} == {0}
