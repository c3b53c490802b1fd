"""Tests for the Jetson platform model and real-world effects."""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.bench.campaign as campaign_module
from repro.bench.campaign import PLATFORM_FACTORIES, Campaign, _execute_job
from repro.core.config import mls_v1
from repro.core.landing_system import ModuleTimings
from repro.core.metrics import ResourceStats
from repro.core.mission import MissionConfig, MissionRunner
from repro.core.platform import DesktopPlatform
from repro.geometry import Pose, Vec3
from repro.hil.jetson import JetsonNanoPlatform, JetsonNanoSpec
from repro.realworld.field_test import (
    MAX_TARGET_DISTANCE,
    MINIMUM_GPS_DEGRADATION,
    MINIMUM_GUST_INTENSITY,
    MINIMUM_WIND_SPEED,
    FieldPlatform,
    field_suite,
)
from repro.realworld.gps_drift import characterise_gps_drift
from repro.realworld.hardware import CUAV_X7_PRO, PIXHAWK_2_4_8
from repro.realworld.sensor_faults import characterise_point_cloud_faults
from repro.sensors.imu import ImuQuality
from repro.world.map_generator import MapStyle
from repro.world.obstacles import building
from repro.world.scenario import Scenario
from repro.world.scenario_suite import ScenarioSuite
from repro.world.weather import Weather, WeatherCondition


def timings(detection=0.03, mapping=0.028, planning=0.12):
    return ModuleTimings(detection=detection, mapping=mapping, planning=planning)


class TestDesktopPlatform:
    def test_never_misses_deadlines(self):
        platform = DesktopPlatform()
        for _ in range(50):
            budget = platform.schedule_tick(timings(), 0.2)
            assert budget.allow_replan and not budget.deadline_missed


class TestJetsonPlatform:
    def test_heavy_load_misses_deadlines(self):
        platform = JetsonNanoPlatform(seed=1)
        misses = 0
        for _ in range(100):
            budget = platform.schedule_tick(timings(), 0.2)
            misses += budget.deadline_missed
        assert misses > 0

    def test_light_load_keeps_up(self):
        platform = JetsonNanoPlatform(seed=2)
        misses = 0
        for _ in range(100):
            budget = platform.schedule_tick(timings(detection=0.012, mapping=0.0, planning=0.001), 0.2)
            misses += budget.deadline_missed
        assert misses < 10

    def test_real_world_spec_uses_more_resources(self):
        hil = JetsonNanoPlatform(spec=JetsonNanoSpec(), seed=4)
        field = JetsonNanoPlatform(spec=JetsonNanoSpec.real_world(), seed=4)
        hil_budget = [hil.schedule_tick(timings(), 0.2) for _ in range(50)]
        field_budget = [field.schedule_tick(timings(), 0.2) for _ in range(50)]
        assert np.mean([b.cpu_utilisation for b in field_budget]) > np.mean(
            [b.cpu_utilisation for b in hil_budget]
        )
        assert field_budget[0].memory_mb > hil_budget[0].memory_mb

    def test_monitor_records_samples(self):
        # The run's record keeps one utilisation sample per budget the
        # platform returned, in tick order.
        budgets = []

        class Recording(JetsonNanoPlatform):
            def schedule_tick(self, timings, tick_period):
                budgets.append(super().schedule_tick(timings, tick_period))
                return budgets[-1]

        resources = hil_run(Recording(seed=5), max_mission_time=10.0).resources
        assert len(budgets) > 10
        assert resources.cpu_utilisation_samples == [b.cpu_utilisation for b in budgets]
        assert resources.memory_mb_samples == [b.memory_mb for b in budgets]
        assert resources.gpu_utilisation_samples == [b.gpu_utilisation for b in budgets]
        assert resources.deadline_misses == sum(b.deadline_missed for b in budgets)
        assert 0.0 < resources.mean_cpu <= 1.0


def hil_run(platform, max_mission_time):
    """One short MLS-V1 mission on ``platform``."""
    return MissionRunner(
        field_scenario(), mls_v1(), platform=platform,
        mission_config=MissionConfig(max_mission_time=max_mission_time),
    ).run()


class TestResourceMonitor:
    def test_statistics(self):
        # Heavy HIL ticks: the figures Table III reads stay within the Nano.
        platform = JetsonNanoPlatform(seed=6)
        budgets = [platform.schedule_tick(timings(), 0.2) for _ in range(50)]
        stats = ResourceStats(
            cpu_utilisation_samples=[b.cpu_utilisation for b in budgets],
            memory_mb_samples=[b.memory_mb for b in budgets],
            gpu_utilisation_samples=[b.gpu_utilisation for b in budgets],
        )
        assert 0.0 < stats.mean_cpu <= stats.peak_cpu <= 1.0
        assert stats.peak_memory_mb <= JetsonNanoSpec().usable_memory_mb
        assert stats.mean_gpu == pytest.approx(0.022 / 0.2)

    def test_empty_monitor_is_safe(self):
        # A run that ends before its first decision tick records no samples.
        resources = hil_run(JetsonNanoPlatform(seed=5), max_mission_time=0.0).resources
        assert resources.cpu_utilisation_samples == []
        assert resources.mean_cpu == 0.0 and resources.peak_memory_mb == 0.0


class TestHardwareProfiles:
    def test_cuav_is_quieter_than_pixhawk(self):
        pixhawk = PIXHAWK_2_4_8.effective_imu_quality
        cuav = CUAV_X7_PRO.effective_imu_quality
        assert cuav.accel_noise_std < pixhawk.accel_noise_std
        assert cuav.accel_bias_instability < pixhawk.accel_bias_instability


class TestGpsDriftCharacterisation:
    def test_drift_larger_in_storm(self):
        calm = characterise_gps_drift(Weather.clear(), duration=60, seed=1)
        storm = characterise_gps_drift(Weather.preset(WeatherCondition.STORM, 1.0), duration=60, seed=1)
        assert storm.mean_error > calm.mean_error
        assert storm.max_error > 1.0

    def test_dop_stays_in_band_while_drifting(self):
        storm = characterise_gps_drift(Weather.preset(WeatherCondition.STORM, 1.0), duration=60, seed=2)
        assert storm.all_dop_in_band
        assert storm.mean_hdop <= 8.0

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            characterise_gps_drift(Weather.clear(), duration=0)


class TestPointCloudFaults:
    def make_world(self, weather):
        from repro.geometry import AABB
        from repro.world.world import World

        return World(
            name="faults",
            bounds=AABB(Vec3(-40, -40, 0), Vec3(40, 40, 30)),
            obstacles=[building(6, 0, 4, 4, 8)],
            weather=weather,
        )

    def test_estimation_error_displaces_points(self):
        world = self.make_world(Weather.clear())
        clean = characterise_point_cloud_faults(world, Pose.at(Vec3(0, 0, 5)), Vec3.zero(), captures=3)
        drifted = characterise_point_cloud_faults(world, Pose.at(Vec3(0, 0, 5)), Vec3(2.0, 0, 0), captures=3)
        assert drifted.displaced_fraction > clean.displaced_fraction
        assert drifted.mean_displacement > clean.mean_displacement

    def test_invalid_captures_rejected(self):
        world = self.make_world(Weather.clear())
        with pytest.raises(ValueError):
            characterise_point_cloud_faults(world, Pose.at(Vec3(0, 0, 5)), Vec3.zero(), captures=0)


def field_scenario():
    return Scenario.generate("field", MapStyle.RURAL, 2, adverse_weather=False, seed=21)


class TestFieldTestPreparation:
    def test_simplification_shrinks_distance(self):
        scenario = field_scenario()
        assert scenario.marker_position.horizontal_norm() > MAX_TARGET_DISTANCE
        (simplified,) = field_suite(ScenarioSuite(scenarios=[scenario]))
        assert simplified.marker_position.horizontal_norm() <= MAX_TARGET_DISTANCE + 1e-6
        # The GPS error offset is preserved.
        original_offset = scenario.gps_target - scenario.marker_position
        new_offset = simplified.gps_target - simplified.marker_position
        assert (new_offset - original_offset).norm() <= 1e-6

    def test_field_weather_always_has_wind_and_gps_degradation(self):
        (simplified,) = field_suite(ScenarioSuite(scenarios=[field_scenario()]))
        assert simplified.weather.gps_degradation >= MINIMUM_GPS_DEGRADATION
        assert simplified.weather.wind_speed >= MINIMUM_WIND_SPEED
        assert simplified.weather.gust_intensity >= MINIMUM_GUST_INTENSITY
        assert simplified.decoy_count <= 1

    def test_field_suite_keeps_ids_seeds_and_repetitions(self):
        suite = ScenarioSuite(scenarios=[field_scenario()], repetitions=2, name="rq3")
        simplified = field_suite(suite)
        assert (simplified.name, simplified.repetitions) == ("rq3", 2)
        assert [(s.scenario_id, s.seed) for s in simplified] == [
            (s.scenario_id, s.seed) for s in suite
        ]
        assert simplified.scenarios[0].build_world().target_marker is not None


class TestFieldPlatform:
    def test_bound_map_memory_is_charged_within_budget(self):
        field = FieldPlatform(seed=3)
        field.bind(SimpleNamespace(map_memory_bytes=lambda: 4_000_000))
        unbound = JetsonNanoPlatform(spec=JetsonNanoSpec.real_world(), seed=3)
        memory = field.schedule_tick(timings(), 0.2).memory_mb
        assert memory > unbound.schedule_tick(timings(), 0.2).memory_mb
        assert memory <= JetsonNanoSpec.real_world().usable_memory_mb

    def test_runner_flies_the_flight_controller_imu(self):
        scenario = field_scenario()
        field = MissionRunner(scenario, mls_v1(), platform=FieldPlatform(scenario.seed))
        assert field.autopilot.imu.quality == CUAV_X7_PRO.effective_imu_quality
        pixhawk = FieldPlatform(scenario.seed, flight_controller=PIXHAWK_2_4_8)
        assert MissionRunner(scenario, mls_v1(), platform=pixhawk).autopilot.imu.quality == (
            PIXHAWK_2_4_8.effective_imu_quality
        )
        desktop = MissionRunner(scenario, mls_v1())
        assert desktop.autopilot.imu.quality == ImuQuality.consumer_grade()

    def test_runner_binds_its_landing_system(self):
        bound = []

        class RecordingField(FieldPlatform):
            def bind(self, system):
                bound.append(system)
                super().bind(system)

        scenario = field_scenario()
        runner = MissionRunner(scenario, mls_v1(), platform=RecordingField(scenario.seed))
        assert bound == [runner.system]

    def test_factory_jitter_follows_the_scenario_seed(self):
        def jitter(seed):
            platform = PLATFORM_FACTORIES["field"](seed)
            return [platform.schedule_tick(timings(), 0.2).cpu_utilisation for _ in range(5)]

        assert jitter(11) == jitter(11)
        assert jitter(11) != jitter(12)

    def test_campaign_jobs_seed_the_platform_per_scenario(self, monkeypatch):
        built = []

        class Built(Exception):
            pass

        def capture(scenario, system_config, *, platform, **kwargs):
            built.append(platform)
            raise Built

        monkeypatch.setattr(campaign_module, "MissionRunner", capture)
        jobs = Campaign(mls_v1()).platform("field").scenarios(2).repetitions(1).jobs()
        assert len({job.scenario.seed for job in jobs}) == 2
        for job in jobs:
            with pytest.raises(Built):
                _execute_job(job)
        draws = [platform.schedule_tick(timings(), 0.2).cpu_utilisation for platform in built]
        expected = [
            FieldPlatform(job.scenario.seed).schedule_tick(timings(), 0.2).cpu_utilisation
            for job in jobs
        ]
        assert draws == expected
        assert draws[0] != draws[1]
