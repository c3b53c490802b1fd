"""Tests for the depth camera, GPS, IMU, rangefinder and barometer."""

import numpy as np
import pytest

from repro.geometry import AABB, Pose, Vec3
from repro.sensors.barometer import Barometer
from repro.sensors.depth import DepthCamera, DepthCameraSpec, PointCloud
from repro.sensors.gps import GpsSensor
from repro.sensors.imu import ImuQuality, ImuSensor
from repro.sensors.rangefinder import Rangefinder
from repro.world.obstacles import building, tree
from repro.world.weather import Weather, WeatherCondition
from repro.world.world import World


def make_world(obstacles=None, weather=None):
    return World(
        name="depth-test",
        bounds=AABB(Vec3(-60, -60, 0), Vec3(60, 60, 40)),
        obstacles=obstacles or [building(8, 0, 4, 4, 10, name="block")],
        weather=weather or Weather.clear(),
    )


class TestDepthCamera:
    def test_forward_camera_sees_building(self):
        camera = DepthCamera(facing="forward", depth_noise_std=0.0)
        cloud = camera.capture(make_world(), Pose.at(Vec3(0, 0, 5)))
        assert len(cloud) > 0
        near_building = [p for p in cloud if abs(p.x - 6.0) < 1.0]
        assert near_building

    def test_downward_camera_sees_ground(self):
        camera = DepthCamera(facing="down", depth_noise_std=0.0)
        cloud = camera.capture(make_world(obstacles=[]), Pose.at(Vec3(0, 0, 8)))
        assert len(cloud) > 0
        assert all(abs(p.z) < 0.5 for p in cloud)

    def test_estimation_error_shifts_cloud(self):
        camera = DepthCamera(facing="down", depth_noise_std=0.0)
        true_pose = Pose.at(Vec3(0, 0, 8))
        shifted = Pose.at(Vec3(3, 0, 8))
        cloud = camera.capture(make_world(obstacles=[]), true_pose, estimated_pose=shifted)
        mean_x = float(np.mean([p.x for p in cloud]))
        assert mean_x == pytest.approx(3.0, abs=0.5)

    def test_rain_causes_dropouts(self):
        clear_camera = DepthCamera(facing="down", seed=5)
        rain_camera = DepthCamera(facing="down", seed=5)
        storm = Weather.preset(WeatherCondition.STORM, 1.0)
        clear_cloud = clear_camera.capture(make_world(obstacles=[]), Pose.at(Vec3(0, 0, 8)))
        rain_cloud = rain_camera.capture(make_world(obstacles=[], weather=storm), Pose.at(Vec3(0, 0, 8)))
        assert len(rain_cloud) < len(clear_cloud)

    def test_canopy_invisible_from_afar(self):
        obstacles = tree(10, 0, canopy_radius=3, height=9, canopy_visibility_range=4.0)
        world = make_world(obstacles=obstacles)
        camera = DepthCamera(facing="forward", depth_noise_std=0.0)
        far_cloud = camera.capture(world, Pose.at(Vec3(-10, 0, 6)))
        near_cloud = camera.capture(world, Pose.at(Vec3(5, 0, 6)))
        canopy_hits = lambda cloud: [p for p in cloud if p.z > 4.0 and 6 < p.x < 14]
        assert not canopy_hits(far_cloud)
        assert canopy_hits(near_cloud)

    def test_invalid_facing_rejected(self):
        with pytest.raises(ValueError):
            DepthCamera(facing="sideways")

    def test_merged_clouds_concatenate(self):
        a = PointCloud(points=[Vec3(1, 1, 1)], timestamp=1.0)
        b = PointCloud(points=[Vec3(2, 2, 2)], timestamp=2.0)
        merged = a.merged_with(b)
        assert len(merged) == 2 and merged.timestamp == 2.0


class TestGps:
    def test_clear_weather_fix_is_close(self):
        gps = GpsSensor(seed=1)
        fix = gps.measure(Vec3(10, 20, 30), Weather.clear(), 1.0)
        assert fix.position.distance_to(Vec3(10, 20, 30)) < 3.0
        assert fix.hdop <= 8.0 and fix.vdop <= 8.0 and fix.num_satellites >= 6

    def test_drift_grows_with_degradation(self):
        calm_gps = GpsSensor(seed=2)
        storm_gps = GpsSensor(seed=2)
        storm = Weather.preset(WeatherCondition.STORM, 1.0)
        for t in range(300):
            calm_gps.measure(Vec3.zero(), Weather.clear(), float(t))
            storm_gps.measure(Vec3.zero(), storm, float(t))
        assert storm_gps.current_drift.norm() > calm_gps.current_drift.norm()

    def test_dop_stays_in_paper_band(self):
        gps = GpsSensor(seed=3)
        storm = Weather.preset(WeatherCondition.STORM, 1.0)
        for t in range(100):
            fix = gps.measure(Vec3.zero(), storm, float(t))
            assert fix.hdop <= 8.0 and fix.vdop <= 8.0


class TestImuRangefinderBarometer:
    def test_industrial_grade_is_quieter(self):
        consumer = ImuSensor(ImuQuality.consumer_grade(), seed=1)
        industrial = ImuSensor(ImuQuality.industrial_grade(), seed=1)
        consumer_errors, industrial_errors = [], []
        for t in range(200):
            truth = Vec3(0, 0, 0)
            consumer_errors.append(consumer.measure(truth).norm())
            industrial_errors.append(industrial.measure(truth).norm())
        assert np.mean(industrial_errors) < np.mean(consumer_errors)

    def test_rangefinder_reads_altitude_over_ground(self):
        world = make_world(obstacles=[])
        reading = Rangefinder(noise_std=0.0).measure(world, Pose.at(Vec3(0, 0, 7.5)))
        assert reading == pytest.approx(7.5, abs=1e-6)

    def test_rangefinder_reads_rooftop(self):
        world = make_world()
        reading = Rangefinder(noise_std=0.0).measure(world, Pose.at(Vec3(8, 0, 15)))
        assert reading == pytest.approx(5.0, abs=1e-6)

    def test_rangefinder_out_of_range(self):
        world = make_world(obstacles=[])
        assert Rangefinder(max_range=5.0).measure(world, Pose.at(Vec3(0, 0, 30))) is None

    def test_barometer_tracks_altitude(self):
        baro = Barometer(noise_std=0.0, drift_rate=0.0)
        assert baro.measure(12.0) == pytest.approx(12.0)

    def test_barometer_drift_is_bounded_short_term(self):
        baro = Barometer(seed=2)
        readings = [baro.measure(10.0) for _ in range(500)]
        assert abs(np.mean(readings) - 10.0) < 1.0
