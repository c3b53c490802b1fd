"""Tests for dynamics, wind, EKF, controller and the autopilot."""

import math

import pytest

from repro.geometry import AABB, Quaternion, Vec3
from repro.sensors.gps import GpsFix
from repro.vehicle.autopilot import Autopilot, AutopilotConfig, FlightMode
from repro.vehicle.controller import PositionController
from repro.vehicle.dynamics import QuadrotorDynamics, QuadrotorLimits
from repro.vehicle.ekf import PositionEkf
from repro.vehicle.wind import WindModel
from repro.world.weather import Weather, WeatherCondition
from repro.world.world import World


def empty_world(weather=None):
    return World(
        name="flight-test",
        bounds=AABB(Vec3(-100, -100, 0), Vec3(100, 100, 60)),
        weather=weather or Weather.clear(),
    )


class TestDynamics:
    def test_tracks_commanded_velocity(self):
        dynamics = QuadrotorDynamics()
        dynamics.command_velocity_xyz(2, 0, 0)
        for _ in range(100):
            dynamics.step(0.02)
        assert dynamics.state.velocity.x == pytest.approx(2.0, abs=0.3)

    def test_velocity_commands_are_clamped(self):
        limits = QuadrotorLimits(max_horizontal_speed=3.0)
        dynamics = QuadrotorDynamics(limits)
        dynamics.command_velocity_xyz(50, 0, 0)
        vx, vy, _ = dynamics._commanded_velocity
        assert math.hypot(vx, vy) <= 3.0 + 1e-9

    def test_does_not_sink_below_ground(self):
        dynamics = QuadrotorDynamics()
        dynamics.command_velocity_xyz(0, 0, -5)
        for _ in range(200):
            dynamics.step(0.02)
        assert dynamics.state.position.z >= 0.0

    def test_wind_pushes_vehicle(self):
        dynamics = QuadrotorDynamics()
        dynamics.command_velocity_xyz(0, 0, 0)
        for _ in range(250):
            dynamics.step(0.02, wind=Vec3(5, 0, 0))
        assert dynamics.state.position.x > 0.5

    def test_teleport_resets_state(self):
        dynamics = QuadrotorDynamics()
        dynamics.command_velocity_xyz(2, 2, 1)
        for _ in range(50):
            dynamics.step(0.02)
        dynamics.teleport(Vec3(5, 5, 0), yaw=1.0)
        assert dynamics.state.position == Vec3(5, 5, 0)
        assert dynamics.state.velocity == Vec3.zero()

    def test_invalid_dt_rejected(self):
        with pytest.raises(ValueError):
            QuadrotorDynamics().step(0.0)


class TestWind:
    def test_calm_weather_is_calm(self):
        wind = WindModel(Weather.clear(), seed=1)
        assert wind.is_calm
        assert wind.step(0.1).norm() < 1.0

    def test_storm_produces_wind_near_mean_speed(self):
        weather = Weather.preset(WeatherCondition.WIND, 1.0)
        wind = WindModel(weather, seed=1)
        speeds = [wind.step(0.1).norm() for _ in range(300)]
        assert sum(speeds) / len(speeds) == pytest.approx(weather.wind_speed, rel=0.5)

    def test_invalid_dt_rejected(self):
        with pytest.raises(ValueError):
            WindModel(Weather.clear()).step(0.0)


class TestEkf:
    def test_converges_to_gps_position(self):
        ekf = PositionEkf()
        ekf.reset_to(Vec3.zero())
        target = Vec3(5, -3, 10)
        for t in range(50):
            ekf.predict(Vec3.zero(), 0.1)
            ekf.update_gps(GpsFix(position=target, hdop=1.5, vdop=2.0, timestamp=float(t)))
        assert ekf.estimate().position.distance_to(target) < 0.5

    def test_tracks_slow_gps_drift(self):
        # The filter follows a self-consistent slow drift rather than rejecting
        # it — the mechanism behind the paper's corrupted maps (Fig. 5c/5d).
        ekf = PositionEkf()
        ekf.reset_to(Vec3.zero())
        for t in range(200):
            drifted = Vec3(t * 0.01, 0, 10)
            ekf.predict(Vec3.zero(), 0.1)
            ekf.update_gps(GpsFix(position=drifted, hdop=2.0, vdop=2.5, timestamp=float(t)))
        assert ekf.estimate().position.x == pytest.approx(2.0, abs=0.5)

    def test_altitude_update_only_affects_z(self):
        ekf = PositionEkf()
        ekf.reset_to(Vec3(1, 2, 3))
        ekf.update_altitude(8.0)
        estimate = ekf.estimate()
        assert estimate.position.x == pytest.approx(1.0)
        assert estimate.position.z > 3.0

    def test_invalid_dt_rejected(self):
        with pytest.raises(ValueError):
            PositionEkf().predict(Vec3.zero(), 0.0)


class TestController:
    def test_command_points_towards_target(self):
        controller = PositionController()
        command = Vec3(*controller.velocity_command_xyz(0, 0, 0, Vec3(10, 0, 0)))
        assert command.x > 0 and abs(command.y) < 1e-6

    def test_speed_limit_respected(self):
        controller = PositionController()
        command = Vec3(*controller.velocity_command_xyz(0, 0, 0, Vec3(100, 0, 0), speed_limit=1.0))
        assert command.horizontal_norm() <= 1.0 + 1e-9

    def test_descent_rate_limited(self):
        controller = PositionController()
        command = Vec3(*controller.velocity_command_xyz(0, 0, 50, Vec3(0, 0, 0)))
        assert command.z >= -controller.gains.max_descent_speed - 1e-9

    def test_slows_down_near_target(self):
        controller = PositionController()
        far = Vec3(*controller.velocity_command_xyz(0, 0, 0, Vec3(20, 0, 0)))
        near = Vec3(*controller.velocity_command_xyz(19.5, 0, 0, Vec3(20, 0, 0)))
        assert near.norm() < far.norm()


class TestAutopilot:
    def test_takeoff_reaches_altitude_and_switches_to_offboard(self):
        autopilot = Autopilot(empty_world(), AutopilotConfig(takeoff_altitude=10.0), seed=1)
        autopilot.arm_and_takeoff()
        for _ in range(800):
            autopilot.step(0.02)
        assert autopilot.mode is FlightMode.OFFBOARD
        assert autopilot.true_state.altitude == pytest.approx(10.0, abs=1.0)

    def test_offboard_setpoint_tracking(self):
        autopilot = Autopilot(empty_world(), AutopilotConfig(takeoff_altitude=10.0), seed=2)
        autopilot.arm_and_takeoff()
        for _ in range(600):
            autopilot.step(0.02)
        autopilot.set_position_setpoint(Vec3(15, -10, 10))
        for _ in range(1500):
            autopilot.step(0.02)
        assert autopilot.true_state.position.horizontal_distance_to(Vec3(15, -10, 0)) < 1.5

    def test_land_mode_reaches_ground(self):
        autopilot = Autopilot(empty_world(), AutopilotConfig(takeoff_altitude=6.0), seed=3)
        autopilot.arm_and_takeoff()
        for _ in range(500):
            autopilot.step(0.02)
        autopilot.command_land()
        for _ in range(1500):
            autopilot.step(0.02)
            if autopilot.is_landed:
                break
        assert autopilot.is_landed
        assert autopilot.true_state.altitude < 0.3

    def test_estimation_error_stays_bounded_in_clear_weather(self):
        autopilot = Autopilot(empty_world(), seed=4)
        autopilot.arm_and_takeoff()
        for _ in range(1000):
            autopilot.step(0.02)
        error = autopilot.estimated_state.position.distance_to(autopilot.true_state.position)
        assert error < 2.5

    def test_return_mode_heads_home(self):
        autopilot = Autopilot(empty_world(), AutopilotConfig(takeoff_altitude=8.0), seed=5)
        autopilot.arm_and_takeoff()
        for _ in range(600):
            autopilot.step(0.02)
        autopilot.set_position_setpoint(Vec3(20, 0, 8))
        for _ in range(1200):
            autopilot.step(0.02)
        autopilot.command_return()
        for _ in range(400):
            autopilot.step(0.02)
        assert autopilot.mode in (FlightMode.RETURN, FlightMode.LAND, FlightMode.LANDED)
