"""The flight stack: dynamics + sensing + estimation + control + flight modes.

:class:`Autopilot` is the single object the landing system interacts with,
playing the role PX4 plays on the real platform.  It owns the simulated
sensors and the EKF, exposes the current state estimate, accepts position
setpoints in OFFBOARD mode, and implements TAKEOFF, LAND and RETURN (failsafe)
behaviours internally.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.geometry import Pose, Vec3
from repro.sensors.barometer import Barometer
from repro.sensors.gps import GpsSensor
from repro.sensors.imu import ImuSensor, ImuQuality
from repro.sensors.rangefinder import Rangefinder
from repro.vehicle.controller import PositionController
from repro.vehicle.dynamics import QuadrotorDynamics, QuadrotorLimits
from repro.vehicle.ekf import PositionEkf
from repro.vehicle.state import EstimatedState, VehicleState
from repro.vehicle.wind import WindModel
from repro.world.world import World


class FlightMode(enum.Enum):
    """Flight modes exposed by the autopilot."""

    IDLE = "idle"
    TAKEOFF = "takeoff"
    OFFBOARD = "offboard"
    LAND = "land"
    RETURN = "return"
    LANDED = "landed"


@dataclass
class AutopilotConfig:
    """Configuration of the simulated flight stack."""

    takeoff_altitude: float = 15.0
    takeoff_climb_rate: float = 1.8
    landing_descent_rate: float = 0.8
    return_altitude: float = 20.0
    gps_rate_divisor: int = 5
    limits: QuadrotorLimits = field(default_factory=QuadrotorLimits)
    imu_quality: ImuQuality = field(default_factory=ImuQuality.consumer_grade)


class Autopilot:
    """Simulated PX4-style flight controller.

    Args:
        world: the simulated world (for sensor measurements and wind).
        config: flight-stack configuration.
        home: take-off position.
        seed: seed shared by the onboard sensors.
    """

    def __init__(
        self,
        world: World,
        config: AutopilotConfig | None = None,
        home: Vec3 = Vec3.zero(),
        seed: int = 0,
    ) -> None:
        self.world = world
        self.config = config or AutopilotConfig()
        self.home = home

        self.dynamics = QuadrotorDynamics(self.config.limits)
        self.dynamics.teleport(home)
        self.wind = WindModel(world.weather, seed=seed + 1)
        self.controller = PositionController()

        self.gps = GpsSensor(seed=seed + 2)
        self.imu = ImuSensor(quality=self.config.imu_quality, seed=seed + 3)
        self.barometer = Barometer(seed=seed + 4)
        self.rangefinder = Rangefinder(seed=seed + 5)

        self.ekf = PositionEkf()
        self.ekf.reset_to(home)

        self.mode = FlightMode.IDLE
        self.time = 0.0
        self._setpoint: Vec3 | None = None
        self._setpoint_speed_limit: float | None = None
        self._setpoint_yaw = 0.0
        self._tick = 0

    # ------------------------------------------------------------------ #
    # commands (the landing system's interface)
    # ------------------------------------------------------------------ #
    def arm_and_takeoff(self, altitude: float | None = None) -> None:
        """Begin an automatic climb to the takeoff altitude."""
        if altitude is not None:
            self.config.takeoff_altitude = altitude
        self.mode = FlightMode.TAKEOFF

    def set_position_setpoint(
        self, target: Vec3, yaw: float | None = None, speed_limit: float | None = None
    ) -> None:
        """Offboard position setpoint; switches to OFFBOARD if airborne."""
        self._setpoint = target
        self._setpoint_speed_limit = speed_limit
        if yaw is not None:
            self._setpoint_yaw = yaw
        if self.mode in (FlightMode.OFFBOARD, FlightMode.TAKEOFF):
            self.mode = FlightMode.OFFBOARD

    def command_land(self) -> None:
        """Descend vertically at the current horizontal position."""
        self.mode = FlightMode.LAND

    def command_return(self) -> None:
        """Failsafe: climb to the return altitude and fly back to home."""
        self.mode = FlightMode.RETURN

    # ------------------------------------------------------------------ #
    # state access
    # ------------------------------------------------------------------ #
    @property
    def true_state(self) -> VehicleState:
        return self.dynamics.state

    @property
    def estimated_state(self) -> EstimatedState:
        return self.ekf.estimate()

    @property
    def estimated_pose(self) -> Pose:
        return self.estimated_state.pose

    @property
    def is_landed(self) -> bool:
        return self.mode is FlightMode.LANDED

    # ------------------------------------------------------------------ #
    # simulation step
    # ------------------------------------------------------------------ #
    def step(self, dt: float) -> VehicleState:
        """Advance the flight stack by ``dt`` seconds."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.time += dt
        self._tick += 1

        self._run_mode_logic()

        wind = self.wind.step(dt)
        state = self.dynamics.step(dt, wind=wind)

        # Sensor measurements and estimation.
        self.ekf.predict(self.imu.measure(state.acceleration), dt)
        self.ekf.update_orientation(state.orientation)
        if self._tick % self.config.gps_rate_divisor == 0:
            fix = self.gps.measure(state.position, self.world.weather, self.time)
            self.ekf.update_gps(fix)
        self.ekf.update_altitude(self.barometer.measure(state.position.z))

        self._check_touchdown(state)
        return state

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _run_mode_logic(self) -> None:
        dynamics = self.dynamics
        if self.mode is FlightMode.IDLE or self.mode is FlightMode.LANDED:
            dynamics.command_velocity_xyz(0.0, 0.0, 0.0)
            return

        x, y, altitude = self.ekf.position_xyz
        if self.mode is FlightMode.TAKEOFF:
            if altitude >= self.config.takeoff_altitude - 0.3:
                self.mode = FlightMode.OFFBOARD
            else:
                dynamics.command_velocity_xyz(
                    0.0, 0.0, self.config.takeoff_climb_rate, yaw=self._setpoint_yaw
                )
                return

        if self.mode is FlightMode.OFFBOARD:
            if self._setpoint is None:
                dynamics.command_velocity_xyz(0.0, 0.0, 0.0)
                return
            vx, vy, vz = self.controller.velocity_command_xyz(
                x, y, altitude, self._setpoint, speed_limit=self._setpoint_speed_limit
            )
            dynamics.command_velocity_xyz(vx, vy, vz, yaw=self._setpoint_yaw)
            return

        if self.mode is FlightMode.LAND:
            dynamics.command_velocity_xyz(
                0.0, 0.0, -self.config.landing_descent_rate, yaw=self._setpoint_yaw
            )
            return

        if self.mode is FlightMode.RETURN:
            home = self.home
            if math.hypot(x - home.x, y - home.y) < 1.0:
                self.mode = FlightMode.LAND
                return
            if altitude < self.config.return_altitude - 0.5:
                dynamics.command_velocity_xyz(0.0, 0.0, 1.5)
            else:
                target = home.with_z(self.config.return_altitude)
                dynamics.command_velocity_xyz(
                    *self.controller.velocity_command_xyz(x, y, altitude, target)
                )
            return

    def _check_touchdown(self, state: VehicleState) -> None:
        if self.mode is not FlightMode.LAND:
            return
        range_reading = self.rangefinder.measure(self.world, state.pose)
        on_surface = (range_reading is not None and range_reading < 0.12) or state.position.z < 0.05
        if on_surface and abs(state.velocity.z) < 0.6:
            self.mode = FlightMode.LANDED
            self.dynamics.command_velocity_xyz(0.0, 0.0, 0.0)
