"""The vehicle tick as it was in per-axis numpy and ``Vec3`` arithmetic.

Each class here is the version ``repro.vehicle`` and ``repro.sensors`` used
before the 25 Hz tick moved to plain float arithmetic, kept as it was so the
tests can run any input through both and demand identical bits:

* ``ReferenceEkf`` -- ``PositionEkf`` with a ``(3, 2)`` state array, three
  per-axis 2x2 matmul chains per predict and numpy scalar updates;
* ``ReferenceDynamics``, ``ReferenceWindModel`` and ``ReferenceController``
  -- ``QuadrotorDynamics``, ``WindModel`` and ``PositionController`` in
  ``Vec3`` arithmetic, the wind drawing ``normal(size=3)``, the dynamics
  also computing the yaw rate (kept as ``angular_rate`` beside the state);
* ``ReferenceImuSensor`` and ``ReferenceBarometer`` -- the four
  ``normal(size=3)`` IMU draws, gyroscope channel included, and the two
  scalar barometer draws;
* ``ReferenceAutopilot`` -- ``Autopilot`` over those components, its mode
  logic building an ``EstimatedState`` every tick;
* ``reference_colliding_obstacle`` -- ``WorldGeometry.colliding_obstacle``
  as twelve per-axis comparisons.

Only the class names differ from the originals, ``ReferenceAutopilot``
builds the ``Reference*`` components, and the gyroscope's rate and grade,
which the vehicle state and ``ImuQuality`` no longer carry, live on the
reference dynamics and IMU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import Pose, Quaternion, Vec3
from repro.sensors.gps import GpsFix, GpsSensor
from repro.sensors.imu import ImuQuality
from repro.sensors.rangefinder import Rangefinder
from repro.vehicle.autopilot import AutopilotConfig, FlightMode
from repro.vehicle.controller import ControllerGains
from repro.vehicle.dynamics import GRAVITY, QuadrotorLimits
from repro.vehicle.ekf import EkfConfig
from repro.vehicle.state import EstimatedState, VehicleState
from repro.world.weather import Weather
from repro.world.world import World


class ReferenceEkf:
    """Three independent position/velocity Kalman filters (one per axis)."""

    def __init__(self, config: EkfConfig | None = None) -> None:
        self.config = config or EkfConfig()
        # State per axis: [position, velocity].
        self._state = np.zeros((3, 2))
        c = self.config
        self._covariance = np.array(
            [np.diag([c.initial_position_std**2, c.initial_velocity_std**2]) for _ in range(3)]
        )
        self._orientation = Quaternion.identity()
        self._initialised = False

    # ------------------------------------------------------------------ #
    # filter steps
    # ------------------------------------------------------------------ #
    def predict(self, acceleration: Vec3, dt: float) -> None:
        """Propagate with the measured acceleration as the control input."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        accel = acceleration.to_array()
        transition = np.array([[1.0, dt], [0.0, 1.0]])
        control = np.array([0.5 * dt * dt, dt])
        process_noise = (self.config.accel_process_std**2) * np.array(
            [[dt**4 / 4, dt**3 / 2], [dt**3 / 2, dt**2]]
        )
        for axis in range(3):
            self._state[axis] = transition @ self._state[axis] + control * accel[axis]
            self._covariance[axis] = (
                transition @ self._covariance[axis] @ transition.T + process_noise
            )

    def update_gps(self, fix: GpsFix) -> None:
        """Fuse a GPS fix (all three axes)."""
        measurement = fix.position.to_array()
        # Scale measurement noise with the reported DOP, as PX4 does.
        std = self.config.gps_position_std * (0.5 + fix.hdop / 4.0)
        for axis in range(3):
            axis_std = std if axis < 2 else std * 1.5
            self._scalar_update(axis, measurement[axis], axis_std**2)
        self._initialised = True

    def update_altitude(self, altitude: float) -> None:
        """Fuse a barometric altitude measurement (z axis only)."""
        self._scalar_update(2, altitude, self.config.baro_altitude_std**2)

    def update_orientation(self, orientation: Quaternion) -> None:
        """Attitude is taken from the attitude estimator directly."""
        self._orientation = orientation

    def _scalar_update(self, axis: int, measured_position: float, variance: float) -> None:
        observation = np.array([1.0, 0.0])
        covariance = self._covariance[axis]
        innovation = measured_position - observation @ self._state[axis]
        innovation_variance = observation @ covariance @ observation + variance
        gain = covariance @ observation / innovation_variance
        self._state[axis] = self._state[axis] + gain * innovation
        self._covariance[axis] = (np.eye(2) - np.outer(gain, observation)) @ covariance

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def estimate(self) -> EstimatedState:
        position = Vec3(self._state[0, 0], self._state[1, 0], self._state[2, 0])
        velocity = Vec3(self._state[0, 1], self._state[1, 1], self._state[2, 1])
        position_std = Vec3(
            float(np.sqrt(self._covariance[0][0, 0])),
            float(np.sqrt(self._covariance[1][0, 0])),
            float(np.sqrt(self._covariance[2][0, 0])),
        )
        return EstimatedState(
            position=position,
            velocity=velocity,
            orientation=self._orientation,
            position_std=position_std,
        )

    def reset_to(self, position: Vec3) -> None:
        """Hard-reset the filter (used at scenario initialisation)."""
        for axis, value in enumerate(position.to_tuple()):
            self._state[axis] = np.array([value, 0.0])
            self._covariance[axis] = np.diag(
                [self.config.initial_position_std**2, self.config.initial_velocity_std**2]
            )
        self._initialised = True


class ReferenceDynamics:
    """First-order velocity-tracking quadrotor model.

    The controller commands a velocity; the airframe tracks it with a time
    constant and acceleration limit, while wind adds a drag force proportional
    to the relative airspeed.
    """

    def __init__(
        self,
        limits: QuadrotorLimits | None = None,
        initial_state: VehicleState | None = None,
    ) -> None:
        self.limits = limits or QuadrotorLimits()
        self.state = initial_state or VehicleState()
        self.angular_rate = Vec3.zero()
        self._commanded_velocity = Vec3.zero()
        self._commanded_yaw = 0.0

    # ------------------------------------------------------------------ #
    # commands
    # ------------------------------------------------------------------ #
    def command_velocity(self, velocity: Vec3, yaw: float | None = None) -> None:
        """Set the velocity setpoint (clamped to the airframe envelope)."""
        horizontal = Vec3(velocity.x, velocity.y, 0.0).clamp_norm(
            self.limits.max_horizontal_speed
        )
        vertical = max(-self.limits.max_vertical_speed, min(self.limits.max_vertical_speed, velocity.z))
        self._commanded_velocity = Vec3(horizontal.x, horizontal.y, vertical)
        if yaw is not None:
            self._commanded_yaw = yaw

    @property
    def commanded_velocity(self) -> Vec3:
        return self._commanded_velocity

    # ------------------------------------------------------------------ #
    # integration
    # ------------------------------------------------------------------ #
    def step(self, dt: float, wind: Vec3 = Vec3.zero()) -> VehicleState:
        """Advance the dynamics by ``dt`` seconds and return the new state."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        limits = self.limits
        state = self.state

        # First-order velocity tracking towards the commanded velocity.
        velocity_error = self._commanded_velocity - state.velocity
        desired_accel = velocity_error / limits.velocity_time_constant
        # Wind adds drag proportional to relative airspeed.
        relative_air = wind - state.velocity
        desired_accel = desired_accel + relative_air * limits.drag_coefficient
        accel = desired_accel.clamp_norm(limits.max_acceleration)

        new_velocity = state.velocity + accel * dt
        horizontal = Vec3(new_velocity.x, new_velocity.y, 0.0).clamp_norm(
            limits.max_horizontal_speed * 1.2
        )
        vertical = max(
            -limits.max_vertical_speed * 1.2,
            min(limits.max_vertical_speed * 1.2, new_velocity.z),
        )
        new_velocity = Vec3(horizontal.x, horizontal.y, vertical)
        new_position = state.position + new_velocity * dt

        # Keep the vehicle on or above the ground.
        if new_position.z < 0.0:
            new_position = new_position.with_z(0.0)
            new_velocity = new_velocity.with_z(max(0.0, new_velocity.z))

        # Attitude: tilt in the direction of horizontal acceleration, bounded.
        tilt_x = max(-limits.max_tilt_radians, min(limits.max_tilt_radians, accel.x / GRAVITY))
        tilt_y = max(-limits.max_tilt_radians, min(limits.max_tilt_radians, accel.y / GRAVITY))
        orientation = Quaternion.from_euler(-tilt_y * 0.5, tilt_x * 0.5, self._commanded_yaw)

        self.angular_rate = Vec3(
            0.0, 0.0, (self._commanded_yaw - state.orientation.yaw) / max(dt, 1e-6)
        ).clamp_norm(2.0)

        self.state = VehicleState(
            position=new_position,
            velocity=new_velocity,
            acceleration=accel,
            orientation=orientation,
        )
        return self.state

    def teleport(self, position: Vec3, yaw: float = 0.0) -> None:
        """Reset the vehicle to a new position at rest (scenario initialisation)."""
        self.state = VehicleState(
            position=position,
            orientation=Quaternion.from_yaw(yaw),
        )
        self.angular_rate = Vec3.zero()
        self._commanded_velocity = Vec3.zero()
        self._commanded_yaw = yaw


class ReferenceWindModel:
    """Time-correlated wind disturbance."""

    def __init__(self, weather: Weather, seed: int = 0, gust_time_constant: float = 2.0) -> None:
        self._rng = np.random.default_rng(seed)
        self.mean_speed = weather.wind_speed
        self.gust_intensity = weather.gust_intensity
        heading = float(self._rng.uniform(0, 2 * math.pi))
        self.mean_direction = Vec3(math.cos(heading), math.sin(heading), 0.0)
        self.gust_time_constant = gust_time_constant
        self._gust = np.zeros(3)

    def step(self, dt: float) -> Vec3:
        """Advance the gust process and return the current wind velocity (m/s)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        alpha = math.exp(-dt / self.gust_time_constant)
        gust_std = self.gust_intensity * max(self.mean_speed, 1.0) * 0.5
        self._gust = alpha * self._gust + math.sqrt(max(1e-9, 1 - alpha**2)) * self._rng.normal(
            0.0, gust_std, size=3
        )
        # Vertical gusts are weaker than horizontal ones.
        gust = Vec3(self._gust[0], self._gust[1], self._gust[2] * 0.3)
        return self.mean_direction * self.mean_speed + gust

    @property
    def is_calm(self) -> bool:
        return self.mean_speed < 0.5 and self.gust_intensity < 0.05


class ReferenceController:
    """Proportional position controller producing velocity setpoints."""

    def __init__(self, gains: ControllerGains | None = None) -> None:
        self.gains = gains or ControllerGains()

    def velocity_command(
        self,
        estimate: EstimatedState,
        target: Vec3,
        speed_limit: float | None = None,
    ) -> Vec3:
        """Velocity setpoint that moves the vehicle towards ``target``.

        Args:
            estimate: current state estimate.
            target: position setpoint in world coordinates.
            speed_limit: optional extra cap on the horizontal speed (the
                landing state uses a low cap during the final descent).
        """
        gains = self.gains
        error = target - estimate.position
        command = error * gains.position_p

        # Slow down smoothly when close to the target.
        distance = error.norm()
        if distance < gains.approach_slowdown_radius:
            scale = max(0.15, distance / gains.approach_slowdown_radius)
            command = command * scale

        horizontal_cap = gains.max_horizontal_speed
        if speed_limit is not None:
            horizontal_cap = min(horizontal_cap, speed_limit)
        horizontal = Vec3(command.x, command.y, 0.0).clamp_norm(horizontal_cap)

        vertical = command.z
        if vertical > gains.max_vertical_speed:
            vertical = gains.max_vertical_speed
        elif vertical < -gains.max_descent_speed:
            vertical = -gains.max_descent_speed

        return Vec3(horizontal.x, horizontal.y, vertical)


@dataclass(frozen=True)
class ImuSample:
    """One IMU measurement: specific force and angular rate in the body frame."""

    acceleration: Vec3
    angular_rate: Vec3
    timestamp: float


class ReferenceImuSensor:
    """Simulated IMU with white noise plus slowly wandering bias."""

    #: The consumer grade's gyroscope (``ImuQuality`` has no gyroscope).
    gyro_noise_std = 0.015
    gyro_bias_instability = 0.002

    def __init__(self, quality: ImuQuality | None = None, seed: int = 0) -> None:
        self.quality = quality or ImuQuality.consumer_grade()
        self._rng = np.random.default_rng(seed)
        self._accel_bias = np.zeros(3)
        self._gyro_bias = np.zeros(3)

    def measure(
        self,
        true_acceleration: Vec3,
        true_angular_rate: Vec3,
        timestamp: float,
    ) -> ImuSample:
        q = self.quality
        self._accel_bias += self._rng.normal(0.0, q.accel_bias_instability, size=3) * 0.01
        self._gyro_bias += self._rng.normal(0.0, self.gyro_bias_instability, size=3) * 0.01

        accel = (
            true_acceleration.to_array()
            + self._accel_bias
            + self._rng.normal(0.0, q.accel_noise_std, size=3)
        )
        gyro = (
            true_angular_rate.to_array()
            + self._gyro_bias
            + self._rng.normal(0.0, self.gyro_noise_std, size=3)
        )
        return ImuSample(
            acceleration=Vec3.from_array(accel),
            angular_rate=Vec3.from_array(gyro),
            timestamp=timestamp,
        )


class ReferenceBarometer:
    """Simulated barometric altitude sensor with noise and slow drift."""

    def __init__(
        self,
        noise_std: float = 0.08,
        drift_rate: float = 0.002,
        seed: int = 0,
    ) -> None:
        self.noise_std = noise_std
        self.drift_rate = drift_rate
        self._rng = np.random.default_rng(seed)
        self._drift = 0.0

    def measure(self, true_altitude: float) -> float:
        """One altitude reading in metres above the take-off datum."""
        self._drift += float(self._rng.normal(0.0, self.drift_rate))
        self._drift *= 0.999
        return true_altitude + self._drift + float(self._rng.normal(0.0, self.noise_std))

    @property
    def current_drift(self) -> float:
        return self._drift




class ReferenceAutopilot:
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

        self.dynamics = ReferenceDynamics(self.config.limits)
        self.dynamics.teleport(home)
        self.wind = ReferenceWindModel(world.weather, seed=seed + 1)
        self.controller = ReferenceController()

        self.gps = GpsSensor(seed=seed + 2)
        self.imu = ReferenceImuSensor(quality=self.config.imu_quality, seed=seed + 3)
        self.barometer = ReferenceBarometer(seed=seed + 4)
        self.rangefinder = Rangefinder(seed=seed + 5)

        self.ekf = ReferenceEkf()
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
        imu_sample = self.imu.measure(state.acceleration, self.dynamics.angular_rate, self.time)
        self.ekf.predict(imu_sample.acceleration, dt)
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
        estimate = self.estimated_state
        if self.mode is FlightMode.IDLE or self.mode is FlightMode.LANDED:
            self.dynamics.command_velocity(Vec3.zero())
            return

        if self.mode is FlightMode.TAKEOFF:
            if estimate.altitude >= self.config.takeoff_altitude - 0.3:
                self.mode = FlightMode.OFFBOARD
            else:
                self.dynamics.command_velocity(
                    Vec3(0.0, 0.0, self.config.takeoff_climb_rate), yaw=self._setpoint_yaw
                )
                return

        if self.mode is FlightMode.OFFBOARD:
            if self._setpoint is None:
                self.dynamics.command_velocity(Vec3.zero())
                return
            velocity = self.controller.velocity_command(
                estimate, self._setpoint, speed_limit=self._setpoint_speed_limit
            )
            self.dynamics.command_velocity(velocity, yaw=self._setpoint_yaw)
            return

        if self.mode is FlightMode.LAND:
            self.dynamics.command_velocity(
                Vec3(0.0, 0.0, -self.config.landing_descent_rate), yaw=self._setpoint_yaw
            )
            return

        if self.mode is FlightMode.RETURN:
            target = self.home.with_z(self.config.return_altitude)
            if estimate.position.horizontal_distance_to(self.home) < 1.0:
                self.mode = FlightMode.LAND
                return
            if estimate.altitude < self.config.return_altitude - 0.5:
                self.dynamics.command_velocity(Vec3(0.0, 0.0, 1.5))
            else:
                velocity = self.controller.velocity_command(estimate, target)
                self.dynamics.command_velocity(velocity)
            return

    def _check_touchdown(self, state: VehicleState) -> None:
        if self.mode is not FlightMode.LAND:
            return
        range_reading = self.rangefinder.measure(self.world, state.pose)
        on_surface = (range_reading is not None and range_reading < 0.12) or state.position.z < 0.05
        if on_surface and abs(state.velocity.z) < 0.6:
            self.mode = FlightMode.LANDED
            self.dynamics.command_velocity(Vec3.zero())


def reference_colliding_obstacle(geometry, point: Vec3, margin: float = 0.0):
    """``WorldGeometry.colliding_obstacle`` as it was (``geometry`` is a
    ``WorldGeometry``)."""
    if not geometry.hazards:
        return None
    lo = geometry.hazard_lo - margin
    hi = geometry.hazard_hi + margin
    inside = (
        (lo[:, 0] <= point.x)
        & (point.x <= hi[:, 0])
        & (lo[:, 1] <= point.y)
        & (point.y <= hi[:, 1])
        & (lo[:, 2] <= point.z)
        & (point.z <= hi[:, 2])
    )
    index = int(np.argmax(inside))
    if not inside[index]:
        return None
    return geometry.hazards[index]
