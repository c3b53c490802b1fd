"""Simplified quadrotor dynamics.

The model is a point mass with first-order velocity tracking, acceleration
and velocity limits, a tilt-derived attitude, and additive wind drag.  It is
deliberately simpler than a full rigid-body model, but it preserves the
properties that drive the paper's failure modes:

* finite acceleration means the vehicle overshoots sharp trajectory corners
  (the MLS-V3 "sharp RRT* corner" failures);
* wind displaces the vehicle during the final descent (real-world accuracy);
* commanded velocity is tracked with a lag, so late replanning can fail to
  prevent an impending collision (HIL deadline misses).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Quaternion, Vec3
from repro.geometry.vec import clamp_norm_xyz
from repro.vehicle.state import VehicleState

GRAVITY = 9.81


@dataclass(frozen=True)
class QuadrotorLimits:
    """Performance envelope of the simulated airframe (F450-class)."""

    max_horizontal_speed: float = 6.0
    max_vertical_speed: float = 2.5
    max_acceleration: float = 4.0
    max_tilt_radians: float = 0.5
    velocity_time_constant: float = 0.45
    drag_coefficient: float = 0.15


class QuadrotorDynamics:
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
        self._commanded_velocity = (0.0, 0.0, 0.0)
        self._commanded_yaw = 0.0

    # ------------------------------------------------------------------ #
    # commands
    # ------------------------------------------------------------------ #
    def command_velocity_xyz(
        self, vx: float, vy: float, vz: float, yaw: float | None = None
    ) -> None:
        """Set the velocity setpoint (clamped to the airframe envelope)."""
        limits = self.limits
        hx, hy, _ = clamp_norm_xyz(vx, vy, 0.0, limits.max_horizontal_speed)
        vertical = max(-limits.max_vertical_speed, min(limits.max_vertical_speed, vz))
        self._commanded_velocity = (hx, hy, vertical)
        if yaw is not None:
            self._commanded_yaw = yaw

    # ------------------------------------------------------------------ #
    # integration
    # ------------------------------------------------------------------ #
    def step(self, dt: float, wind: Vec3 = Vec3.zero()) -> VehicleState:
        """Advance the dynamics by ``dt`` seconds and return the new state.

        Component by component in plain floats, with the operations and
        order of the ``Vec3`` expressions in the comments; only the returned
        state is built from ``Vec3`` and ``Quaternion`` objects.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        limits = self.limits
        state = self.state
        velocity = state.velocity
        vx, vy, vz = velocity.x, velocity.y, velocity.z
        cx, cy, cz = self._commanded_velocity
        time_constant = limits.velocity_time_constant
        if time_constant == 0.0:
            raise ZeroDivisionError("Vec3 division by zero")
        drag = limits.drag_coefficient

        # First-order velocity tracking towards the commanded velocity, plus
        # wind drag proportional to relative airspeed:
        # (command - velocity) / time_constant + (wind - velocity) * drag.
        ax, ay, az = clamp_norm_xyz(
            (cx - vx) / time_constant + (wind.x - vx) * drag,
            (cy - vy) / time_constant + (wind.y - vy) * drag,
            (cz - vz) / time_constant + (wind.z - vz) * drag,
            limits.max_acceleration,
        )

        # velocity + accel * dt, then the horizontal and vertical caps.
        vx, vy, _ = clamp_norm_xyz(
            vx + ax * dt, vy + ay * dt, 0.0, limits.max_horizontal_speed * 1.2
        )
        vz = max(
            -limits.max_vertical_speed * 1.2,
            min(limits.max_vertical_speed * 1.2, vz + az * dt),
        )
        position = state.position
        px, py, pz = position.x + vx * dt, position.y + vy * dt, position.z + vz * dt

        # Keep the vehicle on or above the ground.
        if pz < 0.0:
            pz = 0.0
            vz = max(0.0, vz)

        # Attitude: tilt in the direction of horizontal acceleration, bounded.
        tilt_x = max(-limits.max_tilt_radians, min(limits.max_tilt_radians, ax / GRAVITY))
        tilt_y = max(-limits.max_tilt_radians, min(limits.max_tilt_radians, ay / GRAVITY))
        orientation = Quaternion.from_euler(-tilt_y * 0.5, tilt_x * 0.5, self._commanded_yaw)

        self.state = VehicleState(
            position=Vec3(px, py, pz),
            velocity=Vec3(vx, vy, vz),
            acceleration=Vec3(ax, ay, az),
            orientation=orientation,
        )
        return self.state

    def teleport(self, position: Vec3, yaw: float = 0.0) -> None:
        """Reset the vehicle to a new position at rest (scenario initialisation)."""
        self.state = VehicleState(
            position=position,
            orientation=Quaternion.from_yaw(yaw),
        )
        self._commanded_velocity = (0.0, 0.0, 0.0)
        self._commanded_yaw = yaw
