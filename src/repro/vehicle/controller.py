"""Cascaded position -> velocity controller.

The outer loop converts a position setpoint into a velocity command with a
proportional gain and speed limits, mirroring PX4's multicopter position
controller in offboard mode.  Trajectory following in the landing system
works by feeding successive waypoints of the planned path to this controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry import Vec3
from repro.geometry.vec import clamp_norm_xyz


@dataclass(frozen=True)
class ControllerGains:
    """Outer-loop gains and limits."""

    position_p: float = 1.1
    max_horizontal_speed: float = 5.0
    max_vertical_speed: float = 2.0
    max_descent_speed: float = 1.2
    approach_slowdown_radius: float = 3.0


class PositionController:
    """Proportional position controller producing velocity setpoints."""

    def __init__(self, gains: ControllerGains | None = None) -> None:
        self.gains = gains or ControllerGains()

    def velocity_command_xyz(
        self,
        x: float,
        y: float,
        z: float,
        target: Vec3,
        speed_limit: float | None = None,
    ) -> tuple[float, float, float]:
        """Velocity setpoint that moves the vehicle from the estimated
        position ``(x, y, z)`` towards ``target``, in plain floats.

        ``speed_limit`` is an optional extra cap on the horizontal speed (the
        landing state uses a low cap during the final descent).
        """
        gains = self.gains
        # error = target - position; command = error * position_p.
        ex, ey, ez = target.x - x, target.y - y, target.z - z
        p_gain = gains.position_p
        cx, cy, cz = ex * p_gain, ey * p_gain, ez * p_gain

        # Slow down smoothly when close to the target.
        distance = math.sqrt(ex * ex + ey * ey + ez * ez)
        if distance < gains.approach_slowdown_radius:
            scale = max(0.15, distance / gains.approach_slowdown_radius)
            cx, cy, cz = cx * scale, cy * scale, cz * scale

        horizontal_cap = gains.max_horizontal_speed
        if speed_limit is not None:
            horizontal_cap = min(horizontal_cap, speed_limit)
        hx, hy, _ = clamp_norm_xyz(cx, cy, 0.0, horizontal_cap)

        vertical = cz
        if vertical > gains.max_vertical_speed:
            vertical = gains.max_vertical_speed
        elif vertical < -gains.max_descent_speed:
            vertical = -gains.max_descent_speed

        return hx, hy, vertical
