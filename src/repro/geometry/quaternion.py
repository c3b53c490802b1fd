"""Unit quaternions for vehicle attitude.

Conventions: scalar-first storage ``(w, x, y, z)``, right-handed rotations,
and Euler angles as intrinsic Z-Y-X (yaw, pitch, roll) which matches the
autopilot convention used by PX4-style flight stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.vec import Vec3


@dataclass(frozen=True)
class Quaternion:
    """A unit quaternion representing an attitude / rotation."""

    w: float = 1.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_euler(roll: float, pitch: float, yaw: float) -> "Quaternion":
        """Build from intrinsic Z-Y-X Euler angles (radians)."""
        cr, sr = math.cos(roll / 2), math.sin(roll / 2)
        cp, sp = math.cos(pitch / 2), math.sin(pitch / 2)
        cy, sy = math.cos(yaw / 2), math.sin(yaw / 2)
        return Quaternion(
            cr * cp * cy + sr * sp * sy,
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
        )

    @staticmethod
    def from_yaw(yaw: float) -> "Quaternion":
        """Pure heading rotation about the vertical axis."""
        return Quaternion.from_euler(0.0, 0.0, yaw)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n < 1e-12:
            raise ValueError("cannot normalize a zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    # ------------------------------------------------------------------ #
    # rotation
    # ------------------------------------------------------------------ #
    def rotate(self, v: Vec3) -> Vec3:
        """Rotate a vector from the body frame into the world frame."""
        q = self
        u = Vec3(q.x, q.y, q.z)
        s = q.w
        return 2.0 * u.dot(v) * u + (s * s - u.dot(u)) * v + 2.0 * s * u.cross(v)

    def rotate_inverse(self, v: Vec3) -> Vec3:
        """Rotate a vector from the world frame into the body frame."""
        return self.conjugate().rotate(v)

    # ------------------------------------------------------------------ #
    # Euler extraction
    # ------------------------------------------------------------------ #
    def to_euler(self) -> tuple[float, float, float]:
        """Return ``(roll, pitch, yaw)`` in radians."""
        w, x, y, z = self.w, self.x, self.y, self.z
        sinr_cosp = 2 * (w * x + y * z)
        cosr_cosp = 1 - 2 * (x * x + y * y)
        roll = math.atan2(sinr_cosp, cosr_cosp)

        sinp = 2 * (w * y - z * x)
        pitch = math.copysign(math.pi / 2, sinp) if abs(sinp) >= 1 else math.asin(sinp)

        siny_cosp = 2 * (w * z + x * y)
        cosy_cosp = 1 - 2 * (y * y + z * z)
        yaw = math.atan2(siny_cosp, cosy_cosp)
        return roll, pitch, yaw

    @property
    def yaw(self) -> float:
        """Heading in radians: ``to_euler()[2]`` without the roll and pitch."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return math.atan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z))

    def rotation_matrix(self) -> np.ndarray:
        """3x3 rotation matrix (body -> world)."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ],
            dtype=float,
        )
