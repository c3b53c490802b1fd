"""A rigid-body pose: position plus orientation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.quaternion import Quaternion
from repro.geometry.vec import Vec3


@dataclass(frozen=True)
class Pose:
    """Position and orientation of a body in the world frame."""

    position: Vec3 = Vec3.zero()
    orientation: Quaternion = Quaternion.identity()

    @staticmethod
    def identity() -> "Pose":
        return Pose(Vec3.zero(), Quaternion.identity())

    @staticmethod
    def at(position: Vec3, yaw: float = 0.0) -> "Pose":
        """A pose at ``position`` with a pure heading rotation."""
        return Pose(position, Quaternion.from_yaw(yaw))

    def inverse_transform_point(self, world_point: Vec3) -> Vec3:
        """Map a world-frame point into the body frame."""
        return self.orientation.rotate_inverse(world_point - self.position)

    @property
    def yaw(self) -> float:
        return self.orientation.yaw

    def distance_to(self, other: "Pose") -> float:
        return self.position.distance_to(other.position)
