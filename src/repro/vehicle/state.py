"""Vehicle state containers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Pose, Quaternion, Vec3


@dataclass
class VehicleState:
    """Ground-truth kinematic state of the quadrotor."""

    position: Vec3 = field(default_factory=Vec3.zero)
    velocity: Vec3 = field(default_factory=Vec3.zero)
    acceleration: Vec3 = field(default_factory=Vec3.zero)
    orientation: Quaternion = field(default_factory=Quaternion.identity)

    @property
    def pose(self) -> Pose:
        return Pose(self.position, self.orientation)

    @property
    def speed(self) -> float:
        return self.velocity.norm()

    @property
    def altitude(self) -> float:
        return self.position.z


@dataclass
class EstimatedState:
    """The state estimate the landing system sees (EKF output)."""

    position: Vec3 = field(default_factory=Vec3.zero)
    velocity: Vec3 = field(default_factory=Vec3.zero)
    orientation: Quaternion = field(default_factory=Quaternion.identity)
    position_std: Vec3 = field(default_factory=lambda: Vec3(1.0, 1.0, 1.0))

    @property
    def pose(self) -> Pose:
        return Pose(self.position, self.orientation)

    @property
    def altitude(self) -> float:
        return self.position.z
