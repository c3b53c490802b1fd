"""Axis-aligned bounding boxes.

Obstacles in the simulated world, nodes of the octree and inflated collision
bounds are all AABBs; the planner's collision checker and the depth sensor's
ray caster are built on the intersection tests defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.geometry.vec import Vec3


@dataclass(frozen=True)
class AABB:
    """An axis-aligned box defined by its minimum and maximum corners."""

    minimum: Vec3
    maximum: Vec3

    def __post_init__(self) -> None:
        if (
            self.minimum.x > self.maximum.x
            or self.minimum.y > self.maximum.y
            or self.minimum.z > self.maximum.z
        ):
            raise ValueError(
                f"AABB minimum {self.minimum} exceeds maximum {self.maximum}"
            )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_ground_footprint(
        center_x: float, center_y: float, width: float, depth: float, height: float
    ) -> "AABB":
        """Box sitting on the ground plane (z=0), e.g. a building."""
        return AABB(
            Vec3(center_x - width / 2, center_y - depth / 2, 0.0),
            Vec3(center_x + width / 2, center_y + depth / 2, height),
        )

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def center(self) -> Vec3:
        return self.minimum.lerp(self.maximum, 0.5)

    @property
    def size(self) -> Vec3:
        return self.maximum - self.minimum

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def contains(self, point: Vec3, tol: float = 0.0) -> bool:
        return (
            self.minimum.x - tol <= point.x <= self.maximum.x + tol
            and self.minimum.y - tol <= point.y <= self.maximum.y + tol
            and self.minimum.z - tol <= point.z <= self.maximum.z + tol
        )

    def closest_point(self, point: Vec3) -> Vec3:
        """The point inside the box closest to ``point``."""
        return Vec3(
            min(max(point.x, self.minimum.x), self.maximum.x),
            min(max(point.y, self.minimum.y), self.maximum.y),
            min(max(point.z, self.minimum.z), self.maximum.z),
        )

    def distance_to_point(self, point: Vec3) -> float:
        """Euclidean distance from ``point`` to the box surface (0 if inside)."""
        return self.closest_point(point).distance_to(point)

    def inflated(self, margin: float) -> "AABB":
        """A copy grown by ``margin`` metres on every face."""
        if margin < 0 and (
            self.size.x < -2 * margin or self.size.y < -2 * margin or self.size.z < -2 * margin
        ):
            raise ValueError("negative margin would invert the box")
        grow = Vec3(margin, margin, margin)
        return AABB(self.minimum - grow, self.maximum + grow)

    # ------------------------------------------------------------------ #
    # ray intersection (slab method)
    # ------------------------------------------------------------------ #
    def ray_intersection(
        self, origin: Vec3, direction: Vec3, max_range: float = math.inf
    ) -> Optional[float]:
        """Distance along the ray to the first intersection, or ``None``.

        Uses the classic slab test.  A ray starting inside the box reports a
        hit at distance 0.
        """
        t_min = 0.0
        t_max = max_range
        for axis in ("x", "y", "z"):
            o = getattr(origin, axis)
            d = getattr(direction, axis)
            lo = getattr(self.minimum, axis)
            hi = getattr(self.maximum, axis)
            if abs(d) < 1e-12:
                if o < lo or o > hi:
                    return None
                continue
            inv = 1.0 / d
            t1 = (lo - o) * inv
            t2 = (hi - o) * inv
            if t1 > t2:
                t1, t2 = t2, t1
            t_min = max(t_min, t1)
            t_max = min(t_max, t2)
            if t_min > t_max:
                return None
        return t_min
