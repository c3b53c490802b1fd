"""Immutable 3-vector used throughout the simulator.

A deliberately small class: the hot loops (ray casting, occupancy updates)
convert to NumPy arrays, but the public API of the world, vehicle and planner
modules speaks :class:`Vec3` so that positions and velocities are explicit and
hashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Vec3:
    """A point or direction in 3D ENU space (metres)."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zero() -> "Vec3":
        """The origin / null displacement."""
        return Vec3(0.0, 0.0, 0.0)

    @staticmethod
    def from_array(arr: Sequence[float]) -> "Vec3":
        """Build from any length-3 sequence (list, tuple, ndarray)."""
        if len(arr) != 3:
            raise ValueError(f"expected length-3 sequence, got length {len(arr)}")
        return Vec3(float(arr[0]), float(arr[1]), float(arr[2]))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_array(self) -> np.ndarray:
        """Return a float64 ndarray copy of the components."""
        return np.array([self.x, self.y, self.z], dtype=float)

    def to_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec3":
        if scalar == 0.0:
            raise ZeroDivisionError("Vec3 division by zero")
        return Vec3(self.x / scalar, self.y / scalar, self.z / scalar)

    # ------------------------------------------------------------------ #
    # products and norms
    # ------------------------------------------------------------------ #
    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        """Euclidean length."""
        return math.sqrt(self.dot(self))

    def horizontal_norm(self) -> float:
        """Length of the projection onto the ground (x-y) plane."""
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Vec3":
        """Unit vector in the same direction.

        Raises:
            ValueError: if the vector is (numerically) zero.
        """
        n = self.norm()
        if n < 1e-12:
            raise ValueError("cannot normalize a zero vector")
        return self / n

    def distance_to(self, other: "Vec3") -> float:
        return (self - other).norm()

    def horizontal_distance_to(self, other: "Vec3") -> float:
        return (self - other).horizontal_norm()

    # ------------------------------------------------------------------ #
    # interpolation and clamping
    # ------------------------------------------------------------------ #
    def lerp(self, other: "Vec3", t: float) -> "Vec3":
        """Linear interpolation: ``t=0`` gives self, ``t=1`` gives other."""
        return Vec3(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
            self.z + (other.z - self.z) * t,
        )

    def clamp_norm(self, max_norm: float) -> "Vec3":
        """Scale the vector down if it is longer than ``max_norm``."""
        if max_norm < 0:
            raise ValueError("max_norm must be non-negative")
        n = self.norm()
        if n <= max_norm or n < 1e-12:
            return self
        return self * (max_norm / n)

    def with_z(self, z: float) -> "Vec3":
        """Copy with the vertical component replaced."""
        return Vec3(self.x, self.y, z)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Vec3({self.x:.3f}, {self.y:.3f}, {self.z:.3f})"


def clamp_norm_xyz(x: float, y: float, z: float, max_norm: float) -> tuple[float, float, float]:
    """:meth:`Vec3.clamp_norm` on bare components, for per-tick float code.

    The same float operations in the same order (``norm`` is
    ``sqrt(x*x + y*y + z*z)``), without building a ``Vec3``.
    """
    if max_norm < 0:
        raise ValueError("max_norm must be non-negative")
    n = math.sqrt(x * x + y * y + z * z)
    if n <= max_norm or n < 1e-12:
        return x, y, z
    scale = max_norm / n
    return x * scale, y * scale, z * scale
