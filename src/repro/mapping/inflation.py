"""Obstacle inflation for clearance-aware collision checking.

The planners do not plan against raw voxels: each occupied voxel is inflated
by the vehicle radius plus a safety margin, so any point whose distance to an
occupied voxel is below the inflation radius counts as "in collision".  This
is the "inflated bounding box" of Fig. 6 — and also the source of one of the
MLS-V3 failure modes, because a drone that drifts *inside* the inflated
boundary before replanning finishes can no longer find any valid escape path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Vec3
from repro.mapping.interface import OccupancyMap


@dataclass(frozen=True)
class InflationConfig:
    """Inflation radii."""

    vehicle_radius: float = 0.35
    safety_margin: float = 0.5

    @property
    def total_radius(self) -> float:
        return self.vehicle_radius + self.safety_margin


class InflatedMap:
    """Wraps an occupancy map and answers clearance-aware collision queries.

    The wrapped map is queried on a small spherical neighbourhood (sampled at
    the map resolution) around the query point; if any sample is occupied the
    point is considered in collision.  A query builds all its probes, every
    sample point plus every offset added in floats, as one array and asks the
    map once through :meth:`~repro.mapping.interface.OccupancyMap.any_occupied`.
    """

    def __init__(self, base_map: OccupancyMap, config: InflationConfig | None = None) -> None:
        self.base_map = base_map
        self.config = config or InflationConfig()
        self._offsets = self._build_offsets()

    def _build_offsets(self) -> np.ndarray:
        """Sample offsets covering a sphere of the inflation radius, one per row."""
        radius = self.config.total_radius
        step = max(self.base_map.resolution, 0.25)
        steps = int(np.ceil(radius / step))
        ticks = np.arange(-steps, steps + 1) * step
        grid = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 3)
        x, y, z = grid.T
        return grid[np.sqrt(x * x + y * y + z * z) <= radius]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def inflation_radius(self) -> float:
        return self.config.total_radius

    def is_colliding(self, point: Vec3) -> bool:
        """True if ``point`` is within the inflation radius of occupied space."""
        return self.base_map.any_occupied(self._offsets + point.to_tuple())

    def segment_colliding(self, start: Vec3, end: Vec3, step: float | None = None) -> bool:
        """Check a straight segment by sampling at (half-)resolution steps."""
        step = step or max(self.base_map.resolution * 0.5, 0.2)
        length = start.distance_to(end)
        if length < 1e-9:
            return self.is_colliding(start)
        samples = max(2, int(np.ceil(length / step)) + 1)
        # The samples start.lerp(end, i / (samples - 1)), in the same arithmetic.
        t = np.arange(samples)[:, None] / (samples - 1)
        a = np.array(start.to_tuple())
        points = a + (np.array(end.to_tuple()) - a) * t
        return self.base_map.any_occupied((points[:, None, :] + self._offsets).reshape(-1, 3))

    def path_colliding(self, waypoints: list[Vec3]) -> bool:
        """Check a polyline of waypoints."""
        for a, b in zip(waypoints, waypoints[1:]):
            if self.segment_colliding(a, b):
                return True
        return False
