"""The queryable simulated world.

A :class:`World` holds the static geometry (obstacles, markers, terrain
bounds) and the ambient weather.  Sensors, the collision monitor and the
mission runner query it; nothing in the landing system reads it directly —
the system only sees sensor products, exactly as the real system only sees
camera frames and point clouds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.geometry import AABB, Vec3
from repro.world.markers import Marker
from repro.world.obstacles import Obstacle, ObstacleKind
from repro.world.static_geometry import geometry_for_world
from repro.world.weather import Weather


@dataclass
class World:
    """A static 3D environment with markers and weather.

    Attributes:
        name: map identifier (e.g. ``urban-03``).
        bounds: the playable volume; the drone must stay inside it.
        obstacles: static obstacles.
        markers: landing markers (one target plus decoys).
        weather: ambient weather for the scenario being run.
        ground_altitude: z of flat ground (always 0 in the generated maps).
        geometry_key: optional content key (``Scenario.fingerprint()``) that
            lets :meth:`geometry` reuse one cached snapshot across repeated
            builds of the same scenario.
    """

    name: str
    bounds: AABB
    obstacles: list[Obstacle] = field(default_factory=list)
    markers: list[Marker] = field(default_factory=list)
    weather: Weather = field(default_factory=Weather.clear)
    ground_altitude: float = 0.0
    geometry_key: str | None = None

    def geometry(self):
        """Batched numpy snapshot of the static geometry (cached).

        See :mod:`repro.world.static_geometry`; the snapshot is rebuilt when
        the obstacle or marker counts change.
        """
        return geometry_for_world(self)

    # ------------------------------------------------------------------ #
    # markers
    # ------------------------------------------------------------------ #
    @property
    def target_marker(self) -> Optional[Marker]:
        """The genuine landing pad, if the scenario defines one."""
        for marker in self.markers:
            if marker.is_target:
                return marker
        return None

    # ------------------------------------------------------------------ #
    # collision queries (used by the ground-truth collision monitor)
    # ------------------------------------------------------------------ #
    def collision_obstacles(self) -> list[Obstacle]:
        return [o for o in self.obstacles if o.is_collision_hazard]

    def colliding_obstacle(self, point: Vec3, margin: float = 0.0) -> Optional[Obstacle]:
        """The first obstacle in collision with ``point``, or ``None``."""
        return self.geometry().colliding_obstacle(point, margin)

    def clearance(self, point: Vec3) -> float:
        """Distance from ``point`` to the nearest solid obstacle surface (or ground)."""
        best = max(0.0, point.z - self.ground_altitude)
        for obstacle in self.collision_obstacles():
            best = min(best, obstacle.bounds.distance_to_point(point))
        return best

    # ------------------------------------------------------------------ #
    # ray casting (used by the depth sensor and rangefinder)
    # ------------------------------------------------------------------ #
    def raycast(
        self,
        origin: Vec3,
        direction: Vec3,
        max_range: float,
        visible_only_from: Optional[Vec3] = None,
    ) -> Optional[float]:
        """Distance to the first surface hit along a ray, or ``None``.

        Args:
            origin: ray origin in world coordinates.
            direction: ray direction (normalised internally).
            max_range: sensor range limit.
            visible_only_from: if given, obstacles with restricted visibility
                (tree canopies) are only hit when this position is within
                their ``late_visibility_range`` — this is how the depth sensor
                models geometry that has not yet been perceived.
        """
        norm = direction.norm()
        if norm < 1e-12:
            raise ValueError("raycast direction must be non-zero")
        unit = direction / norm

        best: Optional[float] = None

        # Ground plane intersection.
        if unit.z < -1e-9:
            t_ground = (self.ground_altitude - origin.z) / unit.z
            if 0.0 <= t_ground <= max_range:
                best = t_ground

        reference = visible_only_from if visible_only_from is not None else origin
        for obstacle in self.obstacles:
            if not obstacle.is_collision_hazard:
                continue
            if not obstacle.visible_from(reference):
                continue
            hit = obstacle.bounds.ray_intersection(origin, unit, max_range)
            if hit is not None and (best is None or hit < best):
                best = hit
        return best

    def raycast_batch(
        self,
        origin: Vec3,
        directions,
        max_range: float,
        visible_only_from: Optional[Vec3] = None,
    ):
        """Batched :meth:`raycast` over an ``(N, 3)`` direction array.

        Returns an ``(N,)`` float array with NaN where a scalar raycast would
        return ``None``; results are bit-identical to calling :meth:`raycast`
        per row (see :mod:`repro.world.static_geometry`).
        """
        reference = visible_only_from if visible_only_from is not None else origin
        return self.geometry().raycast_batch(
            origin, directions, max_range, self.ground_altitude, reference
        )

    # ------------------------------------------------------------------ #
    # landing surface queries
    # ------------------------------------------------------------------ #
    def is_valid_landing_point(self, point: Vec3, clearance_radius: float = 0.5) -> bool:
        """True if a drone can touch down at ``point`` without hazard.

        The point must lie inside the map bounds, not inside or on top of an
        obstacle, and not on water.
        """
        if not self.bounds.contains(point.with_z(max(point.z, self.ground_altitude)), tol=1e-6):
            return False
        probe = point.with_z(self.ground_altitude + 0.1)
        for obstacle in self.obstacles:
            box = obstacle.bounds.inflated(clearance_radius)
            if obstacle.kind is ObstacleKind.WATER:
                # Water: only horizontal containment matters.
                if (
                    box.minimum.x <= point.x <= box.maximum.x
                    and box.minimum.y <= point.y <= box.maximum.y
                ):
                    return False
            elif box.contains(probe):
                return False
        return True

    def contains(self, point: Vec3) -> bool:
        return self.bounds.contains(point)
