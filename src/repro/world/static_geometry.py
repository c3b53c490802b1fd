"""Cached static-world geometry with batched numpy query kernels.

The mission loop hits the same static obstacle set thousands of times per
run: every depth capture raycasts a grid of rays against every obstacle,
every physics tick checks the vehicle position for collision, and every
camera frame slab-tests each obstacle against the full pixel-ray bundle.
:class:`WorldGeometry` snapshots a world's obstacles into flat numpy arrays
once and answers those queries in single batched passes.

Every kernel replicates the scalar arithmetic of the reference
implementations (:meth:`repro.geometry.AABB.ray_intersection`,
:meth:`repro.world.world.World.raycast`, ``Obstacle.contains``) operation
for operation, so results are bit-identical to the per-object code paths —
the campaign/dispatch byte-identity contract depends on it.

Geometries are memoised two ways: per :class:`~repro.world.world.World`
instance (invalidated when the obstacle/marker counts change), and in a
small process-level cache keyed on ``Scenario.fingerprint()`` so repeated
runs of the same scenario (campaign repetitions, parallel workers) skip the
rebuild entirely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.geometry import Vec3

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.world.obstacles import Obstacle
    from repro.world.world import World

_FINGERPRINT_CACHE: dict[tuple, "WorldGeometry"] = {}
_FINGERPRINT_CACHE_LIMIT = 64


def geometry_for_world(world: "World") -> "WorldGeometry":
    """The (possibly cached) :class:`WorldGeometry` for ``world``."""
    signature = (len(world.obstacles), len(world.markers))
    cached = getattr(world, "_geometry_cache", None)
    if cached is not None and cached.signature == signature:
        return cached

    key = None
    fingerprint = getattr(world, "geometry_key", None)
    if fingerprint:
        key = (fingerprint, signature)
        cached = _FINGERPRINT_CACHE.get(key)
        if cached is not None:
            world._geometry_cache = cached
            return cached

    geometry = WorldGeometry(world)
    world._geometry_cache = geometry
    if key is not None:
        if len(_FINGERPRINT_CACHE) >= _FINGERPRINT_CACHE_LIMIT:
            _FINGERPRINT_CACHE.pop(next(iter(_FINGERPRINT_CACHE)))
        _FINGERPRINT_CACHE[key] = geometry
    return geometry


class WorldGeometry:
    """Flat numpy snapshot of a world's static obstacles."""

    def __init__(self, world: "World") -> None:
        self.signature = (len(world.obstacles), len(world.markers))
        hazards = [o for o in world.obstacles if o.is_collision_hazard]
        self.hazards: list["Obstacle"] = hazards
        count = len(hazards)
        self.hazard_lo = np.empty((count, 3), dtype=float)
        self.hazard_hi = np.empty((count, 3), dtype=float)
        self.late_range = np.full(count, np.inf, dtype=float)
        for i, obstacle in enumerate(hazards):
            box = obstacle.bounds
            self.hazard_lo[i] = (box.minimum.x, box.minimum.y, box.minimum.z)
            self.hazard_hi[i] = (box.maximum.x, box.maximum.y, box.maximum.z)
            if obstacle.late_visibility_range is not None:
                self.late_range[i] = obstacle.late_visibility_range

        self._contains_cache: tuple[float, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # ray casting
    # ------------------------------------------------------------------ #
    def raycast_batch(
        self,
        origin: Vec3,
        directions: np.ndarray,
        max_range: float,
        ground_altitude: float,
        reference: Vec3,
    ) -> np.ndarray:
        """Batched equivalent of :meth:`World.raycast` over ``(N, 3)`` rays.

        Returns an ``(N,)`` array of hit distances with NaN where the scalar
        raycast would return ``None``.  Arithmetic replicates the scalar path
        exactly: directions are re-normalised with the same operations, slab
        tests fold per-axis in the same order, and the nearest candidate is
        selected by value.
        """
        dx = directions[:, 0]
        dy = directions[:, 1]
        dz = directions[:, 2]
        norms = np.sqrt((dx * dx + dy * dy) + dz * dz)
        if np.any(norms < 1e-12):
            raise ValueError("raycast direction must be non-zero")
        units = directions / norms[:, None]

        origin_arr = np.array([origin.x, origin.y, origin.z], dtype=float)
        uz = units[:, 2]
        down = uz < -1e-9
        with np.errstate(divide="ignore", invalid="ignore"):
            t_ground = (ground_altitude - origin_arr[2]) / uz
        ground_ok = down & (t_ground >= 0.0) & (t_ground <= max_range)
        best = np.where(ground_ok, t_ground, np.nan)

        if not self.hazards:
            return best

        # Late-visibility gating, replicating Obstacle.visible_from /
        # AABB.distance_to_point component order.
        ref = np.array([reference.x, reference.y, reference.z], dtype=float)
        closest = np.minimum(np.maximum(ref, self.hazard_lo), self.hazard_hi)
        delta = closest - ref
        ref_dist = np.sqrt(
            (delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1])
            + delta[:, 2] * delta[:, 2]
        )
        visible = ref_dist <= self.late_range

        # Range cull: a ray's slab entry distance can never undercut the
        # euclidean distance from the origin to the box, so hazards beyond
        # max_range (with a margin dwarfing float rounding) cannot hit.
        odelta = (
            np.minimum(np.maximum(origin_arr, self.hazard_lo), self.hazard_hi)
            - origin_arr
        )
        origin_dist = np.sqrt(
            (odelta[:, 0] * odelta[:, 0] + odelta[:, 1] * odelta[:, 1])
            + odelta[:, 2] * odelta[:, 2]
        )
        active = visible & (origin_dist <= max_range * (1.0 + 1e-9) + 1e-9)
        if not np.any(active):
            return best
        hazard_lo = self.hazard_lo[active]
        hazard_hi = self.hazard_hi[active]

        degenerate = np.abs(units) < 1e-12  # (N, 3)
        safe = np.where(degenerate, 1.0, units)
        inv = 1.0 / safe
        t1 = (hazard_lo[None, :, :] - origin_arr) * inv[:, None, :]
        t2 = (hazard_hi[None, :, :] - origin_arr) * inv[:, None, :]
        t_low = np.minimum(t1, t2)
        t_high = np.maximum(t1, t2)
        deg3 = degenerate[:, None, :]
        t_low = np.where(deg3, -np.inf, t_low)
        t_high = np.where(deg3, np.inf, t_high)
        t_min = np.maximum(
            np.maximum(t_low[..., 0], t_low[..., 1]), t_low[..., 2]
        )
        t_min = np.maximum(t_min, 0.0)
        t_max = np.minimum(
            np.minimum(t_high[..., 0], t_high[..., 1]), t_high[..., 2]
        )
        t_max = np.minimum(t_max, max_range)
        # A degenerate ray axis misses outright when the origin sits outside
        # that slab (the scalar code returns None before touching t_min/t_max).
        outside = (origin_arr < hazard_lo) | (origin_arr > hazard_hi)
        degenerate_miss = np.any(deg3 & outside[None, :, :], axis=-1)
        hit = (t_min <= t_max) & ~degenerate_miss
        distances = np.where(hit, t_min, np.inf)
        nearest = distances.min(axis=1)
        return np.fmin(best, np.where(np.isinf(nearest), np.nan, nearest))

    # ------------------------------------------------------------------ #
    # point collision
    # ------------------------------------------------------------------ #
    def colliding_obstacle(self, point: Vec3, margin: float = 0.0):
        """Batched equivalent of :meth:`World.colliding_obstacle`: the first
        hazard whose margin-inflated box contains ``point``, or ``None``."""
        if not self.hazards:
            return None
        cached = self._contains_cache
        if cached is None or cached[0] != margin:
            cached = (margin, self.hazard_lo - margin, self.hazard_hi + margin)
            self._contains_cache = cached
        _, lo, hi = cached
        xyz = np.array((point.x, point.y, point.z))
        inside = ((lo <= xyz) & (xyz <= hi)).all(axis=1)
        index = int(inside.argmax())
        if not inside[index]:
            return None
        return self.hazards[index]

    # ------------------------------------------------------------------ #
    # camera-frustum culling
    # ------------------------------------------------------------------ #
    def hull_obstacle_indices(
        self, hull_lo: np.ndarray, hull_hi: np.ndarray, camera_height: float
    ) -> np.ndarray:
        """Indices of hazards whose AABB intersects the view hull.

        Conservative: every ray segment from the camera origin to its ground
        hit lies inside the hull box, so obstacles that do not touch it
        cannot block any pixel.  Obstacles entirely at or above the camera
        are excluded exactly as the renderer's own guard does.
        """
        overlap = np.all(
            (self.hazard_lo <= hull_hi) & (self.hazard_hi >= hull_lo), axis=1
        )
        overlap &= self.hazard_lo[:, 2] < camera_height
        return np.nonzero(overlap)[0]
