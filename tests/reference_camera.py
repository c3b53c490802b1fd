"""The camera's capture path as it was before it reused full-frame buffers.

``ReferenceCamera`` is ``repro.sensors.camera.DownwardCamera`` as it
rendered when every capture built its full-frame arrays afresh, kept as it
was so the tests can render any scene through both and demand the same
image bytes and the same ``visible_markers``:

* the pixel rays as a cached ``(H, W, 3)`` grid, turned into the world
  frame with one stacked ``dirs_cam @ rotation.T`` matmul;
* the ground hit with ``np.where`` substitutions for ``|dz| < 1e-9``,
  ``t <= 0`` and the texture's NaN pixels;
* the obstacle slab test over ``(h, w, 3)`` window arrays, OR-ed into one
  frame mask applied with ``np.where``;
* the weather as out-of-place fog, glare and ``normal`` noise, then
  ``np.clip``.

Only the class name differs from the original, and docstrings and
comments are dropped.  The pixel window, the frame and the intrinsics have
not changed and come from ``repro.sensors.camera``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.geometry import Pose
from repro.perception.aruco import ArucoDictionary, default_dictionary
from repro.sensors.camera import CameraFrame, CameraIntrinsics, _pixel_window
from repro.world.markers import Marker
from repro.world.weather import Weather
from repro.world.world import World


class ReferenceCamera:
    """Renders synthetic downward images of the world."""

    def __init__(
        self,
        intrinsics: CameraIntrinsics | None = None,
        dictionary: ArucoDictionary | None = None,
        seed: int = 0,
    ) -> None:
        self.intrinsics = intrinsics or CameraIntrinsics()
        self.dictionary = dictionary or default_dictionary()
        self._rng = np.random.default_rng(seed)
        self._frame_count = 0

    def capture(
        self,
        world: World,
        true_pose: Pose,
        estimated_pose: Pose | None = None,
        timestamp: float = 0.0,
    ) -> CameraFrame:
        self._frame_count += 1
        intr = self.intrinsics
        weather = world.weather

        dirs_cam = _pixel_ray_grid(intr)
        rotation = true_pose.orientation.rotation_matrix()
        dirs_world = dirs_cam @ rotation.T
        origin = true_pose.position.to_array()

        dz = dirs_world[..., 2]
        dz = np.where(np.abs(dz) < 1e-9, -1e-9, dz)
        t = (world.ground_altitude - origin[2]) / dz
        t = np.where(t <= 0, np.nan, t)
        ground_x = origin[0] + dirs_world[..., 0] * t
        ground_y = origin[1] + dirs_world[..., 1] * t

        image = self._ground_texture(ground_x, ground_y)

        visible: list[Marker] = []
        for marker in world.markers:
            corners = np.array([(c.x, c.y, world.ground_altitude) for c in marker.corners])
            window = _pixel_window(corners, origin, rotation, intr)
            if window is None:
                continue
            if self._draw_marker(image[window], ground_x[window], ground_y[window], marker, weather):
                visible.append(marker)

        image = self._mask_obstacle_pixels(
            image, world, origin, rotation, dirs_world, t, ground_x, ground_y
        )

        image = self._apply_weather(image, weather)
        image = np.clip(image, 0.0, 1.0)

        return CameraFrame(
            image=image,
            camera_pose=estimated_pose or true_pose,
            intrinsics=intr,
            timestamp=timestamp,
            visible_markers=visible,
        )

    def _ground_texture(self, ground_x: np.ndarray, ground_y: np.ndarray) -> np.ndarray:
        base = 0.45 + 0.06 * np.sin(ground_x * 0.9) * np.cos(ground_y * 1.1)
        base += 0.04 * np.sin(ground_x * 0.23 + ground_y * 0.31)
        return np.where(np.isnan(ground_x), 0.2, base)

    def _draw_marker(
        self,
        image: np.ndarray,
        ground_x: np.ndarray,
        ground_y: np.ndarray,
        marker: Marker,
        weather: Weather,
    ) -> bool:
        cos_y, sin_y = math.cos(-marker.yaw), math.sin(-marker.yaw)
        dx = ground_x - marker.position.x
        dy = ground_y - marker.position.y
        local_x = cos_y * dx - sin_y * dy
        local_y = sin_y * dx + cos_y * dy
        half = marker.size / 2.0
        inside = (
            (np.abs(local_x) <= half)
            & (np.abs(local_y) <= half)
            & ~np.isnan(ground_x)
        )
        if not np.any(inside):
            return False

        u = (local_x[inside] + half) / marker.size
        v = (local_y[inside] + half) / marker.size
        values = self.dictionary.sample_at(marker.marker_id, u, v)
        values = np.where(values > 0.5, 0.92, 0.08)

        if marker.occlusion > 0:
            occluded = u < marker.occlusion
            values = np.where(occluded, 0.45, values)

        image[inside] = values
        return True

    def _mask_obstacle_pixels(
        self,
        image: np.ndarray,
        world: World,
        origin: np.ndarray,
        rotation: np.ndarray,
        dirs_world: np.ndarray,
        t_ground: np.ndarray,
        ground_x: np.ndarray,
        ground_y: np.ndarray,
    ) -> np.ndarray:
        geometry = world.geometry()
        if not geometry.hazards:
            return image
        camera_height = origin[2]
        nan_ground = np.isnan(t_ground)
        if not nan_ground.any():
            ground_alt = world.ground_altitude
            hull_lo = np.array(
                [
                    min(origin[0], float(ground_x.min())),
                    min(origin[1], float(ground_y.min())),
                    min(camera_height, ground_alt),
                ]
            )
            hull_hi = np.array(
                [
                    max(origin[0], float(ground_x.max())),
                    max(origin[1], float(ground_y.max())),
                    max(camera_height, ground_alt),
                ]
            )
            indices = geometry.hull_obstacle_indices(hull_lo, hull_hi, camera_height)
        else:
            indices = np.flatnonzero(geometry.hazard_lo[:, 2] < camera_height)

        blocked = np.zeros(t_ground.shape, dtype=bool)
        for index in indices:
            lo, hi = geometry.hazard_lo[index], geometry.hazard_hi[index]
            window = _pixel_window(np.where(_BOX_CORNERS, hi, lo), origin, rotation, self.intrinsics)
            if window is None:
                continue
            t_hit = _vectorised_aabb_hit(origin, dirs_world[window], lo, hi)
            blocked[window] |= (~np.isnan(t_hit)) & (
                nan_ground[window] | (t_hit < t_ground[window])
            )
        if blocked.any():
            image = np.where(blocked, 0.3, image)
        return image

    def _apply_weather(self, image: np.ndarray, weather: Weather) -> np.ndarray:
        image = 0.5 + (image - 0.5) * weather.visibility

        if weather.glare > 0:
            h, w = image.shape
            glare_row = self._rng.uniform(0, h)
            glare_col = self._rng.uniform(0, w)
            radius = weather.glare * 0.45 * min(h, w)
            rows, cols = _glare_grid(h, w)
            distance = np.sqrt((rows - glare_row) ** 2 + (cols - glare_col) ** 2)
            glare_mask = np.clip(1.0 - distance / max(radius, 1e-6), 0.0, 1.0)
            image = image + glare_mask * weather.glare * 0.9

        if weather.image_noise > 0:
            image = image + self._rng.normal(0.0, weather.image_noise, size=image.shape)
        return image


_BOX_CORNERS = np.array(list(itertools.product((False, True), repeat=3)))

_PIXEL_GRID_CACHE: dict[CameraIntrinsics, np.ndarray] = {}
_GLARE_GRID_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _pixel_ray_grid(intr: CameraIntrinsics) -> np.ndarray:
    """Cached ``(H, W, 3)`` camera-frame ray directions for one intrinsics."""
    cached = _PIXEL_GRID_CACHE.get(intr)
    if cached is None:
        rows, cols = np.meshgrid(
            np.arange(intr.height, dtype=float),
            np.arange(intr.width, dtype=float),
            indexing="ij",
        )
        cached = np.stack(
            [
                (cols - intr.cx) / intr.focal_length,
                (rows - intr.cy) / intr.focal_length,
                -np.ones_like(rows),
            ],
            axis=-1,
        )
        cached.setflags(write=False)
        _PIXEL_GRID_CACHE[intr] = cached
    return cached


def _glare_grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _GLARE_GRID_CACHE.get((h, w))
    if cached is None:
        rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        rows.setflags(write=False)
        cols.setflags(write=False)
        cached = (rows, cols)
        _GLARE_GRID_CACHE[(h, w)] = cached
    return cached


def _vectorised_aabb_hit(
    origin: np.ndarray, directions: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Slab-test every ray in ``directions`` against the AABB ``[lo, hi]``;
    the hit distance per ray, NaN where there is no hit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / directions
        t1 = (lo - origin) * inv
        t2 = (hi - origin) * inv
    near = np.minimum(t1, t2)
    far = np.maximum(t1, t2)
    t_near = np.fmax(np.fmax(near[..., 0], near[..., 1]), near[..., 2])
    t_far = np.fmin(np.fmin(far[..., 0], far[..., 1]), far[..., 2])
    hit = (t_far >= np.maximum(t_near, 0.0))
    result = np.where(hit, np.maximum(t_near, 0.0), np.nan)
    return result
