"""Synthetic downward-facing colour camera.

The camera renders a grayscale image of the ground plane beneath the drone by
back-projecting every pixel ray onto the ground and sampling the marker
patterns (plus a procedural ground texture).  Weather effects — fog contrast
loss, sun glare, sensor noise — and marker occlusion are applied in image
space, so the detectors face the same degradations the paper describes
(high-altitude low resolution, partial occlusion, glare).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry import Pose, Vec3
from repro.perception.aruco import ArucoDictionary, default_dictionary
from repro.world.markers import Marker
from repro.world.weather import Weather
from repro.world.world import World


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics of the downward camera."""

    width: int = 128
    height: int = 128
    fov_degrees: float = 60.0

    @property
    def focal_length(self) -> float:
        """Focal length in pixels derived from the horizontal field of view."""
        return (self.width / 2.0) / math.tan(math.radians(self.fov_degrees) / 2.0)

    @property
    def cx(self) -> float:
        return (self.width - 1) / 2.0

    @property
    def cy(self) -> float:
        return (self.height - 1) / 2.0

    def ground_footprint_width(self, altitude: float) -> float:
        """Width (m) of the ground area seen from ``altitude`` when level."""
        return 2.0 * altitude * math.tan(math.radians(self.fov_degrees) / 2.0)

    def pixels_per_meter(self, altitude: float) -> float:
        """Approximate image resolution of the ground at ``altitude``."""
        footprint = self.ground_footprint_width(max(altitude, 1e-3))
        return self.width / footprint


@dataclass
class CameraFrame:
    """A rendered camera frame plus the metadata detectors need.

    Attributes:
        image: ``(height, width)`` grayscale image in [0, 1].
        camera_pose: the *estimated* pose used for back-projection of
            detections into world coordinates (the true pose is used for
            rendering, the estimated pose for interpretation — exactly the
            information asymmetry the real system has).
        intrinsics: the camera model.
        timestamp: simulation time of capture.
        visible_markers: ground-truth list of markers whose centres fall in
            the field of view (used only by the evaluation harness to score
            false negatives, never by the landing system itself).
    """

    image: np.ndarray
    camera_pose: Pose
    intrinsics: CameraIntrinsics
    timestamp: float
    visible_markers: list[Marker] = field(default_factory=list)

    def pixel_to_ground(self, row: float, col: float) -> Vec3:
        """Back-project a pixel onto the ground plane using ``camera_pose``."""
        intr = self.intrinsics
        direction_cam = Vec3(
            (col - intr.cx) / intr.focal_length,
            (row - intr.cy) / intr.focal_length,
            -1.0,
        )
        direction_world = self.camera_pose.orientation.rotate(direction_cam)
        origin = self.camera_pose.position
        if direction_world.z >= -1e-6:
            # Degenerate: camera not looking down at all; project straight down.
            return origin.with_z(0.0)
        t = -origin.z / direction_world.z
        hit = origin + direction_world * t
        return hit.with_z(0.0)

    def ground_to_pixel(self, point: Vec3) -> tuple[float, float] | None:
        """Project a ground point into the image; ``None`` if behind the camera."""
        intr = self.intrinsics
        relative = self.camera_pose.inverse_transform_point(point)
        if relative.z >= -1e-6:
            return None
        col = intr.cx + intr.focal_length * (relative.x / -relative.z)
        row = intr.cy + intr.focal_length * (relative.y / -relative.z)
        return row, col


class DownwardCamera:
    """Renders synthetic downward images of the world.

    Args:
        intrinsics: camera model; the default 128x128 / 60 degree camera gives
            roughly 2 pixels per marker cell at 8 m altitude — the regime
            where the classical detector starts to struggle — and comfortable
            resolution below 5 m.
        dictionary: the fiducial dictionary to render markers from.
        seed: seed for the per-frame noise.
    """

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

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def capture(
        self,
        world: World,
        true_pose: Pose,
        estimated_pose: Pose | None = None,
        timestamp: float = 0.0,
    ) -> CameraFrame:
        """Render a frame from the drone's true pose.

        Args:
            world: the simulated world (markers, weather).
            true_pose: ground-truth camera pose used for rendering.
            estimated_pose: the state estimator's pose, attached to the frame
                for back-projection; defaults to the true pose.
            timestamp: simulation time.
        """
        self._frame_count += 1
        intr = self.intrinsics
        weather = world.weather

        # Pixel rays in the camera frame (camera looks along -z of its frame,
        # which is straight down when the drone is level); invariant per
        # intrinsics, so computed once and cached process-wide.
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

        # Analytic footprint bound for marker culling: every ground hit lies
        # within altitude * tan(tilt + corner FOV) of the nadir point, so
        # markers entirely beyond that radius rasterise zero pixels and the
        # per-pixel containment test can be skipped outright.
        reach = None
        altitude = origin[2] - world.ground_altitude
        if altitude > 0.0:
            cos_tilt = min(1.0, max(-1.0, float(rotation[2][2])))
            view_cone = math.acos(cos_tilt) + self.max_view_angle()
            if view_cone < _MAX_CULL_VIEW_CONE:
                reach = altitude * math.tan(view_cone)

        visible: list[Marker] = []
        for marker in world.markers:
            if reach is not None:
                dx = marker.position.x - origin[0]
                dy = marker.position.y - origin[1]
                footprint = (marker.size / 2.0) * math.sqrt(2.0) + _CULL_MARGIN
                if dx * dx + dy * dy > (reach + footprint) ** 2:
                    continue
            drawn = self._draw_marker(image, ground_x, ground_y, marker, weather)
            if drawn:
                visible.append(marker)

        # Obstacle shadows / rooftops: pixels whose ray hits an obstacle before
        # the ground show the obstacle top instead of the marker.
        image = self._mask_obstacle_pixels(
            image, world, origin, dirs_world, t, ground_x, ground_y
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

    # ------------------------------------------------------------------ #
    # internal rendering helpers
    # ------------------------------------------------------------------ #
    def _ground_texture(self, ground_x: np.ndarray, ground_y: np.ndarray) -> np.ndarray:
        """A cheap deterministic pseudo-texture for the ground."""
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
        """Rasterise one marker into the image; returns True if any pixel hit."""
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
        # Map bits to realistic paper/paint reflectances.
        values = np.where(values > 0.5, 0.92, 0.08)

        if marker.occlusion > 0:
            # A band across the marker is covered (shadow or debris): those
            # pixels take a mid-gray value that destroys the bit pattern.
            occluded = u < marker.occlusion
            values = np.where(occluded, 0.45, values)

        image[inside] = values
        return True

    def _mask_obstacle_pixels(
        self,
        image: np.ndarray,
        world: World,
        origin: np.ndarray,
        dirs_world: np.ndarray,
        t_ground: np.ndarray,
        ground_x: np.ndarray,
        ground_y: np.ndarray,
    ) -> np.ndarray:
        """Replace pixels whose ray hits an obstacle before the ground.

        Obstacles are pre-culled against the hull box of the view frustum
        (camera origin plus every ground hit): when all pixel rays reach the
        ground, a blocking hit must lie on one of those segments, so any
        obstacle outside the hull cannot affect a pixel.  Survivors get the
        vectorised slab test; all block masks are OR-combined and applied in
        one pass, which matches the sequential per-obstacle writes exactly
        (every blocked pixel takes the same constant).
        """
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
            candidates = [geometry.hazards[i] for i in indices]
        else:
            # Some rays never reach the ground; they can be blocked at any
            # distance, so no spatial cull is sound.
            candidates = [
                o for o in geometry.hazards if o.bounds.minimum.z < camera_height
            ]

        blocked = None
        for obstacle in candidates:
            t_hit = _vectorised_aabb_hit(origin, dirs_world, obstacle.bounds)
            blocks = (~np.isnan(t_hit)) & (nan_ground | (t_hit < t_ground))
            blocked = blocks if blocked is None else (blocked | blocks)
        if blocked is not None and blocked.any():
            # Rooftop / canopy intensity: darker than ground, no pattern.
            image = np.where(blocked, 0.3, image)
        return image

    def _apply_weather(self, image: np.ndarray, weather: Weather) -> np.ndarray:
        """Fog contrast loss, sun glare and sensor noise."""
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

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def max_view_angle(self) -> float:
        """Largest angle (rad) between any pixel ray and the optical axis."""
        intr = self.intrinsics
        corner = math.sqrt(intr.cx**2 + intr.cy**2) / intr.focal_length
        return math.atan(corner)


#: Widest view cone (tilt + corner FOV, radians) the render-time marker cull
#: reasons about; beyond this the footprint bound approaches the horizon and
#: every marker is rasterised normally.
_MAX_CULL_VIEW_CONE = math.radians(85.0)
#: Slack (m) added to the cull radius; dwarfs any float rounding in the bound.
_CULL_MARGIN = 0.25

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
    """Cached integer meshgrid used by the glare falloff."""
    cached = _GLARE_GRID_CACHE.get((h, w))
    if cached is None:
        rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        rows.setflags(write=False)
        cols.setflags(write=False)
        cached = (rows, cols)
        _GLARE_GRID_CACHE[(h, w)] = cached
    return cached


def _vectorised_aabb_hit(
    origin: np.ndarray, directions: np.ndarray, box
) -> np.ndarray:
    """Slab-test every ray in ``directions`` against one AABB.

    Returns the hit distance per ray, NaN where there is no hit.  ``fmax`` /
    ``fmin`` chains give the same NaN-ignoring fold as ``nanmax`` / ``nanmin``
    along the axis at a fraction of the cost.
    """
    lo = np.array([box.minimum.x, box.minimum.y, box.minimum.z])
    hi = np.array([box.maximum.x, box.maximum.y, box.maximum.z])
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
