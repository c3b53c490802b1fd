"""Synthetic downward-facing colour camera.

The camera renders a grayscale image of the ground plane beneath the drone by
back-projecting every pixel ray onto the ground and sampling the marker
patterns (plus a procedural ground texture).  Weather effects — fog contrast
loss, sun glare, sensor noise — and marker occlusion are applied in image
space, so the detectors face the same degradations the paper describes
(high-altitude low resolution, partial occlusion, glare).
"""

from __future__ import annotations

import itertools
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
        visible_markers: ground-truth list of markers with at least one
            pixel rasterised, before obstacles mask any of them (used only
            by the evaluation harness to score false negatives, never by the
            landing system itself).
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

    Each camera owns the full-frame work space its captures render in (nine
    float planes and two boolean ones, about 1.2 MB at 128x128), so a
    capture allocates one full-frame array: the image it returns.  Cameras
    share nothing mutable, and no frame aliases the work space.
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
        shape = (self.intrinsics.height, self.intrinsics.width)
        # Planes 0-2 hold the world-frame ray directions, 3 the ray length
        # to the ground and 4-8 are work planes (see ``capture``).
        self._planes = np.empty((9, *shape))
        self._masks = np.empty((2, *shape), dtype=bool)
        self._reflectances: dict[int, np.ndarray] = {}

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
        intr = self.intrinsics
        weather = world.weather
        dirs, t, work = self._planes[:3], self._planes[3], self._planes[4:]
        mask = self._masks[0]

        # Pixel rays in the camera frame (camera looks along -z of its frame,
        # which is straight down when the drone is level), turned into the
        # world frame as one (3, 3) @ (3, H*W) product.
        rotation = true_pose.orientation.rotation_matrix()
        np.matmul(rotation, _pixel_ray_planes(intr), out=dirs.reshape(3, -1))
        origin = true_pose.position.to_array()

        # Ray length to the ground, NaN for rays that never reach it; a ray
        # parallel to the ground counts as pointing down by 1e-9.
        dz = dirs[2]
        parallel = np.less(np.abs(dz, out=work[2]), 1e-9, out=mask)
        if parallel.any():
            dz = work[2]
            np.copyto(dz, dirs[2])
            np.copyto(dz, -1e-9, where=parallel)
        np.divide(world.ground_altitude - origin[2], dz, out=t)
        behind = np.less_equal(t, 0.0, out=mask)
        if behind.any():
            np.copyto(t, np.nan, where=behind)
        # The ground hits live in the first two work planes until the
        # markers are drawn.
        ground_x = np.multiply(dirs[0], t, out=work[0])
        ground_x += origin[0]
        ground_y = np.multiply(dirs[1], t, out=work[1])
        ground_y += origin[1]

        image = np.empty(t.shape)
        self._ground_texture(image, ground_x, ground_y, work[2:4], mask)

        # Each marker is rasterised only inside its pixel window: the pixels
        # whose rays can reach its ground square.
        visible: list[Marker] = []
        for marker in world.markers:
            corners = np.array([(c.x, c.y, world.ground_altitude) for c in marker.corners])
            window = _pixel_window(corners, origin, rotation, intr)
            if window is None:
                continue
            if self._draw_marker(image, window, marker):
                visible.append(marker)

        # Obstacle shadows / rooftops: pixels whose ray hits an obstacle before
        # the ground show the obstacle top instead of the marker.
        self._mask_obstacle_pixels(image, world, origin, rotation)

        self._apply_weather(image, weather, work[:2])
        np.clip(image, 0.0, 1.0, out=image)

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
    @staticmethod
    def _ground_texture(
        image: np.ndarray, ground_x: np.ndarray, ground_y: np.ndarray, work: np.ndarray, mask: np.ndarray
    ) -> None:
        """Write a cheap deterministic pseudo-texture for the ground into
        ``image``, 0.2 where a ray misses the ground; ``work`` is two planes,
        ``mask`` one boolean plane."""
        a, b = work
        np.multiply(ground_x, 0.9, out=image)
        np.sin(image, out=image)
        image *= 0.06
        image *= np.cos(np.multiply(ground_y, 1.1, out=a), out=a)
        image += 0.45
        np.multiply(ground_x, 0.23, out=a)
        a += np.multiply(ground_y, 0.31, out=b)
        image += np.multiply(np.sin(a, out=a), 0.04, out=a)
        missed = np.isnan(ground_x, out=mask)
        if missed.any():
            np.copyto(image, 0.2, where=missed)

    def _draw_marker(self, image: np.ndarray, window: tuple[slice, slice], marker: Marker) -> bool:
        """Rasterise one marker into ``image`` inside its pixel ``window``;
        returns True if any pixel hit.

        The marker-frame coordinates and the hit mask live in window views
        of work planes 2-4 and mask plane 1 (the ground hits stay in work
        planes 0 and 1), so only the per-hit arrays are allocated.
        """
        work = self._planes[4:]
        ground_x, ground_y = work[0][window], work[1][window]
        local_x, local_y, scratch = (plane[window] for plane in work[2:5])
        inside = self._masks[1][window]
        cos_y, sin_y = math.cos(-marker.yaw), math.sin(-marker.yaw)
        x0, y0 = marker.position.x, marker.position.y
        # local_x = cos·dx - sin·dy and local_y = sin·dx + cos·dy, from the
        # offsets dx, dy, which are recomputed rather than kept.
        np.multiply(np.subtract(ground_x, x0, out=local_x), cos_y, out=local_x)
        local_x -= np.multiply(np.subtract(ground_y, y0, out=scratch), sin_y, out=scratch)
        np.multiply(np.subtract(ground_x, x0, out=local_y), sin_y, out=local_y)
        local_y += np.multiply(np.subtract(ground_y, y0, out=scratch), cos_y, out=scratch)
        half = marker.size / 2.0
        # A ray that misses the ground has NaN coordinates, which no
        # comparison passes.
        np.less_equal(np.abs(local_x, out=scratch), half, out=inside)
        np.less_equal(np.abs(local_y, out=scratch), half, out=inside, where=inside)
        if not inside.any():
            return False

        # Normalised marker coordinates u, v in place of the local ones,
        # then each hit's cell of the bordered grid, as ``sample_at`` finds
        # it: truncate, then clamp to the last cell (u and v lie in [0, 1]).
        cells = self.dictionary.bits + 2
        for coordinate in (local_x, local_y):
            coordinate += half
            coordinate /= marker.size
        if marker.occlusion > 0:
            # A band across the marker is covered (shadow or debris): those
            # pixels take a mid-gray value that destroys the bit pattern.
            occluded = np.less(local_x, marker.occlusion, out=self._masks[0][window])
        for coordinate in (local_x, local_y):
            coordinate *= cells
            np.trunc(coordinate, out=coordinate)
            np.minimum(coordinate, cells - 1, out=coordinate)
        local_y *= cells
        local_y += local_x
        values = self._reflectance(marker.marker_id)[local_y[inside].astype(np.intp)]
        if marker.occlusion > 0:
            values[occluded[inside]] = 0.45
        image[window][inside] = values
        return True

    def _reflectance(self, marker_id: int) -> np.ndarray:
        """Paper/paint reflectance of each cell of a marker's bordered grid,
        row-major: 0.92 for white bits, 0.08 for black."""
        table = self._reflectances.get(marker_id)
        if table is None:
            table = np.where(self.dictionary.bordered_grid(marker_id).ravel(), 0.92, 0.08)
            self._reflectances[marker_id] = table
        return table

    def _mask_obstacle_pixels(
        self, image: np.ndarray, world: World, origin: np.ndarray, rotation: np.ndarray
    ) -> None:
        """Set to the rooftop value every pixel whose ray hits an obstacle
        before the ground.

        Obstacles are pre-culled against the hull box of the view frustum
        (camera origin plus every ground hit): when all pixel rays reach the
        ground, a blocking hit must lie on one of those segments, so any
        obstacle outside the hull cannot affect a pixel.  Each survivor gets
        the slab test inside its pixel window and writes its blocked pixels
        straight away: every blocked pixel takes the same constant and no
        test reads the image, so the order of the writes does not matter.
        """
        geometry = world.geometry()
        if not geometry.hazards:
            return
        dirs, t_ground, work = self._planes[:3], self._planes[3], self._planes[4:]
        # The ground hits, until the slab tests reuse all five work planes.
        ground_x, ground_y = work[0], work[1]
        camera_height = origin[2]
        if not np.isnan(t_ground, out=self._masks[0]).any():
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
            # Some rays never reach the ground; they can be blocked at any
            # distance, so no spatial cull is sound.
            indices = np.flatnonzero(geometry.hazard_lo[:, 2] < camera_height)

        for index in indices:
            lo, hi = geometry.hazard_lo[index], geometry.hazard_hi[index]
            window = _pixel_window(np.where(_BOX_CORNERS, hi, lo), origin, rotation, self.intrinsics)
            if window is None:
                continue
            planes = (slice(None), *window)
            blocked = _blocked_pixels(
                origin, dirs[planes], t_ground[window], lo, hi, work[planes], self._masks[planes]
            )
            # Rooftop / canopy intensity: darker than ground, no pattern.
            image[window][blocked] = 0.3

    def _apply_weather(self, image: np.ndarray, weather: Weather, work: np.ndarray) -> None:
        """Fog contrast loss, sun glare and sensor noise, in place in
        ``image``; ``work`` is two planes."""
        image -= 0.5
        image *= weather.visibility
        image += 0.5

        if weather.glare > 0:
            h, w = image.shape
            glare_row = self._rng.uniform(0, h)
            glare_col = self._rng.uniform(0, w)
            radius = weather.glare * 0.45 * min(h, w)
            # Squared row and column offsets, spread over the planes by
            # copying: a broadcasting ufunc would allocate its own buffers.
            distance, rows = work
            np.copyto(distance, (np.arange(w) - glare_col) ** 2)
            np.copyto(rows, ((np.arange(h) - glare_row) ** 2)[:, None])
            np.sqrt(np.add(rows, distance, out=distance), out=distance)
            distance /= max(radius, 1e-6)
            glare_mask = np.clip(np.subtract(1.0, distance, out=distance), 0.0, 1.0, out=distance)
            glare_mask *= weather.glare
            glare_mask *= 0.9
            image += glare_mask

        if weather.image_noise > 0:
            noise = self._rng.standard_normal(out=work[0])
            noise *= weather.image_noise
            image += noise


#: Selects ``hi`` (True) or ``lo`` per axis for each of a box's 8 corners.
_BOX_CORNERS = np.array(list(itertools.product((False, True), repeat=3)))

_PIXEL_RAY_CACHE: dict[CameraIntrinsics, np.ndarray] = {}


def _pixel_ray_planes(intr: CameraIntrinsics) -> np.ndarray:
    """Cached read-only ``(3, H*W)`` camera-frame ray directions for one
    intrinsics: the x, y and z components, each a row-major pixel plane."""
    cached = _PIXEL_RAY_CACHE.get(intr)
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
            ]
        ).reshape(3, -1)
        cached.setflags(write=False)
        _PIXEL_RAY_CACHE[intr] = cached
    return cached


def _pixel_window(
    corners: np.ndarray, origin: np.ndarray, rotation: np.ndarray, intr: CameraIntrinsics
) -> tuple[slice, slice] | None:
    """The pixels whose rays can reach the convex hull of world ``corners``.

    Projects the corners through the camera at ``origin`` with body-to-world
    ``rotation``.  ``None`` when no pixel can: every corner lies behind the
    camera (a pixel ray only reaches points at positive depth), or the
    window falls outside the image.  When every corner is in front, the
    ``(rows, cols)`` slices bound the projected corners with a 1 px margin
    for rounding, clipped to the image; otherwise they span the whole frame.
    """
    # Camera-frame corners, rotation.T @ (corner - origin) as rows; the
    # camera looks along its -z axis.
    relative = ((corners - origin) @ rotation).tolist()
    depths = [-z for _, _, z in relative]
    if all(depth < 0.0 for depth in depths):
        return None
    frame = (slice(0, intr.height), slice(0, intr.width))
    if not all(depth > 0.0 for depth in depths):
        return frame
    focal = intr.focal_length
    rows = [intr.cy + focal * (y / depth) for (_, y, _), depth in zip(relative, depths)]
    cols = [intr.cx + focal * (x / depth) for (x, _, _), depth in zip(relative, depths)]
    if not all(map(math.isfinite, rows + cols)):
        return frame
    row0 = max(0, math.ceil(min(rows)) - 1)
    row1 = min(intr.height, math.floor(max(rows)) + 2)
    col0 = max(0, math.ceil(min(cols)) - 1)
    col1 = min(intr.width, math.floor(max(cols)) + 2)
    if row0 >= row1 or col0 >= col1:
        return None
    return slice(row0, row1), slice(col0, col1)


def _blocked_pixels(
    origin: np.ndarray, dirs: np.ndarray, t_ground: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    work: np.ndarray, masks: np.ndarray,
) -> np.ndarray:
    """The pixels whose ray hits the AABB ``[lo, hi]`` before the ground.

    ``dirs`` is the window's ``(3, h, w)`` ray directions and ``t_ground``
    its ray lengths to the ground (NaN where a ray misses it).  The slab
    test runs one axis at a time in the five ``(h, w)`` planes of ``work``:
    ``fmax`` / ``fmin`` folds over the axes give the NaN-ignoring ``nanmax``
    / ``nanmin`` of the entry and exit distances.  A ray is blocked when it
    hits (its exit is no nearer than ``t0``, its entry clamped to the
    origin) and ``t0`` lies before the ground or the ray misses the ground.
    Returns a boolean ``(h, w)`` view of ``masks``; ``work[0]`` is left
    holding ``t0`` and ``work[1]`` the exit distances.
    """
    t_near, t_far, t1, t2, fold = work
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in range(3):
            inv = np.divide(1.0, dirs[axis], out=t1)
            np.multiply(inv, hi[axis] - origin[axis], out=t2)
            inv *= lo[axis] - origin[axis]
            if axis == 0:
                np.minimum(t1, t2, out=t_near)
                np.maximum(t1, t2, out=t_far)
            else:
                np.fmax(t_near, np.minimum(t1, t2, out=fold), out=t_near)
                np.fmin(t_far, np.maximum(t1, t2, out=fold), out=t_far)
    t0 = np.maximum(t_near, 0.0, out=t_near)
    blocked, before_ground = masks[0], masks[1]
    np.isnan(t_ground, out=before_ground)
    before_ground |= np.less(t0, t_ground, out=blocked)
    np.greater_equal(t_far, t0, out=blocked)
    blocked &= before_ground
    return blocked
