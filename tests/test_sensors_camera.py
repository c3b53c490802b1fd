"""Tests for the synthetic downward camera."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.geometry import AABB, Pose, Quaternion, Vec3
from repro.sensors import camera as camera_module
from repro.sensors.camera import CameraIntrinsics, DownwardCamera
from repro.world.markers import Marker
from repro.world.obstacles import building
from repro.world.weather import Weather, WeatherCondition
from repro.world.world import World


def make_world(weather=None, markers=None, obstacles=None):
    return World(
        name="cam-test",
        bounds=AABB(Vec3(-60, -60, 0), Vec3(60, 60, 40)),
        obstacles=obstacles or [],
        markers=markers if markers is not None else [Marker(marker_id=7, position=Vec3.zero(), size=1.0, is_target=True)],
        weather=weather or Weather.clear(),
    )


class TestIntrinsics:
    def test_focal_length_from_fov(self):
        intr = CameraIntrinsics(width=128, height=128, fov_degrees=90.0)
        assert intr.focal_length == pytest.approx(64.0, rel=1e-6)

    def test_footprint_grows_with_altitude(self):
        intr = CameraIntrinsics()
        assert intr.ground_footprint_width(20) > intr.ground_footprint_width(10)

    def test_pixels_per_meter_decreases_with_altitude(self):
        intr = CameraIntrinsics()
        assert intr.pixels_per_meter(5) > intr.pixels_per_meter(15)


class TestRendering:
    def test_image_shape_and_range(self):
        frame = DownwardCamera().capture(make_world(), Pose.at(Vec3(0, 0, 10)))
        intr = CameraIntrinsics()
        assert frame.image.shape == (intr.height, intr.width)
        assert float(frame.image.min()) >= 0.0
        assert float(frame.image.max()) <= 1.0

    def test_marker_visible_directly_below(self):
        frame = DownwardCamera().capture(make_world(), Pose.at(Vec3(0, 0, 8)))
        assert any(m.marker_id == 7 for m in frame.visible_markers)
        # The marker introduces strong dark/bright structure near the centre.
        center = frame.image[54:74, 54:74]
        assert float(center.max() - center.min()) > 0.5

    def test_marker_not_visible_when_far_away(self):
        frame = DownwardCamera().capture(make_world(), Pose.at(Vec3(50, 50, 8)))
        assert not frame.visible_markers

    def test_fog_reduces_contrast(self):
        clear_frame = DownwardCamera(seed=1).capture(make_world(), Pose.at(Vec3(0, 0, 8)))
        fog = Weather.preset(WeatherCondition.FOG, 1.0)
        fog_frame = DownwardCamera(seed=1).capture(make_world(weather=fog), Pose.at(Vec3(0, 0, 8)))
        assert float(fog_frame.image.std()) < float(clear_frame.image.std())

    def test_glare_brightens_image(self):
        glare = Weather.preset(WeatherCondition.SUN_GLARE, 1.0)
        glare_frame = DownwardCamera(seed=2).capture(make_world(weather=glare), Pose.at(Vec3(0, 0, 8)))
        clear_frame = DownwardCamera(seed=2).capture(make_world(), Pose.at(Vec3(0, 0, 8)))
        assert float(glare_frame.image.mean()) > float(clear_frame.image.mean())

    def test_building_occludes_marker(self):
        # A tall building directly over the marker's line of sight from a
        # laterally offset camera: the rooftop should replace ground pixels.
        obstacles = [building(0, 0, 6, 6, 12, name="roof")]
        world = make_world(obstacles=obstacles, markers=[])
        frame = DownwardCamera().capture(world, Pose.at(Vec3(0, 0, 20)))
        center_value = frame.image[64, 64]
        assert center_value == pytest.approx(0.3, abs=0.15)

    def test_occluded_marker_band_rendered_gray(self):
        markers = [Marker(marker_id=7, position=Vec3.zero(), size=1.0, occlusion=0.45, is_target=True)]
        frame = DownwardCamera(seed=3).capture(make_world(markers=markers), Pose.at(Vec3(0, 0, 6)))
        assert any(m.occlusion > 0 for m in frame.visible_markers)


class TestProjection:
    def test_pixel_to_ground_center_is_below_camera(self):
        frame = DownwardCamera().capture(make_world(), Pose.at(Vec3(3, -2, 10)))
        intr = frame.intrinsics
        ground = frame.pixel_to_ground(intr.cy, intr.cx)
        assert ground.horizontal_distance_to(Vec3(3, -2, 0)) < 0.2

    def test_ground_to_pixel_round_trip(self):
        frame = DownwardCamera().capture(make_world(), Pose.at(Vec3(0, 0, 10)))
        point = Vec3(1.5, -2.0, 0.0)
        pixel = frame.ground_to_pixel(point)
        assert pixel is not None
        recovered = frame.pixel_to_ground(*pixel)
        assert recovered.horizontal_distance_to(point) < 0.2

    def test_estimated_pose_shifts_backprojection(self):
        true_pose = Pose.at(Vec3(0, 0, 10))
        shifted = Pose.at(Vec3(2, 0, 10))
        frame = DownwardCamera().capture(make_world(), true_pose, estimated_pose=shifted)
        intr = frame.intrinsics
        ground = frame.pixel_to_ground(intr.cy, intr.cx)
        assert ground.horizontal_distance_to(Vec3(2, 0, 0)) < 0.2


def whole_frame(corners, origin, rotation, intr):
    return slice(0, intr.height), slice(0, intr.width)


def corner_depths(corners, origin, rotation):
    return -((corners - origin) @ rotation)[:, 2]


def random_scene(rng):
    """A world and a camera pose that stress the pixel windows.

    Altitudes reach down to 0.05 m and tilts up to ~150 degrees, well past
    the horizon, so markers and buildings near the drone fall behind the
    image plane or straddle it.  Buildings may be taller than the camera or
    stand around it.  A level camera also gets markers with a corner on a
    pixel's own ground hit (computed with the camera's arithmetic), so some
    drawn pixels lie exactly on a window's edge.
    """
    altitude = float(np.exp(rng.uniform(math.log(0.05), math.log(25.0))))
    x, y = rng.uniform(-5.0, 5.0, size=2)
    level = rng.random() < 0.35
    if level:
        orientation = Quaternion.identity()
    else:
        roll, pitch, yaw = rng.uniform(-2.6, 2.6), rng.uniform(-1.5, 1.5), rng.uniform(-math.pi, math.pi)
        orientation = Quaternion.from_euler(roll, pitch, yaw)
    pose = Pose(Vec3(x, y, altitude), orientation)

    markers = [
        Marker(
            marker_id=int(rng.integers(50)),
            position=Vec3(x + rng.uniform(-6.0, 6.0), y + rng.uniform(-6.0, 6.0), 0.0),
            size=rng.uniform(0.3, 3.0),
            yaw=rng.uniform(-math.pi, math.pi),
            occlusion=rng.choice([0.0, rng.uniform(0.0, 0.6)]),
        )
        for _ in range(5)
    ]
    if level:
        intr = CameraIntrinsics()
        rays = camera_module._pixel_ray_planes(intr)
        for _ in range(6):
            row, col = rng.integers(1, intr.height - 1), rng.integers(1, intr.width - 1)
            ground_x = x + rays[0, row * intr.width + col] * altitude
            ground_y = y + rays[1, row * intr.width + col] * altitude
            half = rng.uniform(0.1, 1.5) * altitude / 2.0
            side_x, side_y = rng.choice([-1.0, 1.0], size=2)
            markers.append(
                Marker(
                    marker_id=int(rng.integers(50)),
                    position=Vec3(ground_x + side_x * half, ground_y + side_y * half, 0.0),
                    size=2.0 * half,
                )
            )

    obstacles = [
        building(
            x + rng.uniform(-8.0, 8.0), y + rng.uniform(-8.0, 8.0),
            rng.uniform(0.5, 6.0), rng.uniform(0.5, 6.0), rng.uniform(0.2, 2.0 * altitude + 1.0),
        )
        for _ in range(3)
    ]
    if rng.random() < 0.25:
        obstacles.append(
            building(x, y, rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), altitude + rng.uniform(0.1, 5.0))
        )
    weather = Weather.clear() if rng.random() < 0.5 else Weather.preset(WeatherCondition.RAIN, 0.5)
    return make_world(weather=weather, markers=markers, obstacles=obstacles), pose


class TestPixelWindows:
    def test_windowed_capture_matches_the_whole_frame(self):
        """Rasterising markers and slab-testing obstacles only inside their
        pixel windows gives the image and visible markers of a camera whose
        window helper always returns the whole frame."""
        seen = set()
        window = camera_module._pixel_window

        def spy(corners, origin, rotation, intr):
            depth = corner_depths(corners, origin, rotation)
            side = "behind" if (depth < 0).all() else "front" if (depth > 0).all() else "straddle"
            seen.add(("marker" if len(corners) == 4 else "box", side))
            return window(corners, origin, rotation, intr)

        for seed in range(10):
            rng = np.random.default_rng(seed)
            for scene in range(8):
                world, pose = random_scene(rng)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(camera_module, "_pixel_window", spy)
                    windowed = DownwardCamera(seed=seed).capture(world, pose)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(camera_module, "_pixel_window", whole_frame)
                    full = DownwardCamera(seed=seed).capture(world, pose)
                assert windowed.image.tobytes() == full.image.tobytes(), (seed, scene)
                assert [m.marker_id for m in windowed.visible_markers] == [
                    m.marker_id for m in full.visible_markers
                ], (seed, scene)
        assert seen == {
            (item, side) for item in ("marker", "box") for side in ("behind", "front", "straddle")
        }

    def test_window_bounds_the_projected_corners(self):
        intr = CameraIntrinsics()
        origin = np.array([0.0, 0.0, 10.0])
        rotation = Quaternion.identity().rotation_matrix()
        corners = np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]])
        rows, cols = camera_module._pixel_window(corners, origin, rotation, intr)
        reach = intr.focal_length / 10.0
        assert (rows.start, rows.stop) == (math.ceil(intr.cy - reach) - 1, math.floor(intr.cy + reach) + 2)
        assert (cols.start, cols.stop) == (math.ceil(intr.cx - reach) - 1, math.floor(intr.cx + reach) + 2)
        assert camera_module._pixel_window(corners + [50.0, 0.0, 0.0], origin, rotation, intr) is None
        assert camera_module._pixel_window(corners + [0.0, 0.0, 20.0], origin, rotation, intr) is None
        straddling = corners.copy()
        straddling[:2, 2] = 15.0  # two corners above the camera, two below
        assert camera_module._pixel_window(straddling, origin, rotation, intr) == whole_frame(
            None, None, None, intr
        )


class TestFrameBuffers:
    def test_warm_capture_allocates_one_frame(self):
        """After one warm-up capture, a capture's new allocations peak below
        two frames' bytes: its own image plus small per-item arrays, no
        full-frame temporaries.  The scene takes the costliest path: rays
        past the horizon, a building beside the camera whose corners
        straddle the image plane (its window is the whole frame), glare and
        noise.  No two frames share memory."""
        world = make_world(
            weather=Weather.preset(WeatherCondition.SUN_GLARE, 1.0),
            markers=[Marker(marker_id=7, position=Vec3(0.0, 5.0, 0.0), size=0.6, is_target=True)],
            obstacles=[building(3.0, 0.0, 4.0, 4.0, 12.0, name="tower")],
        )
        pose = Pose(Vec3(0.0, 0.0, 3.0), Quaternion.from_euler(1.2, 0.0, 0.0))
        camera = DownwardCamera(seed=5)
        blocked_pixels, windows = camera_module._blocked_pixels, []

        def spy(origin, dirs, t_ground, *rest):
            blocked = blocked_pixels(origin, dirs, t_ground, *rest)
            windows.append((t_ground.shape, bool(np.isnan(t_ground).any()), bool(blocked.any())))
            return blocked

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(camera_module, "_blocked_pixels", spy)
            frames = [camera.capture(world, pose)]
        intr = camera.intrinsics
        assert windows == [((intr.height, intr.width), True, True)]
        assert frames[0].visible_markers

        peaks = warm_capture_peaks(camera, world, pose, frames)
        assert max(peaks) < 2 * frames[0].image.nbytes, peaks
        for index, frame in enumerate(frames):
            assert frame.image.tobytes() != frames[index - 1].image.tobytes()
            for other in frames[:index]:
                assert not np.shares_memory(frame.image, other.image)

    def test_landing_capture_rasterises_in_the_work_planes(self):
        """The last capture of a landing: 0.4 m above a 1 m marker, whose
        window is the whole frame and covers every pixel.  The marker's
        coordinates and masks live in the camera's planes, so a warm
        capture's new allocations peak at its image plus the hits' cell
        indices (float and integer) and reflectances: 3.02 frames measured."""
        world = make_world(
            weather=Weather(image_noise=0.0),
            markers=[Marker(marker_id=7, position=Vec3(0.0, 0.0, 0.0), size=1.0, yaw=0.3, occlusion=0.2)],
        )
        pose = Pose(Vec3(-0.1, -0.05, 0.4), Quaternion.from_euler(0.05, -0.03, 0.4))
        camera = DownwardCamera(seed=5)
        pixel_window, windows = camera_module._pixel_window, []

        def spy(*args):
            windows.append(pixel_window(*args))
            return windows[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(camera_module, "_pixel_window", spy)
            frames = [camera.capture(world, pose)]
        intr = camera.intrinsics
        assert windows == [(slice(0, intr.height), slice(0, intr.width))]
        # Noiseless, so every pixel reads a black or a white cell's or the
        # occluded band's reflectance.
        assert np.unique(frames[0].image).size == 3

        peaks = warm_capture_peaks(camera, world, pose, frames)
        assert max(peaks) < 3.25 * frames[0].image.nbytes, peaks


def warm_capture_peaks(camera, world, pose, frames):
    """``tracemalloc`` peaks of new bytes over three more captures, appended
    to ``frames``."""
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(3):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            frames.append(camera.capture(world, pose))
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peaks
