"""The camera's capture against the path it replaced.

``reference_camera`` keeps the capture as it was before it rendered in
reused full-frame buffers: the stacked ``(H, W, 3)`` ray matmul, the
``np.where`` ground hit and texture, the ``(h, w, 3)`` slab test and the
out-of-place weather.  Every scene must give the same image bytes and the
same ``visible_markers`` from both, over random scenes and weathers, over
poses whose rays run parallel to the ground, and over four recorded
missions (clear, rain, fog, glare).  The slab test itself must leave the
same entry-distance bits as the reference's ``_vectorised_aabb_hit``.
"""

import dataclasses
import math

import numpy as np
import pytest
import reference_camera as reference
from hypothesis import given, settings, strategies as st
from test_sensors_camera import make_world, random_scene

from repro.core.config import mls_v1
from repro.core.mission import run_scenario
from repro.geometry import Pose, Quaternion, Vec3
from repro.sensors import camera as camera_module
from repro.sensors.camera import CameraIntrinsics, DownwardCamera
from repro.world.markers import Marker
from repro.world.obstacles import building
from repro.world.scenario_gen import generate_suite
from repro.world.weather import Weather, WeatherCondition

INTRINSICS = CameraIntrinsics()


def assert_same_captures(scenes, seed: int) -> None:
    """Render ``(world, pose)`` scenes in order through one camera and one
    reference camera seeded alike; each frame must match, so stale bytes
    in a reused buffer would show."""
    camera, expected = DownwardCamera(seed=seed), reference.ReferenceCamera(seed=seed)
    frames = []
    for world, pose in scenes:
        got, want = camera.capture(world, pose), expected.capture(world, pose)
        assert got.image.dtype == want.image.dtype and got.image.shape == want.image.shape
        assert got.image.tobytes() == want.image.tobytes()
        assert got.visible_markers == want.visible_markers
        frames.append(got)
    for first, second in zip(frames, frames[1:]):
        assert not np.shares_memory(first.image, second.image)


def branches_taken(world, pose) -> set[str]:
    """The guarded branches of ``capture`` a scene takes, from the
    reference's ray arithmetic and the world's weather and obstacles."""
    dirs = reference._pixel_ray_grid(INTRINSICS) @ pose.orientation.rotation_matrix().T
    dz = dirs[..., 2]
    parallel = np.abs(dz) < 1e-9
    t = (world.ground_altitude - pose.position.z) / np.where(parallel, -1e-9, dz)
    misses = bool((t <= 0).any())
    weather = world.weather
    taken = {
        "parallel ray" if parallel.any() else "no parallel ray",
        "ray misses the ground" if misses else "every ray hits the ground",
        "fog" if weather.visibility < 1.0 else "full visibility",
        "glare" if weather.glare > 0 else "no glare",
        "noise" if weather.image_noise > 0 else "no noise",
    }
    if world.geometry().hazards:
        taken.add("obstacles, no cull" if misses else "obstacles, hull cull")
    return taken


def parallel_ray_pose(row: int, roll_sign: float, altitude: float = 6.0) -> Pose:
    """A camera rolled so that pixel ``row``'s rays run (nearly) parallel to
    the ground: ``|dz| < 1e-9`` along that row."""
    y = (row - INTRINSICS.cy) / INTRINSICS.focal_length
    roll = math.atan2(1.0, y) if roll_sign > 0 else -math.atan2(1.0, -y)
    return Pose(Vec3(0.5, -0.5, altitude), Quaternion.from_euler(roll, 0.0, 0.0))


def special_scenes():
    """Poses whose rays run parallel to the ground (some with ``dz`` exactly
    0), over markers and around buildings, in clear, foggy, glaring and
    noiseless weather."""
    markers = [
        Marker(marker_id=7, position=Vec3(0.0, 0.0, 0.0), size=1.0, is_target=True),
        Marker(marker_id=3, position=Vec3(0.0, 9.0, 0.0), size=2.0, yaw=0.4),
        Marker(marker_id=11, position=Vec3(0.0, -9.0, 0.0), size=2.0, occlusion=0.3),
    ]
    obstacles = [building(0.5, 12.0, 4.0, 4.0, 8.0), building(0.5, -12.0, 4.0, 4.0, 3.0)]
    weathers = [
        Weather.clear(),
        Weather.preset(WeatherCondition.FOG, 1.0),
        Weather.preset(WeatherCondition.SUN_GLARE, 1.0),
        Weather(image_noise=0.0),
    ]
    rows, roll_signs = (0, 10, 40, 63, 100, 127), (-1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
    for row, roll_sign, weather in zip(rows, roll_signs, weathers * 2):
        world = make_world(weather=weather, markers=markers, obstacles=obstacles)
        yield world, parallel_ray_pose(row, roll_sign)


weathers = st.sampled_from(
    [
        Weather.clear(),
        Weather.preset(WeatherCondition.RAIN, 0.5),
        Weather.preset(WeatherCondition.FOG, 1.0),
        Weather.preset(WeatherCondition.SUN_GLARE, 1.0),
        Weather(image_noise=0.0),
        Weather(glare=0.3, image_noise=0.0),
    ]
) | st.builds(
    Weather,
    visibility=st.floats(0.05, 1.0),
    glare=st.just(0.0) | st.floats(0.0, 1.0),
    image_noise=st.just(0.0) | st.floats(0.0, 0.2),
)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scene_weathers=st.lists(weathers, min_size=1, max_size=3),
    camera_seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_random_scenes_in_random_weather(seed, scene_weathers, camera_seed):
    rng = np.random.default_rng(seed)
    scenes = []
    for weather in scene_weathers:
        world, pose = random_scene(rng)
        scenes.append((dataclasses.replace(world, weather=weather), pose))
    assert_same_captures(scenes, camera_seed)


def test_every_guarded_branch_matches_the_reference():
    """A fixed sweep of random scenes, with each scene's weather swapped for
    fog, glare and a noiseless sky, plus the parallel-ray poses; together
    they take every guarded branch of the capture."""
    seen = set()
    variants = [
        None,
        Weather.preset(WeatherCondition.FOG, 1.0),
        Weather.preset(WeatherCondition.SUN_GLARE, 1.0),
        Weather(image_noise=0.0),
    ]
    for seed in range(6):
        rng = np.random.default_rng(1000 + seed)
        scenes = []
        for scene in range(8):
            world, pose = random_scene(rng)
            weather = variants[scene % len(variants)]
            if weather is not None:
                world = dataclasses.replace(world, weather=weather)
            scenes.append((world, pose))
        assert_same_captures(scenes, seed)
        for world, pose in scenes:
            seen |= branches_taken(world, pose)
    scenes = list(special_scenes())
    assert_same_captures(scenes, 99)
    for world, pose in scenes:
        seen |= branches_taken(world, pose)
    assert seen == {
        "parallel ray", "no parallel ray", "ray misses the ground", "every ray hits the ground",
        "fog", "full visibility", "glare", "no glare", "noise", "no noise",
        "obstacles, no cull", "obstacles, hull cull",
    }


# --------------------------------------------------------------------- #
# the slab test
# --------------------------------------------------------------------- #
#: Box faces and their neighbours, so an origin can sit on a face or an edge.
coordinates = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]) | st.floats(-3.0, 3.0)
#: Ray components with both zeros, so ``1 / d`` is an infinity and a face
#: on the origin gives ``0 * inf = NaN``; no others so small that a slab
#: distance overflows.
components = (
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0])
    | st.floats(1e-12, 2.0)
    | st.floats(-2.0, -1e-12)
)


@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_slab_test_matches_the_reference(rows, cols, data):
    """The per-axis slab test in reused planes against the ``(h, w, 3)``
    reference, with origins on box faces and edges and zero ray components:
    the clamped entry distance ``t0`` of every hit ray has the same bits,
    and the block rule gives the same pixels for ground distances equal to
    ``t0``, NaN or anything else."""
    n = rows * cols
    lo = np.array(data.draw(st.lists(coordinates, min_size=3, max_size=3)))
    sizes = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 3.0)
    hi = lo + np.array(data.draw(st.lists(sizes, min_size=3, max_size=3)))
    origin = np.array([data.draw(st.sampled_from([lo[axis], hi[axis]]) | coordinates) for axis in range(3)])
    dirs = np.array(data.draw(st.lists(components, min_size=3 * n, max_size=3 * n))).reshape(3, rows, cols)

    t_hit = reference._vectorised_aabb_hit(origin, np.moveaxis(dirs, 0, -1), lo, hi)
    kinds = np.array(data.draw(st.lists(st.sampled_from(["t0", "nan", "other"]), min_size=n, max_size=n)))
    other = np.array(data.draw(st.lists(st.floats(-1.0, 10.0), min_size=n, max_size=n)))
    t_ground = np.where(kinds == "nan", np.nan, np.where(kinds == "t0", t_hit.ravel(), other))
    t_ground = t_ground.reshape(rows, cols)

    work = np.full((5, rows, cols), 7.0)
    masks = np.zeros((2, rows, cols), dtype=bool)
    blocked = camera_module._blocked_pixels(origin, dirs, t_ground, lo, hi, work, masks)
    t0, t_far = work[0], work[1]
    assert np.where(t_far >= t0, t0, np.nan).tobytes() == t_hit.tobytes()
    want = (~np.isnan(t_hit)) & (np.isnan(t_ground) | (t_hit < t_ground))
    assert blocked.dtype == bool and np.array_equal(blocked, want)


def test_slab_test_ignores_an_axis_that_reads_nan():
    """Rays lying in a face's plane: ``(lo - origin) * (1 / 0)`` is
    ``0 * inf``, NaN on that axis, and the NaN-ignoring folds leave the hit
    to the other two axes.  The first ray's ground lies beyond the box's
    entry, the second's exactly on it, which does not block."""
    lo, hi = np.array([0.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0])
    origin = np.array([0.0, 0.0, 3.0])
    dirs = np.array([[[0.0, -0.0]], [[0.1, -0.2]], [[-1.0, -1.0]]])
    t_ground = np.array([[3.0, 2.0]])
    t_hit = reference._vectorised_aabb_hit(origin, np.moveaxis(dirs, 0, -1), lo, hi)
    work = np.empty((5, 1, 2))
    blocked = camera_module._blocked_pixels(
        origin, dirs, t_ground, lo, hi, work, np.empty((2, 1, 2), dtype=bool)
    )
    assert t_hit.tolist() == work[0].tolist() == [[2.0, 2.0]]
    assert blocked.tolist() == [[True, False]]


# --------------------------------------------------------------------- #
# recorded missions
# --------------------------------------------------------------------- #
FLOWN_WEATHER = {WeatherCondition.CLEAR, WeatherCondition.RAIN, WeatherCondition.FOG, WeatherCondition.SUN_GLARE}


@pytest.fixture(scope="module")
def weather_missions():
    """One MLS-V1 mission in each of clear, rain, fog and glare weather,
    recorded as the camera's seed, then every capture's arguments and
    frame, in flight order."""
    scenarios = generate_suite("smoke", count=8, seed=7).scenarios
    flights = {}
    init, capture = DownwardCamera.__init__, DownwardCamera.capture

    def recording_init(camera, intrinsics=None, dictionary=None, seed=0):
        init(camera, intrinsics, dictionary, seed)
        flight["seed"] = seed

    def recording_capture(camera, world, true_pose, estimated_pose=None, timestamp=0.0):
        frame = capture(camera, world, true_pose, estimated_pose, timestamp)
        flight["captures"].append(((world, true_pose, estimated_pose, timestamp), frame))
        return frame

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DownwardCamera, "__init__", recording_init)
        patch.setattr(DownwardCamera, "capture", recording_capture)
        for scenario in scenarios:
            condition = scenario.weather.condition
            if condition in flights or condition not in FLOWN_WEATHER:
                continue
            flight = flights[condition] = {"captures": []}
            run_scenario(scenario, mls_v1())
    return flights


def test_recorded_missions_replay_through_the_reference(weather_missions):
    assert set(weather_missions) == FLOWN_WEATHER
    for condition, flight in weather_missions.items():
        captures = flight["captures"]
        assert len(captures) > 100, condition
        assert any(frame.visible_markers for _, frame in captures), condition
        camera = reference.ReferenceCamera(seed=flight["seed"])
        for arguments, flown in captures:
            replayed = camera.capture(*arguments)
            assert replayed.image.tobytes() == flown.image.tobytes(), condition
            assert replayed.visible_markers == flown.visible_markers, condition
