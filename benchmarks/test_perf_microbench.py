"""Micro-benchmarks of the hot paths (render, detect, map, plan).

These are conventional pytest-benchmark timings; they do not correspond to a
paper table but document where the simulation time goes and guard against
performance regressions.

Every bench replays recorded missions over the bench scenario.  The camera
bench re-renders one MLS-V1 mission's captures through a fresh camera with
the mission's seed, the vehicle bench re-flies that mission's autopilot
commands through a fresh autopilot, the classical and learned detection
benches re-detect the frames an MLS-V1 and an MLS-V3 mission saw, and the
map and plan benches replay the MLS-V3 mission's clouds and RRT* problems.
Each asserts that its input is not empty and that the replay reproduces the
flight (the same images, the same vehicle states, the same detections), and
records its own figure of merit (frames per second, physics steps per
second, points fused per second, RRT* iterations per second).

Besides pytest-benchmark's own terminal table, every timing lands in the
machine-readable ``BENCH_results.json`` (see ``conftest.py``; path
overridable via ``$REPRO_BENCH_RESULTS``) so the perf trajectory can be
tracked across commits without parsing pytest output.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.config import mls_v1, mls_v3
from repro.core.landing_system import LandingSystem
from repro.core.mission import run_scenario
from repro.geometry import Vec3
from repro.mapping.inflation import InflatedMap
from repro.mapping.octomap import OcTree
from repro.perception.classical import ClassicalMarkerDetector
from repro.perception.learned import LearnedMarkerDetector
from repro.perception.neural.training import load_pretrained_detector_net
from repro.planning.rrt_star import RrtStarConfig, RrtStarPlanner
from repro.sensors.camera import DownwardCamera
from repro.vehicle.autopilot import Autopilot
from repro.world.scenario_suite import build_evaluation_suite


@pytest.fixture(scope="module")
def scenario():
    return build_evaluation_suite().scenarios[0]


def _record_frames(patch, flight):
    """Record every frame the landing system detected on, with its detections,
    and the detector that made them."""
    process = LandingSystem.process_frame

    def recording_process(system, frame):
        result = process(system, frame)
        flight.detector = system.detector
        flight.frames.append((frame, result.detections))
        return result

    patch.setattr(LandingSystem, "process_frame", recording_process)


#: The autopilot commands a mission sends, recorded with their arguments.
AUTOPILOT_COMMANDS = ("arm_and_takeoff", "set_position_setpoint", "command_land", "command_return")


def _record_autopilot(patch, flight):
    """Record the autopilot's construction, then every physics step (with the
    state it returned) and every command, in flight order."""
    init, step = Autopilot.__init__, Autopilot.step

    def recording_init(autopilot, world, config=None, home=Vec3.zero(), seed=0):
        init(autopilot, world, config, home, seed)
        flight.autopilot = (world, replace(autopilot.config), home, seed)

    def recording_step(autopilot, dt):
        state = step(autopilot, dt)
        flight.vehicle.append(("step", (dt,), {}))
        flight.states.append(state)
        return state

    def recording(name, command):
        def recording_command(autopilot, *args, **kwargs):
            flight.vehicle.append((name, args, kwargs))
            return command(autopilot, *args, **kwargs)

        return recording_command

    patch.setattr(Autopilot, "__init__", recording_init)
    patch.setattr(Autopilot, "step", recording_step)
    for name in AUTOPILOT_COMMANDS:
        patch.setattr(Autopilot, name, recording(name, getattr(Autopilot, name)))


@pytest.fixture(scope="module")
def v1_flight(scenario):
    """One MLS-V1 mission over the bench scenario, recorded in flight order:
    each camera capture's arguments and frame, each frame the classical
    detector saw with the detections it made, and the autopilot's steps,
    states and commands."""
    flight = SimpleNamespace(
        captures=[], frames=[], detector=None, autopilot=None, vehicle=[], states=[]
    )
    capture = DownwardCamera.capture

    def recording_capture(camera, world, true_pose, estimated_pose=None, timestamp=0.0):
        frame = capture(camera, world, true_pose, estimated_pose, timestamp)
        flight.captures.append(((world, true_pose, estimated_pose, timestamp), frame))
        return frame

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DownwardCamera, "capture", recording_capture)
        _record_frames(patch, flight)
        _record_autopilot(patch, flight)
        run_scenario(scenario, mls_v1())
    return flight


@pytest.fixture(scope="module")
def v3_flight(scenario):
    """One MLS-V3 mission over the bench scenario, recorded in flight order:
    each frame the learned detector saw with the detections it made, the
    clouds it fused, and each RRT* problem with the number of clouds fused
    before it and the iterations the mission's planner ran on it."""
    flight = SimpleNamespace(frames=[], detector=None, clouds=[], plans=[])
    fuse, plan = LandingSystem.process_cloud, RrtStarPlanner.plan

    def recording_fuse(system, cloud, estimate):
        flight.clouds.append(cloud)
        return fuse(system, cloud, estimate)

    def recording_plan(planner, problem):
        result = plan(planner, problem)
        flight.plans.append((problem, len(flight.clouds), result.iterations))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LandingSystem, "process_cloud", recording_fuse)
        patch.setattr(RrtStarPlanner, "plan", recording_plan)
        _record_frames(patch, flight)
        run_scenario(scenario, mls_v3(), detector_network=load_pretrained_detector_net())
    return flight


def _mean_seconds(benchmark):
    """The bench's mean round time, or ``None`` when benchmarking is disabled."""
    stats = getattr(benchmark.stats, "stats", None)
    return stats.mean if stats is not None else None


def _record_frames_per_s(benchmark, bench_results, name, frames):
    seconds = _mean_seconds(benchmark)
    if seconds is not None:
        bench_results(name, frames=float(frames), seconds=seconds, frames_per_s=frames / seconds)


def test_perf_camera_render(benchmark, bench_results, scenario, v1_flight):
    """Re-render the MLS-V1 mission's captures through a fresh camera seeded
    as the mission's was."""
    captures = v1_flight.captures

    def render():
        camera = DownwardCamera(seed=scenario.seed)
        return [camera.capture(*arguments) for arguments, _ in captures]

    frames = benchmark(render)
    assert len(frames) == len(captures) > 0
    for frame, (_, flown) in zip(frames, captures):
        assert frame.image.tobytes() == flown.image.tobytes()
        assert frame.visible_markers == flown.visible_markers
    assert any(frame.visible_markers for frame in frames)
    _record_frames_per_s(benchmark, bench_results, "camera_render", len(frames))


def test_perf_vehicle_step(benchmark, bench_results, v1_flight):
    """Re-fly the MLS-V1 mission's autopilot commands through a fresh
    autopilot built with the mission's world, config, home and seed."""
    world, config, home, seed = v1_flight.autopilot

    def fly():
        autopilot = Autopilot(world, replace(config), home=home, seed=seed)
        states = []
        for name, args, kwargs in v1_flight.vehicle:
            if name == "step":
                states.append(autopilot.step(*args))
            else:
                getattr(autopilot, name)(*args, **kwargs)
        return states

    states = benchmark(fly)
    assert len(states) == len(v1_flight.states) > 0
    assert states == v1_flight.states
    seconds = _mean_seconds(benchmark)
    if seconds is not None:
        bench_results(
            "vehicle_step", steps=float(len(states)), seconds=seconds,
            steps_per_s=len(states) / seconds,
        )


def _replay_detections(benchmark, bench_results, name, flight):
    """Re-detect a mission's frames with its detector; each frame must give
    the detections it gave in flight."""
    frames = flight.frames

    def detect():
        return [flight.detector.detect(frame).detections for frame, _ in frames]

    replayed = benchmark(detect)
    flown = [detections for _, detections in frames]
    assert sum(len(detections) for detections in flown) > 0
    assert sum(len(detections) for detections in replayed) == sum(len(detections) for detections in flown)
    assert replayed == flown
    _record_frames_per_s(benchmark, bench_results, name, len(frames))


def test_perf_classical_detection(benchmark, bench_results, v1_flight):
    assert isinstance(v1_flight.detector, ClassicalMarkerDetector)
    _replay_detections(benchmark, bench_results, "classical_detection", v1_flight)


def test_perf_learned_detection(benchmark, bench_results, v3_flight):
    assert isinstance(v3_flight.detector, LearnedMarkerDetector)
    _replay_detections(benchmark, bench_results, "learned_detection", v3_flight)


def test_perf_octree_fusion(benchmark, bench_results, v3_flight):
    """Fuse the mission's clouds into a fresh octree, in flight order."""
    clouds = v3_flight.clouds
    points = sum(len(cloud) for cloud in clouds)

    def fuse():
        tree = OcTree()
        for cloud in clouds:
            tree.integrate_cloud(cloud)
        return tree

    tree = benchmark(fuse)
    assert points > 0
    assert tree.occupied_voxel_count() > 0
    seconds = _mean_seconds(benchmark)
    if seconds is not None:
        bench_results(
            "octree_fusion", points=float(points), seconds=seconds,
            points_fused_per_s=points / seconds,
        )


def test_perf_rrt_star_plan(benchmark, bench_results, v3_flight):
    """Re-plan the mission's last RRT* problem over the map it had then."""
    problem, fused, _ = next(plan for plan in reversed(v3_flight.plans) if plan[2] > 0)
    tree = OcTree()
    for cloud in v3_flight.clouds[:fused]:
        tree.integrate_cloud(cloud)
    assert tree.occupied_voxel_count() > 0
    planner = RrtStarPlanner(InflatedMap(tree), RrtStarConfig(seed=1))
    result = benchmark(planner.plan, problem)
    assert result.iterations > 0
    seconds = _mean_seconds(benchmark)
    if seconds is not None:
        bench_results(
            "rrt_star_plan", iterations=float(result.iterations), seconds=seconds,
            iterations_per_s=result.iterations / seconds,
        )
