"""Micro-benchmarks of the hot paths (render, detect, map, plan).

These are conventional pytest-benchmark timings; they do not correspond to a
paper table but document where the simulation time goes and guard against
performance regressions.

The map and plan benches replay one MLS-V3 mission: the clouds it fused
and the RRT* problems it posed.  Each asserts that its input is not empty,
and records its own figure of merit (points fused per second, RRT*
iterations per second).

Besides pytest-benchmark's own terminal table, every timing lands in the
machine-readable ``BENCH_results.json`` (see ``conftest.py``; path
overridable via ``$REPRO_BENCH_RESULTS``) so the perf trajectory can be
tracked across commits without parsing pytest output.
"""

from types import SimpleNamespace

import pytest

from repro.core.config import mls_v3
from repro.core.landing_system import LandingSystem
from repro.core.mission import run_scenario
from repro.geometry import Pose
from repro.mapping.inflation import InflatedMap
from repro.mapping.octomap import OcTree
from repro.perception.classical import ClassicalMarkerDetector
from repro.perception.learned import LearnedMarkerDetector
from repro.perception.neural.training import load_pretrained_detector_net
from repro.planning.rrt_star import RrtStarConfig, RrtStarPlanner
from repro.sensors.camera import DownwardCamera
from repro.world.scenario_suite import build_evaluation_suite


@pytest.fixture(scope="module")
def scenario_world():
    suite = build_evaluation_suite()
    scenario = suite.scenarios[0]
    return scenario, scenario.build_world()


@pytest.fixture(scope="module")
def marker_frame(scenario_world):
    scenario, world = scenario_world
    camera = DownwardCamera(seed=1)
    return camera.capture(world, Pose.at(scenario.marker_position.with_z(6.0)))


@pytest.fixture(scope="module")
def v3_flight(scenario_world):
    """One MLS-V3 mission over the bench scenario, recorded in flight order:
    the clouds it fused, and each RRT* problem with the number of clouds
    fused before it and the iterations the mission's planner ran on it."""
    scenario, _ = scenario_world
    flight = SimpleNamespace(clouds=[], plans=[])
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
        run_scenario(scenario, mls_v3(), detector_network=load_pretrained_detector_net())
    return flight


def _mean_seconds(benchmark):
    """The bench's mean round time, or ``None`` when benchmarking is disabled."""
    stats = getattr(benchmark.stats, "stats", None)
    return stats.mean if stats is not None else None


def test_perf_camera_render(benchmark, scenario_world):
    scenario, world = scenario_world
    camera = DownwardCamera(seed=2)
    pose = Pose.at(scenario.marker_position.with_z(8.0))
    frame = benchmark(camera.capture, world, pose)
    assert frame.image.shape == (128, 128)


def test_perf_classical_detection(benchmark, marker_frame):
    detector = ClassicalMarkerDetector()
    result = benchmark(detector.detect, marker_frame)
    assert result is not None


def test_perf_learned_detection(benchmark, marker_frame):
    detector = LearnedMarkerDetector(network=load_pretrained_detector_net())
    result = benchmark(detector.detect, marker_frame)
    assert result is not None


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
