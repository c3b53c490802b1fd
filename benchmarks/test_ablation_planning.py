"""Ablation (§III.C): bounded local A* vs RRT* as obstacle size grows."""

from repro.geometry import Vec3
from repro.mapping.inflation import InflatedMap, InflationConfig
from repro.mapping.octomap import OcTree
from repro.mapping.voxel_grid import VoxelGrid, VoxelGridConfig
from repro.planning.ego_planner import EgoLocalPlanner, EgoPlannerConfig
from repro.planning.rrt_star import RrtStarConfig, RrtStarPlanner
from repro.planning.types import PlanningProblem
from repro.sensors.depth import PointCloud


def wall_points(half_width, height):
    return [
        Vec3(10, 0.5 * y, 0.5 * z)
        for y in range(-2 * half_width, 2 * half_width + 1)
        for z in range(2, 2 * height)
    ]


def run_pair(half_width, height):
    points = wall_points(half_width, height)
    # The altitude band reflects the mission's cruise envelope: the local
    # planner cannot simply climb over a building taller than the band.
    max_altitude = 40 if height <= 6 else 10
    problem = PlanningProblem(
        start=Vec3(0, 0, 6), goal=Vec3(20, 0, 6), time_budget=3.0, max_altitude=max_altitude
    )

    grid = VoxelGrid(VoxelGridConfig(window_size=30.0, resolution=1.0))
    grid.integrate_cloud(PointCloud(points=points, sensor_position=Vec3.zero()))
    ego = EgoLocalPlanner(InflatedMap(grid), EgoPlannerConfig(max_expansions=250))
    ego_result = ego.plan(problem)
    ego_safe = ego_result.succeeded and ego.path_is_safe(ego_result.waypoints)

    tree = OcTree()
    for point in points:
        for _ in range(2):
            tree.update_voxel(point, hit=True)
    inflated = InflatedMap(tree, InflationConfig())
    rrt = RrtStarPlanner(inflated, RrtStarConfig(seed=3, max_iterations=1200, sample_margin=14.0))
    rrt_result = rrt.plan(problem)
    rrt_safe = rrt_result.succeeded and not inflated.path_colliding(rrt_result.waypoints)
    return ego_safe, rrt_safe


def test_ablation_planner_success_vs_obstacle_size(benchmark):
    """RRT* keeps finding safe paths as the obstacle grows; the bounded local A* stops."""
    small = run_pair(half_width=3, height=5)
    large = benchmark(run_pair, 12, 14)
    print(
        "\nPlanning ablation (safe path found):"
        f"\n  small obstacle : local A* {small[0]}, RRT* {small[1]}"
        f"\n  large building : local A* {large[0]}, RRT* {large[1]}"
    )
    assert small[1] and large[1]          # RRT* handles both
    assert not large[0]                   # the bounded local planner fails on the large one
