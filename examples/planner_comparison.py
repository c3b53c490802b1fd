"""Compare path planners: one-shot geometry demo + an ablation-grid campaign.

Part 1 reproduces the planner failure modes of Fig. 5a / Fig. 6 on a single
map: a large building between the drone and its goal, planned with the MLS-V2
local planner (bounded A* over a sliding dense grid) and the MLS-V3 planner
(RRT* over a global octree), showing the local planner's straight-line
fallback and the RRT* detour.

Part 2 holds the detector fixed (OpenCV) and sweeps the planner axis of the
component grid with the fluent :class:`repro.Campaign` API — the composition
surface the paper's three generations are single points of.  The mapper is
chosen per planner via the registry's compatibility declarations.

Run with:  python examples/planner_comparison.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import REGISTRY, Campaign, LandingSystemConfig
from repro.geometry import Vec3
from repro.mapping.inflation import InflatedMap
from repro.mapping.octomap import OcTree
from repro.mapping.voxel_grid import VoxelGrid, VoxelGridConfig
from repro.planning.ego_planner import EgoLocalPlanner, EgoPlannerConfig
from repro.planning.rrt_star import RrtStarConfig, RrtStarPlanner
from repro.planning.types import PlanningProblem
from repro.sensors.depth import PointCloud


def building_wall() -> list[Vec3]:
    """Observed surface points of a 20 m wide, 14 m tall building face."""
    return [
        Vec3(10, 0.5 * y, 0.5 * z)
        for y in range(-20, 21)
        for z in range(2, 28)
    ]


def geometry_demo() -> None:
    points = building_wall()
    problem = PlanningProblem(start=Vec3(0, 0, 6), goal=Vec3(20, 0, 6), time_budget=3.0, max_altitude=30)

    # MLS-V2: bounded local A* over the dense sliding window.
    grid = VoxelGrid(VoxelGridConfig(window_size=30.0, resolution=1.0))
    grid.integrate_cloud(PointCloud(points=points, sensor_position=Vec3.zero()))
    ego = EgoLocalPlanner(InflatedMap(grid), EgoPlannerConfig(max_expansions=400))
    ego_result = ego.plan(problem)
    print("MLS-V2 local planner (EGO-style bounded A*):")
    print(f"  waypoints: {len(ego_result.waypoints)}, fallback used: {ego.last_fallback_used}")
    print(f"  path safe against its own map: {ego.path_is_safe(ego_result.waypoints)}")

    # MLS-V3: RRT* over the global octree.
    tree = OcTree()
    for point in points:
        tree.update_voxel(point, hit=True)
        tree.update_voxel(point, hit=True)
    inflated = InflatedMap(tree)
    rrt = RrtStarPlanner(inflated, RrtStarConfig(seed=2, max_iterations=900))
    rrt_result = rrt.plan(problem)
    print("\nMLS-V3 planner (RRT* over OctoMap):")
    print(f"  succeeded: {rrt_result.succeeded}, waypoints: {len(rrt_result.waypoints)}, "
          f"cost: {rrt_result.cost:.1f} m")
    print(f"  path safe: {not inflated.path_colliding(rrt_result.waypoints)}")
    if rrt_result.succeeded:
        print("  detour waypoints:")
        for waypoint in rrt_result.waypoints:
            print(f"    ({waypoint.x:6.1f}, {waypoint.y:6.1f}, {waypoint.z:5.1f})")


def planner_axis_campaign() -> None:
    """Sweep the planner axis of the ablation grid in end-to-end missions."""
    systems = []
    for planner in REGISTRY.keys("planner"):
        # Pick the cheapest registered mapper satisfying the planner's needs.
        mapper = next(
            m for m in ("none", "dense-grid", "octomap")
            if REGISTRY.is_valid_combination(m, planner)
        )
        systems.append(
            LandingSystemConfig.custom(
                detector="opencv", mapper=mapper, planner=planner,
                name=f"opencv+{mapper}+{planner}",
            )
        )

    print("\nPlanner-axis campaign (detector fixed to OpenCV):")
    results = (
        Campaign(*systems)
        .scenarios(2)
        .repetitions(1)
        .parallel()
        .progress(lambda line: print("  " + line))
        .run()
    )
    print(f"\n{'system':<38} {'success':>8} {'collisions':>11}")
    for name, campaign in results.items():
        print(f"{name:<38} {100 * campaign.success_rate:>7.0f}% "
              f"{100 * campaign.collision_failure_rate:>10.0f}%")


def main() -> None:
    geometry_demo()
    planner_axis_campaign()


if __name__ == "__main__":
    main()