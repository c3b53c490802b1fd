"""Fig. 5 / Fig. 6: the qualitative failure modes reported in §V.

Each bench reproduces one of the paper's observed issues mechanistically:
(a) the bounded local A* failing (and falling back to a straight line) at a
large building, (b) sharp RRT* corners that the trajectory follower cuts,
(c) erroneous point clouds under state-estimation error, and (d) GPS drift in
poor weather while DOP stays in band.
"""

import math

from repro.geometry import Pose, Vec3
from repro.mapping.inflation import InflatedMap, InflationConfig
from repro.mapping.octomap import OcTree
from repro.mapping.voxel_grid import VoxelGrid, VoxelGridConfig
from repro.planning.ego_planner import EgoLocalPlanner, EgoPlannerConfig
from repro.planning.rrt_star import RrtStarConfig, RrtStarPlanner
from repro.planning.trajectory import Trajectory
from repro.planning.types import PlanningProblem
from repro.realworld.gps_drift import characterise_gps_drift
from repro.realworld.sensor_faults import characterise_point_cloud_faults
from repro.sensors.depth import PointCloud
from repro.world.map_generator import generate_map, MapStyle
from repro.world.weather import Weather, WeatherCondition


def _building_wall_points(width=20, height=24):
    return [
        Vec3(10, y * 0.5, z * 0.5)
        for y in range(-width, width + 1)
        for z in range(2, height * 2)
    ]


def test_fig5a_local_planner_fails_at_large_building(benchmark):
    """MLS-V2 failure: the bounded A* pool cannot route around a big building."""
    grid = VoxelGrid(VoxelGridConfig(window_size=30.0, resolution=1.0))
    grid.integrate_cloud(PointCloud(points=_building_wall_points(), sensor_position=Vec3.zero()))
    planner = EgoLocalPlanner(InflatedMap(grid), EgoPlannerConfig(max_expansions=250))
    problem = PlanningProblem(start=Vec3(0, 0, 6), goal=Vec3(20, 0, 6), min_altitude=2, max_altitude=9)

    result = benchmark(planner.plan, problem)
    print(
        f"\nFig 5a: local A* fallback used: {planner.last_fallback_used}, "
        f"waypoints: {len(result.waypoints)} (straight line through the building)"
    )
    assert planner.last_fallback_used
    # The fallback path goes straight through the obstacle — the unsafe
    # behaviour observed in the paper.
    assert not planner.path_is_safe(result.waypoints)


def test_fig5b_rrt_star_paths_have_sharp_corners(benchmark):
    """MLS-V3 failure ingredient: sampled paths contain sharp corners."""
    tree = OcTree()
    for point in _building_wall_points(width=12, height=16):
        for _ in range(2):
            tree.update_voxel(point, hit=True)
    inflated = InflatedMap(tree, InflationConfig())
    planner = RrtStarPlanner(inflated, RrtStarConfig(seed=5, max_iterations=800))
    problem = PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(20, 0, 5), time_budget=4.0, max_altitude=25)

    result = benchmark(planner.plan, problem)
    corner = Trajectory(result.waypoints).max_corner_angle() if result.succeeded else float("nan")
    print(f"\nFig 5b: RRT* path corners up to {math.degrees(corner):.0f} degrees over {len(result.waypoints)} waypoints")
    assert result.succeeded
    assert corner > math.radians(15)


def test_fig5c_erroneous_pointclouds_under_drift(benchmark):
    """Real-world failure: GPS drift displaces the mapped geometry."""
    world = generate_map(MapStyle.SUBURBAN, seed=4)
    world.weather = Weather.preset(WeatherCondition.RAIN, 0.9)
    drift = Vec3(2.0, -1.0, 1.2)
    report = benchmark(
        characterise_point_cloud_faults,
        world,
        Pose.at(Vec3(0, 0, 6)),
        drift,
        5,
    )
    clean = characterise_point_cloud_faults(world, Pose.at(Vec3(0, 0, 6)), Vec3.zero(), captures=5)
    print(
        f"\nFig 5c: {report.displaced_points}/{report.total_points} points displaced "
        f"(mean {report.mean_displacement:.2f} m) under {drift.norm():.1f} m estimation error "
        f"vs {clean.displaced_points}/{clean.total_points} with a healthy estimate"
    )
    assert report.displaced_fraction > clean.displaced_fraction
    assert report.mean_displacement > clean.mean_displacement


def test_fig5d_gps_drift_with_healthy_dop(benchmark):
    """Real-world failure: metres of GPS drift while HDOP/VDOP stay in 2-8."""
    storm = Weather.preset(WeatherCondition.STORM, 1.0)
    report = benchmark(characterise_gps_drift, storm, 90.0, 5.0, Vec3.zero(), 3)
    print(f"\nFig 5d: {report}")
    clear_report = characterise_gps_drift(Weather.clear(), duration=90.0, seed=3)
    assert report.mean_error > clear_report.mean_error
    assert report.all_dop_in_band
