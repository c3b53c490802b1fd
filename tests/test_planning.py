"""Tests for A*, the EGO local planner, RRT*, trajectories and the spiral."""

import math
import random

import pytest

from repro.geometry import Vec3
from repro.mapping.inflation import InflatedMap, InflationConfig
from repro.mapping.octomap import OcTree
from repro.mapping.voxel_grid import VoxelGrid, VoxelGridConfig
from repro.planning.astar import AStarConfig, AStarPlanner
from repro.planning.ego_planner import EgoLocalPlanner, EgoPlannerConfig
from repro.planning.rrt_star import RrtStarConfig, RrtStarPlanner, RrtTree
from repro.planning.spiral import spiral_search_waypoints
from repro.planning.straight_line import StraightLinePlanner
from repro.planning.trajectory import Trajectory, TrajectoryFollower, shortcut_smooth
from repro.planning.types import PlannerStatus, PlanningProblem, path_length
from repro.sensors.depth import PointCloud


def wall_collision(x_wall=5.0, gap_z=None):
    """Collision predicate: an infinite wall at x = x_wall (with optional gap)."""

    def is_colliding(point: Vec3) -> bool:
        if gap_z is not None and point.z > gap_z:
            return False
        return abs(point.x - x_wall) < 0.6

    return is_colliding


class TestAStar:
    def test_straight_path_in_free_space(self):
        planner = AStarPlanner(lambda p: False, AStarConfig(resolution=1.0))
        result = planner.plan(PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(8, 0, 5)))
        assert result.succeeded
        assert result.waypoints[0] == Vec3(0, 0, 5)
        assert result.waypoints[-1] == Vec3(8, 0, 5)

    def test_routes_around_wall(self):
        planner = AStarPlanner(wall_collision(gap_z=8.0), AStarConfig(resolution=1.0, max_expansions=5000))
        result = planner.plan(PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(10, 0, 5), max_altitude=12))
        assert result.succeeded
        assert not any(wall_collision(gap_z=8.0)(w) for w in result.waypoints)

    def test_bounded_pool_times_out_on_large_obstacle(self):
        planner = AStarPlanner(wall_collision(), AStarConfig(resolution=1.0, max_expansions=40))
        result = planner.plan(
            PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(10, 0, 5), min_altitude=4, max_altitude=6)
        )
        assert not result.succeeded
        assert result.status in (PlannerStatus.TIMEOUT, PlannerStatus.NO_PATH_FOUND)

    def test_start_or_goal_in_collision(self):
        planner = AStarPlanner(wall_collision(), AStarConfig())
        in_wall = Vec3(5, 0, 5)
        assert (
            planner.plan(PlanningProblem(start=in_wall, goal=Vec3(10, 0, 5))).status
            is PlannerStatus.START_IN_COLLISION
        )
        assert (
            planner.plan(PlanningProblem(start=Vec3(0, 0, 5), goal=in_wall)).status
            is PlannerStatus.GOAL_IN_COLLISION
        )

    def test_respects_altitude_band(self):
        planner = AStarPlanner(lambda p: False, AStarConfig(resolution=1.0))
        result = planner.plan(
            PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(6, 0, 5), min_altitude=3, max_altitude=7)
        )
        assert all(3 <= w.z <= 7 for w in result.waypoints[1:-1])


class TestStraightLine:
    def test_returns_two_waypoints(self):
        result = StraightLinePlanner().plan(PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(9, 9, 5)))
        assert result.succeeded
        assert len(result.waypoints) == 2
        assert result.cost == pytest.approx(path_length(result.waypoints))


class TestEgoLocalPlanner:
    def make_planner(self, occupied_points=(), max_expansions=900):
        grid = VoxelGrid(VoxelGridConfig(window_size=30.0, resolution=1.0))
        if occupied_points:
            grid.integrate_cloud(PointCloud(points=list(occupied_points), sensor_position=Vec3.zero()))
        return EgoLocalPlanner(
            InflatedMap(grid), EgoPlannerConfig(grid_resolution=1.0, max_expansions=max_expansions)
        )

    def test_plans_in_free_space(self):
        planner = self.make_planner()
        result = planner.plan(PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(8, 0, 5)))
        assert result.succeeded
        assert not planner.last_fallback_used

    def test_clips_goal_to_local_horizon(self):
        planner = self.make_planner()
        result = planner.plan(PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(100, 0, 5)))
        assert result.succeeded
        assert result.waypoints[-1].horizontal_norm() <= planner.config.local_goal_horizon + 1.0

    def test_avoids_small_known_obstacle(self):
        occupied = [Vec3(4, y * 0.5, 5) for y in range(-4, 5)] + [Vec3(4, y * 0.5, 6) for y in range(-4, 5)]
        planner = self.make_planner(occupied)
        result = planner.plan(PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(8, 0, 5)))
        assert result.succeeded
        # Path must not pass through the occupied column at x=4, |y|<2 at z~5-6.
        for waypoint in result.waypoints:
            if abs(waypoint.x - 4) < 0.5 and abs(waypoint.y) < 1.0:
                assert waypoint.z > 6.5 or waypoint.z < 4.0

    def test_falls_back_to_straight_line_when_pool_exhausted(self):
        # A wide dense wall with a tiny expansion budget: the bounded search
        # fails and the planner issues the unsafe straight segment (the
        # paper's observed MLS-V2 behaviour near large buildings).
        occupied = [
            Vec3(4, y, z)
            for y in range(-10, 11)
            for z in range(1, 12)
        ]
        planner = self.make_planner(occupied, max_expansions=30)
        result = planner.plan(PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(9, 0, 5)))
        assert result.succeeded
        assert planner.last_fallback_used
        assert len(result.waypoints) == 2

    def test_path_is_safe_checks_current_map(self):
        occupied = [Vec3(4, 0, 5)]
        planner = self.make_planner(occupied)
        assert not planner.path_is_safe([Vec3(0, 0, 5), Vec3(8, 0, 5)])
        assert planner.path_is_safe([Vec3(0, 5, 5), Vec3(8, 5, 5)])


class TestRrtStar:
    def make_inflated(self, occupied_points=()):
        tree = OcTree()
        for point in occupied_points:
            for _ in range(3):
                tree.update_voxel(point, hit=True)
        return InflatedMap(tree, InflationConfig(vehicle_radius=0.3, safety_margin=0.4))

    def test_plans_in_free_space(self):
        planner = RrtStarPlanner(self.make_inflated(), RrtStarConfig(seed=1, max_iterations=300))
        result = planner.plan(PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(10, 0, 5), time_budget=2.0))
        assert result.succeeded
        assert result.waypoints[-1] == Vec3(10, 0, 5)

    def test_avoids_known_wall(self):
        wall_points = [Vec3(5, y * 0.5, z * 0.5) for y in range(-8, 9) for z in range(4, 16)]
        inflated = self.make_inflated(wall_points)
        planner = RrtStarPlanner(inflated, RrtStarConfig(seed=2, max_iterations=900))
        result = planner.plan(
            PlanningProblem(start=Vec3(0, 0, 4), goal=Vec3(10, 0, 4), time_budget=5.0, max_altitude=20)
        )
        assert result.succeeded
        assert not inflated.path_colliding(result.waypoints)

    def test_reports_failure_from_occupied_start(self):
        inflated = self.make_inflated([Vec3(0, 0, 5)])
        planner = RrtStarPlanner(inflated, RrtStarConfig(seed=3))
        result = planner.plan(PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(10, 0, 5)))
        assert result.status is PlannerStatus.START_IN_COLLISION

    def test_deterministic_given_seed(self):
        a = RrtStarPlanner(self.make_inflated(), RrtStarConfig(seed=7, max_iterations=200))
        b = RrtStarPlanner(self.make_inflated(), RrtStarConfig(seed=7, max_iterations=200))
        problem = PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(8, 3, 5), time_budget=2.0)
        result_a = a.plan(problem)
        result_b = b.plan(problem)
        assert [w.to_tuple() for w in result_a.waypoints] == [w.to_tuple() for w in result_b.waypoints]

    def test_respects_time_budget(self):
        planner = RrtStarPlanner(self.make_inflated(), RrtStarConfig(seed=4, max_iterations=100000))
        result = planner.plan(PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(30, 30, 5), time_budget=0.1))
        assert result.planning_time < 1.5

    def test_time_budget_is_a_deterministic_iteration_cap(self):
        # The budget is converted through the declared per-iteration cost,
        # never measured mid-search: host load must not change the tree.
        config = RrtStarConfig(seed=4, max_iterations=100000)
        problem = PlanningProblem(start=Vec3(0, 0, 5), goal=Vec3(30, 30, 5), time_budget=0.05)
        results = [
            RrtStarPlanner(self.make_inflated(), config).plan(problem) for _ in range(2)
        ]
        expected = int(0.05 / config.nominal_iteration_cost)
        assert [r.iterations for r in results] == [expected, expected]
        assert [w.to_tuple() for w in results[0].waypoints] == [
            w.to_tuple() for w in results[1].waypoints
        ]


class TestRrtTree:
    def test_nearest_is_the_lowest_index_among_equidistant_nodes(self):
        tree = RrtTree(Vec3(3, 0, 0), capacity=5)
        for point in (Vec3(0, 2, 0), Vec3(-2, 0, 0), Vec3(0, 0, 2), Vec3(0, -2, 0)):
            tree.add(point, parent=0, cost=0.0)
        assert tree.nearest(Vec3.zero()) == 1

    def test_nearest_compares_distances_not_squares(self):
        # Two nodes whose squared distances differ but whose distances round
        # to the same double: like the scan over Vec3.distance_to, nearest
        # keeps the first, where comparing squares would pick the second.
        rng = random.Random(3)
        while True:
            first = Vec3(rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0), 0.0)
            second = Vec3(math.nextafter(first.x, 0.0), first.y, 0.0)
            if second.dot(second) < first.dot(first) and second.norm() == first.norm():
                break
        tree = RrtTree(first, capacity=2)
        tree.add(second, parent=0, cost=0.0)
        assert tree.distances(Vec3.zero()).tolist() == [first.norm(), second.norm()]
        assert tree.nearest(Vec3.zero()) == 0


class TestTrajectory:
    def test_length_and_goal(self):
        trajectory = Trajectory([Vec3(0, 0, 0), Vec3(3, 0, 0), Vec3(3, 4, 0)])
        assert trajectory.length == pytest.approx(7.0)
        assert trajectory.goal == Vec3(3, 4, 0)

    def test_max_corner_angle(self):
        straight = Trajectory([Vec3(0, 0, 0), Vec3(5, 0, 0), Vec3(10, 0, 0)])
        corner = Trajectory([Vec3(0, 0, 0), Vec3(5, 0, 0), Vec3(5, 5, 0)])
        assert straight.max_corner_angle() == pytest.approx(0.0, abs=1e-6)
        assert corner.max_corner_angle() == pytest.approx(math.pi / 2, abs=1e-6)

    def test_follower_advances_through_waypoints(self):
        follower = TrajectoryFollower(Trajectory([Vec3(0, 0, 0), Vec3(5, 0, 0), Vec3(10, 0, 0)]), acceptance_radius=1.0)
        assert follower.current_target() == Vec3(0, 0, 0)
        target = follower.advance(Vec3(0.5, 0, 0))
        assert target == Vec3(5, 0, 0)
        target = follower.advance(Vec3(4.8, 0, 0))
        assert target == Vec3(10, 0, 0)

    def test_follower_completes(self):
        follower = TrajectoryFollower(Trajectory([Vec3(0, 0, 0), Vec3(2, 0, 0)]), acceptance_radius=1.0)
        follower.advance(Vec3(0, 0, 0))
        follower.advance(Vec3(2, 0, 0))
        assert follower.is_complete
        assert follower.remaining_waypoints() == []

    def test_shortcut_smoothing_removes_redundant_waypoints(self):
        waypoints = [Vec3(0, 0, 0), Vec3(1, 1, 0), Vec3(2, 0, 0), Vec3(4, 0, 0)]
        smoothed = shortcut_smooth(waypoints, lambda a, b: True)
        assert smoothed == [Vec3(0, 0, 0), Vec3(4, 0, 0)]

    def test_shortcut_smoothing_respects_collisions(self):
        waypoints = [Vec3(0, 0, 0), Vec3(0, 5, 0), Vec3(10, 5, 0), Vec3(10, 0, 0)]
        blocked = lambda a, b: not (min(a.y, b.y) < 2.5 and abs(a.x - b.x) > 5)
        smoothed = shortcut_smooth(waypoints, blocked)
        assert smoothed[0] == waypoints[0] and smoothed[-1] == waypoints[-1]
        assert len(smoothed) >= 3


class TestSpiral:
    def test_starts_at_center_and_grows(self):
        waypoints = spiral_search_waypoints(Vec3(10, 10, 0), altitude=8.0, max_radius=12.0)
        assert waypoints[0] == Vec3(10, 10, 8.0)
        radii = [w.horizontal_distance_to(Vec3(10, 10, 0)) for w in waypoints]
        assert radii[-1] > radii[1]
        assert all(w.z == pytest.approx(8.0) for w in waypoints)

    def test_covers_radius_with_spacing(self):
        waypoints = spiral_search_waypoints(Vec3.zero(), altitude=5.0, max_radius=10.0, spacing=2.0)
        max_radius = max(w.horizontal_norm() for w in waypoints)
        assert max_radius == pytest.approx(10.0, abs=1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            spiral_search_waypoints(Vec3.zero(), 5.0, max_radius=0.0)
        with pytest.raises(ValueError):
            spiral_search_waypoints(Vec3.zero(), 5.0, points_per_turn=2)
