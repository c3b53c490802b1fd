"""RRT* sampling-based planner over the global octree map (MLS-V3).

An implementation of the RRT* algorithm (Karaman & Frazzoli, 2011) in the
style OMPL exposes it: uniform sampling in an ellipsoidal informed region
around the start-goal segment, nearest-neighbour extension with a bounded
step, rewiring within a shrinking radius, and a best-goal-branch extraction
when the time / iteration budget expires.

Because the collision checker consults the *global* octree, the planner
accounts for every obstacle ever observed, which removes the two V2 failure
modes — at the cost of new ones: sampled paths have sharp corners that the
trajectory follower cuts, and planning takes longer, which hurts on the
resource-constrained HIL platform.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.geometry import Vec3
from repro.mapping.inflation import InflatedMap
from repro.planning.types import PlannerStatus, PlanningProblem, PlanningResult, path_length


@dataclass(frozen=True)
class RrtStarConfig:
    """Sampling and rewiring parameters."""

    max_iterations: int = 600
    step_size: float = 2.5
    goal_bias: float = 0.15
    goal_tolerance: float = 1.5
    rewire_radius: float = 5.0
    sample_margin: float = 8.0
    collision_check_step: float = 0.5
    seed: int = 0
    #: Declared desktop-class cost of one RRT* iteration, seconds.  The
    #: planning time budget is converted through it into a *deterministic*
    #: iteration budget, the same way the HIL resource model treats module
    #: latencies declaratively: breaking on measured wall clock made the
    #: sampled tree — and with it whole MLS-V3 missions — depend on host
    #: load, which silently broke the campaign/dispatch byte-identity
    #: contract for any system using this planner.
    nominal_iteration_cost: float = 0.0002


class RrtTree:
    """The RRT* search tree, with node coordinates in preallocated arrays.

    Nearest-node and rewire-radius queries are then one vectorized distance
    over every node each, instead of a Python scan of the node list.
    """

    def __init__(self, root: Vec3, capacity: int) -> None:
        self.points: list[Vec3] = [root]
        self.parents: list[int] = [-1]
        self.costs: list[float] = [0.0]
        self._xyz = np.empty((3, capacity))
        self._xyz[:, 0] = root.to_tuple()

    def add(self, point: Vec3, parent: int, cost: float) -> int:
        """Append a node and return its index."""
        index = len(self.points)
        self._xyz[:, index] = point.to_tuple()
        self.points.append(point)
        self.parents.append(parent)
        self.costs.append(cost)
        return index

    def distances(self, point: Vec3) -> np.ndarray:
        """Distance from every node to ``point``, in node order.

        Each entry equals ``node.distance_to(point)`` bit for bit: the squares
        are summed in :meth:`Vec3.norm`'s order, then square-rooted.  Squared
        distances would not do, since two that differ can share a root, and
        which node is nearest would then change.
        """
        delta = self._xyz[:, : len(self.points)] - np.array(point.to_tuple())[:, None]
        delta *= delta
        return np.sqrt(delta[0] + delta[1] + delta[2])

    def nearest(self, point: Vec3) -> int:
        """Index of the node nearest ``point``; the lowest index among ties."""
        return int(np.argmin(self.distances(point)))


class RrtStarPlanner:
    """RRT* with informed sampling and rewiring."""

    name = "RRT* (OMPL-style)"

    def __init__(self, inflated_map: InflatedMap, config: RrtStarConfig | None = None) -> None:
        self.inflated = inflated_map
        self.config = config or RrtStarConfig()
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(self, problem: PlanningProblem) -> PlanningResult:
        started = time.perf_counter()
        cfg = self.config

        if self.inflated.is_colliding(problem.start):
            return PlanningResult.failure(PlannerStatus.START_IN_COLLISION)
        if self.inflated.is_colliding(problem.goal):
            return PlanningResult.failure(PlannerStatus.GOAL_IN_COLLISION)

        best_goal_index: int | None = None
        best_goal_cost = float("inf")
        iterations = 0

        # Deterministic budget: wall clock is only ever *reported* (in
        # ``planning_time``), never consulted mid-search.
        budget_iterations = cfg.max_iterations
        if problem.time_budget > 0 and cfg.nominal_iteration_cost > 0:
            budget_iterations = min(
                cfg.max_iterations,
                max(1, int(problem.time_budget / cfg.nominal_iteration_cost)),
            )
        tree = RrtTree(problem.start, capacity=budget_iterations + 1)
        points, costs = tree.points, tree.costs

        for iteration in range(budget_iterations):
            iterations = iteration + 1

            sample = self._sample(problem)
            nearest_index = tree.nearest(sample)
            nearest = points[nearest_index]
            new_point = self._steer(nearest, sample, cfg.step_size)
            new_point = self._clamp_altitude(new_point, problem)

            if self.inflated.is_colliding(new_point):
                continue
            if self._edge_blocked(nearest, new_point):
                continue

            # Choose the best parent within the rewire radius.
            distances = tree.distances(new_point)
            near = np.flatnonzero(distances <= cfg.rewire_radius)
            neighbours = list(zip(near.tolist(), distances[near].tolist()))
            best_parent = nearest_index
            best_cost = costs[nearest_index] + nearest.distance_to(new_point)
            for index, distance in neighbours:
                candidate_cost = costs[index] + distance
                if candidate_cost < best_cost and not self._edge_blocked(points[index], new_point):
                    best_parent = index
                    best_cost = candidate_cost

            new_index = tree.add(new_point, best_parent, best_cost)

            # Rewire neighbours through the new node when that shortens them.
            for index, distance in neighbours:
                rewired_cost = best_cost + distance
                if rewired_cost < costs[index] and not self._edge_blocked(new_point, points[index]):
                    tree.parents[index] = new_index
                    costs[index] = rewired_cost

            # Track the best node that can connect to the goal.
            if new_point.distance_to(problem.goal) <= cfg.goal_tolerance and not self._edge_blocked(
                new_point, problem.goal
            ):
                goal_cost = best_cost + new_point.distance_to(problem.goal)
                if goal_cost < best_goal_cost:
                    best_goal_cost = goal_cost
                    best_goal_index = new_index

        if best_goal_index is None:
            return PlanningResult.failure(
                PlannerStatus.NO_PATH_FOUND,
                iterations=iterations,
                planning_time=time.perf_counter() - started,
            )

        waypoints = self._extract(points, tree.parents, best_goal_index)
        waypoints.append(problem.goal)
        return PlanningResult(
            status=PlannerStatus.SUCCESS,
            waypoints=waypoints,
            cost=path_length(waypoints),
            iterations=iterations,
            nodes_expanded=len(points),
            planning_time=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _sample(self, problem: PlanningProblem) -> Vec3:
        cfg = self.config
        if self._rng.random() < cfg.goal_bias:
            return problem.goal
        # Informed region: an axis-aligned box around the start-goal segment
        # grown by the sample margin.
        lo_x = min(problem.start.x, problem.goal.x) - cfg.sample_margin
        hi_x = max(problem.start.x, problem.goal.x) + cfg.sample_margin
        lo_y = min(problem.start.y, problem.goal.y) - cfg.sample_margin
        hi_y = max(problem.start.y, problem.goal.y) + cfg.sample_margin
        lo_z = max(problem.min_altitude, min(problem.start.z, problem.goal.z) - 3.0)
        hi_z = min(problem.max_altitude, max(problem.start.z, problem.goal.z) + cfg.sample_margin)
        return Vec3(
            float(self._rng.uniform(lo_x, hi_x)),
            float(self._rng.uniform(lo_y, hi_y)),
            float(self._rng.uniform(lo_z, max(lo_z + 0.1, hi_z))),
        )

    @staticmethod
    def _steer(from_point: Vec3, to_point: Vec3, step: float) -> Vec3:
        delta = to_point - from_point
        distance = delta.norm()
        if distance <= step or distance < 1e-9:
            return to_point
        return from_point + delta * (step / distance)

    @staticmethod
    def _clamp_altitude(point: Vec3, problem: PlanningProblem) -> Vec3:
        return point.with_z(min(problem.max_altitude, max(problem.min_altitude, point.z)))

    def _edge_blocked(self, a: Vec3, b: Vec3) -> bool:
        return self.inflated.segment_colliding(a, b, step=self.config.collision_check_step)

    @staticmethod
    def _extract(nodes: list[Vec3], parents: list[int], goal_index: int) -> list[Vec3]:
        path = []
        index = goal_index
        while index != -1:
            path.append(nodes[index])
            index = parents[index]
        path.reverse()
        return path
