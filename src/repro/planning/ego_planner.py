"""EGO-Planner-style local planner (MLS-V2).

A* over the inflated view of the dense local voxel window (the dense-grid
mapper's ``mapping.inflated``, sized by the system's ``SafetyConfig``), with
the two behaviours the paper documents and later fixes:

* **Bounded search pool** — the A* expansion budget reflects the real-time
  deadline; when a large obstacle (building) blocks the way, the bounded
  search fails and the planner falls back to issuing the straight segment to
  the local goal ("defaulting to unsafe straight-line paths", §V.A).
* **Local information only** — collision checks consult only the local voxel
  window, so geometry that has not been observed recently (tree canopies, the
  far side of buildings) does not constrain the plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.geometry import Vec3
from repro.mapping.inflation import InflatedMap
from repro.planning.astar import AStarConfig, AStarPlanner
from repro.planning.types import PlannerStatus, PlanningProblem, PlanningResult, path_length


@dataclass(frozen=True)
class EgoPlannerConfig:
    """Local-planner tuning."""

    grid_resolution: float = 1.0
    max_expansions: int = 900
    local_goal_horizon: float = 12.0


class EgoLocalPlanner:
    """Local A* planner over an inflated view of the dense sliding-window grid."""

    name = "EGO-Planner (local A*)"

    def __init__(self, inflated: InflatedMap, config: EgoPlannerConfig | None = None) -> None:
        self.inflated = inflated
        self.config = config or EgoPlannerConfig()
        self._astar = AStarPlanner(
            self.inflated.is_colliding,
            AStarConfig(
                resolution=self.config.grid_resolution,
                max_expansions=self.config.max_expansions,
            ),
        )
        self.last_fallback_used = False

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(self, problem: PlanningProblem) -> PlanningResult:
        """Plan towards the goal, clipped to the local horizon.

        If the goal is beyond the local window, the planner targets the point
        on the start-goal line at the horizon distance (a *local goal*), which
        is how receding-horizon local planners operate.
        """
        started = time.perf_counter()
        self.last_fallback_used = False
        local_goal = self._local_goal(problem.start, problem.goal)
        local_problem = PlanningProblem(
            start=problem.start,
            goal=local_goal,
            time_budget=problem.time_budget,
            min_altitude=problem.min_altitude,
            max_altitude=problem.max_altitude,
        )
        result = self._astar.plan(local_problem)
        if result.succeeded:
            return result

        # The paper's observed failure handling: when the bounded search fails
        # (large obstacle, goal voxel occupied), the system falls back to the
        # straight segment towards the local goal — which is exactly what made
        # some V2 runs end in collisions near buildings.
        self.last_fallback_used = True
        waypoints = [problem.start, local_goal]
        return PlanningResult(
            status=PlannerStatus.SUCCESS,
            waypoints=waypoints,
            cost=path_length(waypoints),
            iterations=result.iterations,
            nodes_expanded=result.nodes_expanded,
            planning_time=time.perf_counter() - started,
        )

    def _local_goal(self, start: Vec3, goal: Vec3) -> Vec3:
        """Clip the goal to the local planning horizon."""
        delta = goal - start
        distance = delta.norm()
        horizon = self.config.local_goal_horizon
        if distance <= horizon or distance < 1e-9:
            return goal
        return start + delta * (horizon / distance)

    # ------------------------------------------------------------------ #
    # map plumbing
    # ------------------------------------------------------------------ #
    def path_is_safe(self, waypoints: list[Vec3]) -> bool:
        """Validate a path against the *current* local map."""
        return not self.inflated.path_colliding(waypoints)
