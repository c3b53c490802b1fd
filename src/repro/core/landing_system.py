"""The multi-module autonomous landing system.

:class:`LandingSystem` wires the configured marker detector, occupancy map,
path planner and validation gate behind the decision-making state machine of
Fig. 2.  The mission runner calls three methods each decision tick:

* :meth:`process_frame` — run marker detection on the latest camera frame;
* :meth:`process_cloud` — fuse the latest depth cloud into the occupancy map;
* :meth:`decide` — advance the state machine and return a flight command.

The class never touches ground truth: it sees only sensor products and the
state estimate, so every failure the campaign produces emerges from module
behaviour, not from scripted outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.commands import Command
from repro.core.config import LandingSystemConfig
from repro.core.registry import (
    DETECTOR,
    MAPPER,
    PLANNER,
    REGISTRY,
    ComponentContext,
    MappingStack,
)
from repro.core.states import DecisionState, FailsafeAction, StateTransition
from repro.geometry import Vec3
from repro.mapping.inflation import InflatedMap
from repro.mapping.octomap import OcTree
from repro.mapping.voxel_grid import VoxelGrid
from repro.perception.detection import Detection, DetectionFrame
from repro.perception.validation import ValidationGate, ValidationResult
from repro.planning.spiral import spiral_search_waypoints
from repro.planning.trajectory import Trajectory, TrajectoryFollower, shortcut_smooth
from repro.planning.types import PlanningProblem
from repro.sensors.camera import CameraFrame
from repro.sensors.depth import PointCloud
from repro.vehicle.state import EstimatedState


@dataclass
class ModuleTimings:
    """Nominal compute cost (seconds of desktop CPU/GPU) of the last tick.

    The HIL resource model scales these to Jetson-Nano-class hardware; the
    SIL campaign ignores them.
    """

    detection: float = 0.0
    mapping: float = 0.0
    planning: float = 0.0

    @property
    def total(self) -> float:
        return self.detection + self.mapping + self.planning


class LandingSystem:
    """One generation of the marker-based autonomous landing system.

    Args:
        config: generation preset (see :mod:`repro.core.config`).
        target_marker_id: the briefed landing-pad ID.
        gps_target: initial GPS estimate of the landing site.
        home: take-off / return-home position.
        seed: seed for the planner's sampling.
        detector_network: optional pre-trained network shared across runs
            (avoids retraining the learned detector for every scenario).
    """

    def __init__(
        self,
        config: LandingSystemConfig,
        target_marker_id: int,
        gps_target: Vec3,
        home: Vec3 = Vec3.zero(),
        seed: int = 0,
        detector_network=None,
    ) -> None:
        self.config = config
        self.target_marker_id = target_marker_id
        self.gps_target = gps_target
        self.home = home

        # --- component composition (via the pluggable registry) ----------
        context = ComponentContext(config=config, seed=seed, detector_network=detector_network)
        self._detector_spec = REGISTRY.spec(DETECTOR, config.detector)
        self._mapper_spec = REGISTRY.spec(MAPPER, config.mapper)
        self._planner_spec = REGISTRY.spec(PLANNER, config.planner)

        # perception
        self.detector = self._detector_spec.build(context)

        # mapping: the mapper component builds the full occupancy stack
        stack = self._mapper_spec.build(context)
        if not isinstance(stack, MappingStack):
            stack = MappingStack(primary=stack, inflated=getattr(stack, "inflated", None))
        self.mapping: MappingStack = stack
        self.local_grid: VoxelGrid | None = stack.local_grid
        self.octree: OcTree | None = stack.octree
        self.inflated: InflatedMap | None = stack.inflated

        # planning: the planner factory sees the built mapping stack
        context.mapping = stack
        self.planner = self._planner_spec.build(context)
        # Planners that maintain their own inflated view (e.g. the EGO local
        # planner) expose it; adopt it so safety checks and the corridor test
        # use the same map the planner plans against.
        planner_inflated = getattr(self.planner, "inflated", None)
        if planner_inflated is not None:
            self.inflated = planner_inflated
            stack.inflated = planner_inflated

        # --- validation ---------------------------------------------------
        proposes_unidentified = bool(
            self._detector_spec.metadata.get("proposes_unidentified", False)
        )
        self._accept_unidentified = proposes_unidentified
        self.validation_gate = ValidationGate(
            target_marker_id=target_marker_id,
            required_frames=config.validation.required_frames,
            required_hits=config.validation.required_hits,
            position_consistency_radius=config.validation.position_consistency_radius,
            accept_unidentified=proposes_unidentified,
        )

        # --- state ---------------------------------------------------------
        self.state = DecisionState.TRANSIT
        self.transitions: list[StateTransition] = []
        self.last_timings = ModuleTimings()
        self.failsafe_action: FailsafeAction | None = None

        self._follower: TrajectoryFollower | None = None
        self._trajectory_goal: Vec3 | None = None
        self._search_waypoints: list[Vec3] = []
        self._search_index = 0
        self._search_started_at: float | None = None
        self._candidate_position: Vec3 | None = None
        self._rejected_candidates: list[Vec3] = []
        self._validated_position: Vec3 | None = None
        self._validation_attempts = 0
        self._landing_attempts = 0
        self._last_detection: Detection | None = None
        self._last_detection_time: float = -math.inf
        self._last_frame: DetectionFrame | None = None
        self._descent_target_altitude: float | None = None
        self._last_replan_time: float = -math.inf

        # --- counters used by the metrics/failure analysis ------------------
        self.planner_failures = 0
        self.planner_fallbacks = 0
        self.aborts = 0
        self.replans = 0

    # ------------------------------------------------------------------ #
    # module entry points
    # ------------------------------------------------------------------ #
    def process_frame(self, frame: CameraFrame) -> DetectionFrame:
        """Run marker detection on a camera frame and cache the result."""
        result = self.detector.detect(frame)
        self.last_timings.detection = self._detector_spec.nominal_latency
        self._last_frame = result
        best = self._best_candidate(result)
        if best is not None:
            self._last_detection = best
            self._last_detection_time = frame.timestamp
        return result

    def process_cloud(self, cloud: PointCloud, estimate: EstimatedState) -> None:
        """Fuse a depth point cloud into the configured occupancy map."""
        integrated = False
        if self.local_grid is not None:
            self.local_grid.recenter(estimate.position)
            self.local_grid.integrate_cloud(cloud)
            integrated = True
        if self.octree is not None:
            self.octree.integrate_cloud(cloud)
            integrated = True
        if not integrated:
            # Custom mappers without the built-in representations can expose
            # ``integrate_cloud`` on their primary map object.
            primary = self.mapping.primary
            if primary is not None and hasattr(primary, "integrate_cloud"):
                primary.integrate_cloud(cloud)
                integrated = True
        if integrated:
            self.last_timings.mapping = self._mapper_spec.nominal_latency

    # ------------------------------------------------------------------ #
    # decision tick
    # ------------------------------------------------------------------ #
    def decide(self, estimate: EstimatedState, now: float, allow_replan: bool = True) -> Command:
        """Advance the state machine one tick and return a flight command.

        Args:
            estimate: the EKF state estimate.
            now: simulation time, seconds.
            allow_replan: the HIL scheduler clears this flag on ticks where
                the platform missed its deadline, which postpones safety
                replanning exactly as the overloaded Jetson did (§V.B).
        """
        self.last_timings.planning = 0.0
        handler = {
            DecisionState.TRANSIT: self._tick_transit,
            DecisionState.SEARCH: self._tick_search,
            DecisionState.VALIDATE: self._tick_validate,
            DecisionState.LANDING: self._tick_landing,
            DecisionState.FINAL_DESCENT: self._tick_final_descent,
            DecisionState.LANDED: lambda e, t, r: Command.none(),
            DecisionState.FAILSAFE: self._tick_failsafe,
        }[self.state]
        return handler(estimate, now, allow_replan)

    # ------------------------------------------------------------------ #
    # state handlers
    # ------------------------------------------------------------------ #
    def _tick_transit(self, estimate: EstimatedState, now: float, allow_replan: bool) -> Command:
        goal = self.gps_target.with_z(self.config.cruise_altitude)
        if estimate.position.horizontal_distance_to(self.gps_target) < 3.0:
            self._transition(DecisionState.SEARCH, now, "arrived at GPS estimate of the landing site")
            self._begin_search(estimate, now)
            return Command.none()

        command = self._follow_towards(goal, estimate, now, allow_replan)
        # A marker sighting during transit short-circuits straight to validation.
        if self._recent_detection(now, max_age=1.0) is not None and estimate.position.horizontal_distance_to(
            self.gps_target
        ) < self.config.search.spiral_radius:
            self._candidate_position = self._last_detection.world_position
            self._transition(DecisionState.VALIDATE, now, "marker sighted during transit")
            self._begin_validation()
        return command

    def _begin_search(self, estimate: EstimatedState, now: float) -> None:
        cfg = self.config.search
        self._search_waypoints = spiral_search_waypoints(
            self.gps_target,
            altitude=cfg.search_altitude,
            max_radius=cfg.spiral_radius,
            spacing=cfg.spiral_spacing,
        )
        self._search_index = 0
        self._search_started_at = now
        self._follower = None
        self._trajectory_goal = None

    def _tick_search(self, estimate: EstimatedState, now: float, allow_replan: bool) -> Command:
        cfg = self.config.search
        if self._search_started_at is None:
            self._begin_search(estimate, now)

        detection = self._recent_detection(now, max_age=0.8)
        if detection is not None:
            self._candidate_position = detection.world_position
            self._transition(DecisionState.VALIDATE, now, "candidate marker detected during search")
            self._begin_validation()
            return Command.none()

        if now - (self._search_started_at or now) > cfg.search_timeout:
            return self._enter_failsafe(now, "search timeout", FailsafeAction.RETURN_HOME)

        if self._search_index >= len(self._search_waypoints):
            return self._enter_failsafe(now, "spiral search exhausted", FailsafeAction.RETURN_HOME)

        waypoint = self._search_waypoints[self._search_index]
        if estimate.position.distance_to(waypoint) < 1.2:
            self._search_index += 1
            if self._search_index >= len(self._search_waypoints):
                return self._enter_failsafe(now, "spiral search exhausted", FailsafeAction.RETURN_HOME)
            waypoint = self._search_waypoints[self._search_index]
        return self._follow_towards(waypoint, estimate, now, allow_replan)

    def _begin_validation(self) -> None:
        self.validation_gate.reset(candidate_position=self._candidate_position)
        self._follower = None
        self._trajectory_goal = None

    def _tick_validate(self, estimate: EstimatedState, now: float, allow_replan: bool) -> Command:
        assert self._candidate_position is not None, "validation requires a candidate"
        hover_point = self._candidate_position.with_z(self.config.validation.validation_altitude)

        # Only count frames once the vehicle is actually hovering over the
        # candidate at the validation altitude; frames captured on the way
        # down are too far out to decode the ID and would let a decoy pass.
        at_hover_point = (
            estimate.position.horizontal_distance_to(hover_point) <= 1.5
            and abs(estimate.altitude - hover_point.z) <= 1.0
        )
        if not at_hover_point:
            self._last_frame = None
            return Command.setpoint_at(
                hover_point, speed_limit=self.config.landing.reposition_speed_limit
            )

        if self._last_frame is not None:
            result = self.validation_gate.observe(self._last_frame)
            self._last_frame = None
            if result is ValidationResult.ACCEPTED:
                validated = self.validation_gate.position_estimate() or self._candidate_position
                self._validated_position = validated
                self._transition(DecisionState.LANDING, now, "marker validated over multiple frames")
                self._begin_landing(estimate)
                return Command.none()
            if result is ValidationResult.REJECTED:
                self._validation_attempts += 1
                if self._candidate_position is not None:
                    # Remember the rejected location so the search does not
                    # immediately re-trigger on the same decoy or phantom.
                    self._rejected_candidates.append(self._candidate_position)
                if self._validation_attempts >= self.config.validation.max_attempts:
                    return self._enter_failsafe(
                        now, "validation failed repeatedly", FailsafeAction.RETURN_HOME
                    )
                self._transition(DecisionState.SEARCH, now, "validation threshold not met")
                return Command.none()

        # Hover / hold over the candidate while frames accumulate.
        return Command.setpoint_at(hover_point, speed_limit=self.config.landing.reposition_speed_limit)

    def _begin_landing(self, estimate: EstimatedState) -> None:
        self._descent_target_altitude = max(
            self.config.landing.final_descent_altitude,
            estimate.altitude - self.config.landing.descent_step,
        )
        self._follower = None
        self._trajectory_goal = None

    def _tick_landing(self, estimate: EstimatedState, now: float, allow_replan: bool) -> Command:
        assert self._validated_position is not None, "landing requires a validated position"
        landing_cfg = self.config.landing

        # Refine the landing point with fresh detections (continuous visual contact).
        detection = self._recent_detection(now, max_age=1.0)
        if detection is not None:
            refined = detection.world_position
            self._validated_position = self._validated_position.lerp(refined, 0.3)

        # Marker lost for too long while still high: abort and revalidate.
        if now - self._last_detection_time > landing_cfg.marker_lost_tolerance:
            self._landing_attempts += 1
            self.aborts += 1
            if self._landing_attempts >= landing_cfg.max_landing_attempts:
                return self._enter_failsafe(now, "marker lost during descent", FailsafeAction.RETURN_HOME)
            self._candidate_position = self._validated_position
            self._transition(DecisionState.VALIDATE, now, "marker lost during descent; revalidating")
            self._begin_validation()
            return Command.none()

        # Safety check of the descent corridor against the occupancy map.
        if self.inflated is not None and allow_replan:
            corridor_clear = not self.inflated.segment_colliding(
                estimate.position,
                self._validated_position.with_z(self.config.landing.final_descent_altitude),
            )
            if not corridor_clear:
                self.aborts += 1
                self._landing_attempts += 1
                if self._landing_attempts >= landing_cfg.max_landing_attempts:
                    return self._enter_failsafe(
                        now, "descent corridor blocked", FailsafeAction.RETURN_HOME
                    )
                self._candidate_position = self._validated_position
                self._transition(DecisionState.SEARCH, now, "descent corridor blocked; re-searching")
                self._begin_search(estimate, now)
                return Command.none()

        # Within the final-descent window: hand over to the autopilot's lander.
        horizontal_error = estimate.position.horizontal_distance_to(self._validated_position)
        if (
            estimate.altitude <= self.config.landing.final_descent_altitude + 0.3
            and horizontal_error <= 1.5
        ):
            self._transition(DecisionState.FINAL_DESCENT, now, "within 1.5 m of the marker; final descent")
            return Command.land()

        # Step the descent staircase.
        if self._descent_target_altitude is None:
            self._descent_target_altitude = estimate.altitude
        if estimate.altitude <= self._descent_target_altitude + 0.4:
            self._descent_target_altitude = max(
                self.config.landing.final_descent_altitude,
                self._descent_target_altitude - landing_cfg.descent_step,
            )
        target = self._validated_position.with_z(self._descent_target_altitude)
        return Command.setpoint_at(target, speed_limit=landing_cfg.reposition_speed_limit)

    def _tick_final_descent(self, estimate: EstimatedState, now: float, allow_replan: bool) -> Command:
        if estimate.altitude < 0.15:
            self._transition(DecisionState.LANDED, now, "touchdown")
            return Command.none()
        return Command.land()

    def _tick_failsafe(self, estimate: EstimatedState, now: float, allow_replan: bool) -> Command:
        return Command.return_home()

    # ------------------------------------------------------------------ #
    # trajectory management
    # ------------------------------------------------------------------ #
    def _follow_towards(
        self, goal: Vec3, estimate: EstimatedState, now: float, allow_replan: bool
    ) -> Command:
        """Plan (if needed), safety-check and follow a trajectory towards ``goal``."""
        needs_plan = (
            self._follower is None
            or self._trajectory_goal is None
            or self._trajectory_goal.distance_to(goal) > 1.0
            or self._follower.is_complete
        )

        # Periodic revalidation of the remaining path against the map.
        if (
            not needs_plan
            and allow_replan
            and self.inflated is not None
            and now - self._last_replan_time > 0.8
            and self._follower is not None
        ):
            remaining = [estimate.position] + self._follower.remaining_waypoints()
            horizon = self._clip_to_horizon(remaining, self.config.safety.replan_check_horizon)
            if self.inflated.path_colliding(horizon):
                needs_plan = True

        if needs_plan:
            if not allow_replan and self._follower is not None and not self._follower.is_complete:
                # Deadline missed: keep flying the stale plan this tick.
                pass
            else:
                self._plan_towards(goal, estimate, now)

        if self._follower is None:
            # Planning failed outright; hold position.
            return Command.setpoint_at(estimate.position)

        target = self._follower.advance(estimate.position)
        if target is None:
            return Command.setpoint_at(goal)
        yaw = math.atan2(target.y - estimate.position.y, target.x - estimate.position.x)
        return Command.setpoint_at(target, yaw=yaw)

    def _plan_towards(self, goal: Vec3, estimate: EstimatedState, now: float) -> None:
        problem = PlanningProblem(
            start=estimate.position,
            goal=goal,
            time_budget=0.25,
            min_altitude=1.0,
            max_altitude=40.0,
        )
        result = self.planner.plan(problem)
        self.last_timings.planning += self._planner_spec.nominal_latency
        self.replans += 1
        self._last_replan_time = now

        if not result.succeeded:
            self.planner_failures += 1
            self._follower = None
            self._trajectory_goal = None
            return

        # Duck-typed so wrapped planners (fault injectors, custom components)
        # still report their fallback use.
        if getattr(self.planner, "last_fallback_used", False):
            self.planner_fallbacks += 1

        waypoints = result.waypoints
        if self.inflated is not None and len(waypoints) > 2:
            waypoints = shortcut_smooth(
                waypoints, lambda a, b: not self.inflated.segment_colliding(a, b)
            )
        self._follower = TrajectoryFollower(Trajectory(waypoints))
        self._trajectory_goal = goal

    @staticmethod
    def _clip_to_horizon(waypoints: list[Vec3], horizon: float) -> list[Vec3]:
        """Truncate a polyline after ``horizon`` metres of arc length."""
        clipped = [waypoints[0]]
        travelled = 0.0
        for a, b in zip(waypoints, waypoints[1:]):
            segment = a.distance_to(b)
            if travelled + segment >= horizon:
                remaining = horizon - travelled
                if segment > 1e-9:
                    clipped.append(a.lerp(b, remaining / segment))
                break
            clipped.append(b)
            travelled += segment
        return clipped

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _best_candidate(self, frame: DetectionFrame) -> Detection | None:
        """The detection most likely to be the briefed target marker.

        Detections near previously rejected candidate positions (decoys,
        glare phantoms) are ignored so the search keeps exploring instead of
        oscillating between search and validation on the same false positive.
        """
        identified = frame.best_for(self.target_marker_id)
        if identified is not None and not self._near_rejected(identified.world_position):
            return identified
        if not self._accept_unidentified:
            return None
        candidates = [
            d
            for d in frame.detections
            if d.marker_id is None
            and d.confidence >= 0.6
            and not self._near_rejected(d.world_position)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda d: d.confidence)

    def _near_rejected(self, position: Vec3, radius: float = 3.0) -> bool:
        """Whether a position is close to a previously rejected candidate."""
        return any(
            position.horizontal_distance_to(rejected) <= radius
            for rejected in self._rejected_candidates
        )

    def _recent_detection(self, now: float, max_age: float) -> Detection | None:
        if self._last_detection is None:
            return None
        if now - self._last_detection_time > max_age:
            return None
        return self._last_detection

    def _transition(self, new_state: DecisionState, now: float, reason: str) -> None:
        self.transitions.append(StateTransition(now, self.state, new_state, reason))
        self.state = new_state

    def _enter_failsafe(self, now: float, reason: str, action: FailsafeAction) -> Command:
        self.aborts += 1
        self.failsafe_action = action
        self._transition(DecisionState.FAILSAFE, now, reason)
        return Command.return_home()

    # ------------------------------------------------------------------ #
    # exposed status
    # ------------------------------------------------------------------ #
    @property
    def validated_position(self) -> Vec3 | None:
        return self._validated_position

    @property
    def is_terminal(self) -> bool:
        return self.state in (DecisionState.LANDED, DecisionState.FAILSAFE)

    def map_memory_bytes(self) -> int:
        return self.mapping.memory_bytes()
