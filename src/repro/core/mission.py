"""Mission runner: executes one scenario with one landing-system generation.

The runner owns the ground-truth world, the simulated flight stack and the
sensors; the landing system only ever receives sensor products and the state
estimate.  After the run it classifies the outcome the way the paper's tables
do (success / failure-by-collision / failure-by-poor-landing) and collects the
detection and resource statistics the other tables need.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

from repro.core.commands import Command, CommandKind
from repro.core.config import LandingSystemConfig
from repro.core.landing_system import LandingSystem
from repro.core.metrics import DetectionStats, ResourceStats, RunOutcome, RunRecord
from repro.core.platform import DesktopPlatform, ExecutionPlatform, TickBudget
from repro.core.states import DecisionState
from repro.obs.trace import FlightRecorder
from repro.sensors.camera import CameraFrame, DownwardCamera
from repro.sensors.depth import DepthCamera
from repro.vehicle.autopilot import Autopilot, AutopilotConfig, FlightMode
from repro.world.scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.harness import FaultHarness


@dataclass
class MissionConfig:
    """Timing and termination settings of a mission run."""

    physics_dt: float = 0.04            # 25 Hz vehicle dynamics
    decision_period: float = 0.2        # 5 Hz decision / perception rate
    depth_period: float = 0.4           # 2.5 Hz occupancy-map updates
    max_mission_time: float = 240.0
    collision_margin: float = 0.05
    success_radius: float = 1.0         # landing within this distance = success
    min_marker_pixels_for_visibility: float = 7.0
    end_on_failsafe: bool = True
    camera_seed: int = 0


class MissionRunner:
    """Runs one scenario end-to-end."""

    def __init__(
        self,
        scenario: Scenario,
        system_config: LandingSystemConfig,
        mission_config: MissionConfig | None = None,
        platform: ExecutionPlatform | None = None,
        detector_network=None,
        fault_harness: "FaultHarness | None" = None,
    ) -> None:
        self.scenario = scenario
        self.system_config = system_config
        self.mission_config = mission_config or MissionConfig()
        self.platform = platform or DesktopPlatform()
        self.world = scenario.build_world()
        if fault_harness is None:
            # Deferred import: the fault subsystem imports this module's
            # config types.  An empty harness injects nothing and classifies
            # the record, so every run takes the same hooks.
            from repro.faults.harness import FaultHarness

            fault_harness = FaultHarness((), scenario_fingerprint=scenario.fingerprint())
        #: The run's fault harness; owned like the flight recorder.
        self.fault_harness = fault_harness
        #: The run's flight recorder (see :mod:`repro.obs.trace`): phase
        #: spans, frame and cloud counters and nominal module costs.  Strictly
        #: a side channel: it only ever receives wall-clock span durations and
        #: event counts, so it cannot change a single record byte.
        self.recorder = FlightRecorder(
            counters=("frames-rendered", "frames-lost", "depth-captures", "clouds-lost")
        )

        self.autopilot = Autopilot(
            self.world,
            config=AutopilotConfig(
                takeoff_altitude=system_config.cruise_altitude,
                imu_quality=self.platform.imu_quality,
            ),
            home=scenario.start_position,
            seed=scenario.seed,
        )
        self.camera = DownwardCamera(seed=scenario.seed + self.mission_config.camera_seed)
        self.depth_forward = DepthCamera(facing="forward", seed=scenario.seed + 11)
        self.depth_down = DepthCamera(facing="down", seed=scenario.seed + 12)

        self.system = LandingSystem(
            config=system_config,
            target_marker_id=self._target_marker_id(),
            gps_target=scenario.gps_target,
            home=scenario.start_position,
            seed=scenario.seed,
            detector_network=detector_network,
        )
        # Injectors wrap the registry-built components at the interfaces the
        # registry declares; the harness sees sensor products and the estimate
        # only — the same boundary discipline as the system.
        fault_harness.attach(self.system)
        self.platform.bind(self.system)

    def _target_marker_id(self) -> int:
        marker = self.world.target_marker
        if marker is None:
            raise ValueError("scenario world has no target marker")
        return marker.marker_id

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self) -> RunRecord:
        """Execute the mission and return its record."""
        mission = self.mission_config
        detection_stats = DetectionStats()
        resource_stats = ResourceStats()

        self.autopilot.arm_and_takeoff(self.system_config.cruise_altitude)

        time_now = 0.0
        next_decision = 0.0
        next_depth = 0.0
        collided = False
        collision_name = ""
        budget = TickBudget()

        # Every phase is timed into the flight recorder, which only sees
        # perf_counter durations and event counts and reads no RNG.
        rec = self.recorder
        harness = self.fault_harness
        # Depth is rendered only for a reader: a system that maps clouds or
        # an armed depth fault.  Each depth camera draws from its own
        # generator, so a skipped capture moves no other draw.
        render_depth = self.system.mapping.maps_clouds or harness.reads_clouds

        while time_now < mission.max_mission_time:
            time_now += mission.physics_dt
            _t = perf_counter()
            state = self.autopilot.step(mission.physics_dt)
            rec.add("physics", _t)

            # Ground-truth collision monitoring (only while airborne).
            if state.position.z > 0.25:
                obstacle = self.world.colliding_obstacle(
                    state.position, margin=mission.collision_margin
                )
                if obstacle is not None:
                    collided = True
                    collision_name = obstacle.name
                    break

            if self.autopilot.mode is FlightMode.TAKEOFF:
                continue

            if self.autopilot.is_landed:
                break

            # Depth sensing and mapping at its own (lower) rate.  The
            # estimate and mapping hooks run at every depth tick, rendered or
            # not: armed vehicle and mapping faults count events there.
            if time_now >= next_depth and not budget.skip_mapping:
                next_depth = time_now + mission.depth_period
                estimate = self.autopilot.estimated_state
                _t = perf_counter()
                estimate = harness.filter_estimate(estimate, time_now)
                rec.add("harness", _t)
                if render_depth:
                    _t = perf_counter()
                    cloud = self.depth_forward.capture(
                        self.world, state.pose, estimated_pose=estimate.pose, timestamp=time_now
                    )
                    cloud_down = self.depth_down.capture(
                        self.world, state.pose, estimated_pose=estimate.pose, timestamp=time_now
                    )
                    merged = cloud.merged_with(cloud_down)
                    rec.add("sense", _t)
                    rec.count("depth-captures")
                    _t = perf_counter()
                    merged = harness.filter_cloud(merged, time_now)
                    rec.add("harness", _t)
                    if merged is not None:
                        _t = perf_counter()
                        self.system.process_cloud(merged, estimate)
                        rec.add("map", _t)
                    else:
                        # Cloud lost to a sensor fault: no fusion, no cost.
                        self.system.last_timings.mapping = 0.0
                        rec.count("clouds-lost")
                _t = perf_counter()
                harness.corrupt_mapping(self.system, estimate, time_now)
                rec.add("harness", _t)

            # Perception + decision at the decision rate.
            if time_now >= next_decision:
                next_decision = time_now + mission.decision_period
                estimate = self.autopilot.estimated_state
                _t = perf_counter()
                estimate = harness.filter_estimate(estimate, time_now)
                rec.add("harness", _t)
                _t = perf_counter()
                frame = self.camera.capture(
                    self.world, state.pose, estimated_pose=estimate.pose, timestamp=time_now
                )
                rec.add("sense", _t)
                rec.count("frames-rendered")
                _t = perf_counter()
                frame = harness.filter_frame(frame, time_now)
                rec.add("harness", _t)
                if frame is not None:
                    _t = perf_counter()
                    result = self.system.process_frame(frame)
                    self._score_detections(frame, result, detection_stats)
                    rec.add("detect", _t)
                else:
                    # Frame lost to a sensor fault: no detection ran this
                    # tick, so no detection cost either (process_frame is
                    # what normally refreshes the timing each tick).
                    self.system.last_timings.detection = 0.0
                    rec.count("frames-lost")

                _t = perf_counter()
                command = self.system.decide(
                    estimate, time_now, allow_replan=budget.allow_replan
                )
                rec.add("plan", _t)
                _t = perf_counter()
                command = harness.filter_command(command, time_now)
                harness.adjust_timings(self.system.last_timings, time_now)
                rec.add("harness", _t)
                _t = perf_counter()
                self._apply_command(command)

                budget = self.platform.schedule_tick(
                    self.system.last_timings, mission.decision_period
                )
                rec.add("control", _t)
                timings = self.system.last_timings
                rec.charge_nominal(timings.detection, timings.mapping, timings.planning)
                resource_stats.cpu_utilisation_samples.append(budget.cpu_utilisation)
                resource_stats.memory_mb_samples.append(budget.memory_mb)
                resource_stats.gpu_utilisation_samples.append(budget.gpu_utilisation)
                if budget.deadline_missed:
                    resource_stats.deadline_misses += 1

                if self.system.state is DecisionState.FAILSAFE and mission.end_on_failsafe:
                    break

        return self._build_record(
            time_now, collided, collision_name, detection_stats, resource_stats
        )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _apply_command(self, command: Command) -> None:
        if command.kind is CommandKind.SETPOINT and command.setpoint is not None:
            self.autopilot.set_position_setpoint(
                command.setpoint, yaw=command.yaw, speed_limit=command.speed_limit
            )
        elif command.kind is CommandKind.LAND:
            self.autopilot.command_land()
        elif command.kind is CommandKind.RETURN:
            self.autopilot.command_return()

    def _score_detections(
        self, frame: CameraFrame, result, stats: DetectionStats
    ) -> None:
        """Score the frame against ground truth for the Table II statistics."""
        target = self.world.target_marker
        if target is None:
            return
        visible = any(m.marker_id == target.marker_id for m in frame.visible_markers)
        if not visible:
            return
        # Require a minimally resolvable apparent size, as the paper's FN rate
        # is computed over frames where detection is plausible at all.
        altitude = max(frame.camera_pose.position.z, 1e-3)
        apparent = frame.intrinsics.pixels_per_meter(altitude) * target.size
        if apparent < self.mission_config.min_marker_pixels_for_visibility:
            return
        stats.frames_with_visible_marker += 1

        matched = False
        for detection in result.detections:
            deviation = detection.world_position.horizontal_distance_to(target.position)
            if deviation <= 2.0:
                matched = True
                stats.deviation_samples.append(deviation)
                break
        if matched:
            stats.frames_detected += 1
        for detection in result.detections:
            if detection.marker_id == target.marker_id:
                continue
            if detection.world_position.horizontal_distance_to(target.position) > 3.0:
                stats.false_positive_frames += 1
                break

    def _build_record(
        self,
        mission_time: float,
        collided: bool,
        collision_name: str,
        detection_stats: DetectionStats,
        resource_stats: ResourceStats,
    ) -> RunRecord:
        target = self.world.target_marker
        final_position = self.autopilot.true_state.position
        landed = self.autopilot.is_landed
        landing_error = (
            final_position.horizontal_distance_to(target.position)
            if target is not None
            else float("nan")
        )

        if collided:
            outcome = RunOutcome.COLLISION
            reason = f"collision with {collision_name}"
        elif (
            landed
            and target is not None
            and landing_error <= self.mission_config.success_radius
            and self.world.is_valid_landing_point(final_position)
        ):
            outcome = RunOutcome.SUCCESS
            reason = ""
        else:
            outcome = RunOutcome.POOR_LANDING
            if not landed:
                reason = (
                    "failsafe abort"
                    if self.system.state is DecisionState.FAILSAFE
                    else "mission timeout"
                )
            else:
                reason = "landed away from the marker"

        failsafe_reason = ""
        for transition in self.system.transitions:
            if transition.to_state is DecisionState.FAILSAFE:
                failsafe_reason = transition.reason
                break

        record = RunRecord(
            scenario_id=self.scenario.scenario_id,
            system_name=self.system_config.name,
            outcome=outcome,
            landing_error=landing_error if landed else float("nan"),
            collided=collided,
            collision_obstacle=collision_name,
            landed=landed,
            mission_time=mission_time,
            detection=detection_stats,
            resources=resource_stats,
            planner_failures=self.system.planner_failures,
            planner_fallbacks=self.system.planner_fallbacks,
            aborts=self.system.aborts,
            adverse_weather=self.scenario.is_adverse_weather,
            failure_reason=reason,
            failsafe_action=(
                self.system.failsafe_action.value
                if self.system.failsafe_action is not None
                else ""
            ),
            failsafe_reason=failsafe_reason,
        )
        # Stamps injected-fault metadata and the failure-mode label.
        self.fault_harness.finalize(record)
        return record


def run_scenario(
    scenario: Scenario,
    system_config: LandingSystemConfig,
    mission_config: MissionConfig | None = None,
    platform: ExecutionPlatform | None = None,
    detector_network=None,
) -> RunRecord:
    """Convenience wrapper: build a runner and execute the scenario once."""
    runner = MissionRunner(
        scenario,
        system_config,
        mission_config=mission_config,
        platform=platform,
        detector_network=detector_network,
    )
    return runner.run()
