"""The mission loop as it was when it rendered depth at every depth tick
and flew unfaulted runs without a fault harness.

``ReferenceMissionRunner`` is ``MissionRunner`` with the ``run`` loop it
had before depth was rendered only for a reader: at every depth tick both
depth cameras capture and the merged cloud goes through the fault harness
to ``LandingSystem.process_cloud``, whether or not the system maps clouds
or an armed depth fault reads them.  Given no harness it keeps the
hook-free path of that time: ``fault_harness`` is ``None``, no hook runs,
and ``_build_record`` classifies the record itself instead of through
``FaultHarness.finalize``.  Only ``__init__``, ``run`` and
``_build_record`` are its own; the helpers they call are the runner's.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.metrics import DetectionStats, ResourceStats, RunOutcome, RunRecord
from repro.core.mission import MissionRunner
from repro.core.platform import TickBudget
from repro.core.states import DecisionState
from repro.faults.classifier import classify_record
from repro.vehicle.autopilot import FlightMode


class ReferenceMissionRunner(MissionRunner):
    """``MissionRunner`` whose depth tick always renders and which, given
    no harness, runs no hooks."""

    def __init__(self, *args, fault_harness=None, **kwargs) -> None:
        super().__init__(*args, fault_harness=fault_harness, **kwargs)
        if fault_harness is None:
            # The runner built and attached an empty harness, which wraps
            # nothing; drop it so the loop below takes its hook-free path.
            self.fault_harness = None

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

            # Depth sensing and mapping at its own (lower) rate.
            if time_now >= next_depth and not budget.skip_mapping:
                next_depth = time_now + mission.depth_period
                estimate = self.autopilot.estimated_state
                if harness is not None:
                    _t = perf_counter()
                    estimate = harness.filter_estimate(estimate, time_now)
                    rec.add("harness", _t)
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
                if harness is not None:
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
                if harness is not None:
                    _t = perf_counter()
                    harness.corrupt_mapping(self.system, estimate, time_now)
                    rec.add("harness", _t)

            # Perception + decision at the decision rate.
            if time_now >= next_decision:
                next_decision = time_now + mission.decision_period
                estimate = self.autopilot.estimated_state
                if harness is not None:
                    _t = perf_counter()
                    estimate = harness.filter_estimate(estimate, time_now)
                    rec.add("harness", _t)
                _t = perf_counter()
                frame = self.camera.capture(
                    self.world, state.pose, estimated_pose=estimate.pose, timestamp=time_now
                )
                rec.add("sense", _t)
                rec.count("frames-rendered")
                if harness is not None:
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
                if harness is not None:
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
        if self.fault_harness is not None:
            # Stamps injected-fault metadata and the failure-mode label.
            self.fault_harness.finalize(record)
        else:
            record.failure_mode = classify_record(record).value
        return record
