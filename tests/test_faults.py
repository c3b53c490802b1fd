"""Tests for the deterministic fault-injection subsystem (repro.faults)."""

from __future__ import annotations

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.campaign import Campaign, campaign_context_fingerprint
from repro.core.commands import Command, CommandKind
from repro.core.metrics import (
    RECORD_FACTORS,
    RESULT_SCHEMA_VERSION,
    RunOutcome,
    RunRecord,
    append_record_jsonl,
    read_campaign_jsonl,
)
from repro.core.config import mls_v1
from repro.core.landing_system import LandingSystem
from repro.core.mission import MissionConfig, MissionRunner
from repro.core.registry import MappingStack
from repro.faults.classifier import FailureMode, classify_record, failure_mode_label
from repro.faults.coverage import accumulate_coverage, render_coverage_report
from repro.faults.harness import FaultHarness, FaultyDetector, FaultyPlanner, _ActiveFault
from repro.faults.spec import (
    FAULT_MODES,
    FAULT_PRESETS,
    FaultSpec,
    dump_fault_plan,
    fault_run_seed,
    load_fault_plan,
    resolve_faults,
)
from repro.geometry import Pose, Vec3
from repro.mapping.voxel_grid import VoxelGrid
from repro.perception.detection import Detection, DetectionFrame
from repro.planning.types import PlannerStatus, PlanningResult
from repro.sensors.camera import CameraFrame, CameraIntrinsics
from repro.sensors.depth import PointCloud
from repro.vehicle.state import EstimatedState
from repro.world.scenario_gen import SuiteSpec, generate_suite

FP = "0123456789abcdef"  # stand-in scenario fingerprint


def make_frame(timestamp: float = 0.0, altitude: float = 10.0) -> CameraFrame:
    intr = CameraIntrinsics(width=8, height=8)
    return CameraFrame(
        image=np.full((8, 8), 0.5),
        camera_pose=Pose.at(Vec3(0.0, 0.0, altitude)),
        intrinsics=intr,
        timestamp=timestamp,
    )


def make_estimate(altitude: float = 10.0) -> EstimatedState:
    return EstimatedState(position=Vec3(1.0, 2.0, altitude))


def harness_for(*specs: FaultSpec, repetition: int = 0) -> FaultHarness:
    harness = FaultHarness(specs, scenario_fingerprint=FP, repetition=repetition)
    # Establish a finite estimated altitude so altitude gating is defined.
    harness.filter_estimate(make_estimate(), 0.0)
    return harness


# --------------------------------------------------------------------- #
# specs
# --------------------------------------------------------------------- #
class TestFaultSpec:
    def test_defaults_and_derived_name(self):
        spec = FaultSpec(target="camera", mode="freeze")
        assert spec.name == "camera-freeze"
        assert 0.0 <= spec.severity <= 1.0

    def test_every_registered_mode_is_constructible(self):
        for target, modes in FAULT_MODES.items():
            for mode in modes:
                assert FaultSpec(target=target, mode=mode).spec_hash()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target": "nope", "mode": "freeze"},
            {"target": "camera", "mode": "nope"},
            {"target": "camera", "mode": "freeze", "severity": 1.5},
            {"target": "camera", "mode": "freeze", "probability": -0.1},
            {"target": "camera", "mode": "freeze", "start": -1.0},
            {"target": "camera", "mode": "freeze", "duration": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_round_trip(self):
        spec = FaultSpec(
            target="planning", mode="timeout", severity=0.3,
            start=None, duration=None, below_altitude=6.0, probability=0.5,
            name="flaky-planner",
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown FaultSpec keys"):
            FaultSpec.from_dict({"target": "camera", "mode": "freeze", "oops": 1})

    def test_spec_hash_is_content_sensitive(self):
        a = FaultSpec(target="camera", mode="freeze")
        b = FaultSpec(target="camera", mode="freeze", severity=0.9)
        assert a.spec_hash() != b.spec_hash()
        assert a.spec_hash() == FaultSpec(target="camera", mode="freeze").spec_hash()

    def test_fault_plan_file_round_trip(self, tmp_path):
        specs = FAULT_PRESETS["sensor"]
        path = dump_fault_plan(specs, tmp_path / "plan.json")
        assert load_fault_plan(path) == specs

    def test_duplicate_fault_names_rejected(self):
        mild = FaultSpec(target="camera", mode="dropout", severity=0.3)
        harsh = FaultSpec(target="camera", mode="dropout", severity=0.9)
        # Both auto-named "camera-dropout": coverage rows would conflate.
        with pytest.raises(ValueError, match="duplicate fault names"):
            Campaign("mls-v1").faults(mild, harsh)
        with pytest.raises(ValueError, match="duplicate fault names"):
            FaultHarness([mild, harsh], scenario_fingerprint=FP)
        # Explicit names make the sweep legal.
        Campaign("mls-v1").faults(
            replace(mild, name="dropout-mild"), replace(harsh, name="dropout-harsh")
        )

    def test_resolve_faults(self, tmp_path):
        spec = FaultSpec(target="camera", mode="dropout")
        assert resolve_faults(spec) == (spec,)
        assert resolve_faults("smoke") == FAULT_PRESETS["smoke"]
        assert resolve_faults([spec, "vehicle"]) == (spec,) + FAULT_PRESETS["vehicle"]
        path = dump_fault_plan((spec,), tmp_path / "f.json")
        assert resolve_faults(str(path)) == (spec,)
        with pytest.raises(ValueError, match="unknown fault preset"):
            resolve_faults("not-a-preset")


# --------------------------------------------------------------------- #
# scheduling determinism
# --------------------------------------------------------------------- #
class TestScheduling:
    def test_seed_depends_on_scenario_repetition_and_spec(self):
        spec = FaultSpec(target="camera", mode="dropout")
        base = fault_run_seed(spec, FP, 0)
        assert fault_run_seed(spec, FP, 0) == base
        assert fault_run_seed(spec, FP, 1) != base
        assert fault_run_seed(spec, "feedbeef" * 2, 0) != base
        assert fault_run_seed(replace(spec, severity=0.9), FP, 0) != base

    def test_arming_is_deterministic(self):
        spec = FaultSpec(target="camera", mode="dropout", probability=0.5)
        armings = [_ActiveFault(spec, FP, rep).armed for rep in range(32)]
        assert armings == [_ActiveFault(spec, FP, rep).armed for rep in range(32)]
        assert any(armings) and not all(armings)  # p=0.5 over 32 reps

    def test_probability_zero_never_arms(self):
        fault = _ActiveFault(
            FaultSpec(target="camera", mode="dropout", probability=0.0), FP, 0
        )
        assert not fault.armed
        assert not fault.active(30.0, 10.0)
        assert fault.metadata()["armed"] is False

    def test_window_gating(self):
        fault = _ActiveFault(
            FaultSpec(target="camera", mode="dropout", start=10.0, duration=5.0), FP, 0
        )
        assert not fault.active(9.9, 10.0)
        assert fault.active(10.0, 10.0)
        assert fault.active(14.9, 10.0)
        assert not fault.active(15.0, 10.0)
        meta = fault.metadata()
        assert meta["activated"] and meta["first_active"] == 10.0

    def test_open_ended_duration(self):
        fault = _ActiveFault(
            FaultSpec(target="camera", mode="dropout", start=1.0, duration=None), FP, 0
        )
        assert fault.active(1e6, 10.0)

    def test_drawn_start_is_deterministic(self):
        spec = FaultSpec(target="camera", mode="dropout", start=None)
        a = _ActiveFault(spec, FP, 0)
        assert 10.0 <= a.start <= 120.0
        assert a.start == _ActiveFault(spec, FP, 0).start
        assert a.start != _ActiveFault(spec, FP, 1).start

    def test_altitude_trigger(self):
        spec = FaultSpec(
            target="camera", mode="dropout", start=0.0, duration=None,
            below_altitude=5.0, severity=1.0,
        )
        harness = FaultHarness([spec], scenario_fingerprint=FP)
        # No estimate seen yet: altitude unknown (treated as high), no fault.
        assert harness.filter_frame(make_frame(1.0), 1.0) is not None
        harness.filter_estimate(make_estimate(altitude=3.0), 2.0)
        assert harness.filter_frame(make_frame(2.2), 2.2) is None


# --------------------------------------------------------------------- #
# injectors
# --------------------------------------------------------------------- #
class TestCameraInjectors:
    def test_dropout_full_severity_drops_every_frame(self):
        harness = harness_for(
            FaultSpec(target="camera", mode="dropout", severity=1.0, start=5.0, duration=10.0)
        )
        assert harness.filter_frame(make_frame(1.0), 1.0) is not None
        assert harness.filter_frame(make_frame(6.0), 6.0) is None
        assert harness.filter_frame(make_frame(20.0), 20.0) is not None

    def test_freeze_redelivers_the_pre_fault_frame(self):
        harness = harness_for(
            FaultSpec(target="camera", mode="freeze", start=5.0, duration=10.0)
        )
        before = make_frame(1.0)
        assert harness.filter_frame(before, 1.0) is before
        frozen = harness.filter_frame(make_frame(6.0), 6.0)
        assert frozen is before  # stale frame, stale timestamp
        after = make_frame(20.0)
        assert harness.filter_frame(after, 20.0) is after

    def test_bias_offsets_the_back_projection_pose(self):
        harness = harness_for(
            FaultSpec(target="camera", mode="bias", severity=1.0, start=0.0, duration=None)
        )
        frame = make_frame(1.0)
        biased = harness.filter_frame(frame, 1.0)
        shift = biased.camera_pose.position - frame.camera_pose.position
        assert shift.norm() > 1.0
        assert np.array_equal(biased.image, frame.image)

    def test_noise_burst_perturbs_and_clips_the_image(self):
        harness = harness_for(
            FaultSpec(target="camera", mode="noise-burst", severity=1.0, start=0.0, duration=None)
        )
        frame = make_frame(1.0)
        noisy = harness.filter_frame(frame, 1.0)
        assert not np.array_equal(noisy.image, frame.image)
        assert float(noisy.image.min()) >= 0.0 and float(noisy.image.max()) <= 1.0


class TestDepthInjectors:
    def make_cloud(self, t=1.0):
        return PointCloud(points=[Vec3(1.0, 2.0, 3.0), Vec3(4.0, 5.0, 6.0)], timestamp=t)

    def test_dropout(self):
        harness = harness_for(
            FaultSpec(target="depth", mode="dropout", severity=1.0, start=0.0, duration=None)
        )
        assert harness.filter_cloud(self.make_cloud(), 1.0) is None

    def test_freeze(self):
        harness = harness_for(
            FaultSpec(target="depth", mode="freeze", start=5.0, duration=None)
        )
        before = self.make_cloud(1.0)
        harness.filter_cloud(before, 1.0)
        assert harness.filter_cloud(self.make_cloud(6.0), 6.0) is before

    def test_bias_shifts_every_point_identically(self):
        harness = harness_for(
            FaultSpec(target="depth", mode="bias", severity=1.0, start=0.0, duration=None)
        )
        cloud = self.make_cloud()
        shifted = harness.filter_cloud(cloud, 1.0)
        deltas = [s - p for s, p in zip(shifted.points, cloud.points)]
        assert deltas[0].norm() > 0.5
        assert (deltas[0] - deltas[1]).norm() < 1e-12

    def test_noise_burst_jitters_points(self):
        harness = harness_for(
            FaultSpec(target="depth", mode="noise-burst", severity=1.0, start=0.0, duration=None)
        )
        cloud = self.make_cloud()
        jittered = harness.filter_cloud(cloud, 1.0)
        assert len(jittered.points) == len(cloud.points)
        assert any((s - p).norm() > 1e-6 for s, p in zip(jittered.points, cloud.points))

    def test_reads_clouds_only_with_an_armed_depth_fault(self):
        depth = FaultSpec(target="depth", mode="dropout", severity=1.0, start=0.0, duration=None)
        camera = FaultSpec(target="camera", mode="dropout", start=0.0, duration=None)
        assert harness_for(depth).reads_clouds
        assert harness_for(camera, depth).reads_clouds
        assert not harness_for().reads_clouds
        assert not harness_for(camera).reads_clouds
        disarmed = harness_for(replace(depth, probability=0.0))
        assert not disarmed.reads_clouds
        # What it promises: a disarmed depth fault passes every cloud through.
        cloud = self.make_cloud()
        assert disarmed.filter_cloud(cloud, 1.0) is cloud
        assert disarmed.faults[0].events == 0


class _FixedDetector:
    marker_word = "inner-attr"

    def __init__(self, detections):
        self.detections = detections

    def detect(self, frame):
        return DetectionFrame(timestamp=frame.timestamp, detections=list(self.detections))


class TestFrozenClockInterplay:
    def test_perception_windows_use_mission_time_not_frame_timestamp(self):
        # A frozen camera frame carries a stale timestamp; perception fault
        # windows must still be evaluated on mission time.
        harness = harness_for(
            FaultSpec(target="camera", mode="freeze", start=5.0, duration=None),
            FaultSpec(target="perception", mode="phantom-detection", severity=1.0,
                      start=50.0, duration=None),
        )
        detector = FaultyDetector(_FixedDetector([]), harness)
        harness.filter_frame(make_frame(1.0), 1.0)  # stored as the frozen frame
        phantoms = []
        for tick in range(30):
            now = 60.0 + tick
            harness.filter_estimate(make_estimate(), now)
            delivered = harness.filter_frame(make_frame(now), now)
            assert delivered.timestamp == 1.0  # frozen
            phantoms.extend(detector.detect(delivered).detections)
        assert phantoms  # the phantom window [50, inf) is active at t=60+


class TestPerceptionInjectors:
    def detection(self):
        return Detection(
            marker_id=7, pixel_center=(4.0, 4.0), pixel_size=6.0,
            world_position=Vec3(1.0, 1.0, 0.0),
        )

    def test_missed_detection_drops_everything_at_full_severity(self):
        harness = harness_for(
            FaultSpec(target="perception", mode="missed-detection", severity=1.0,
                      start=0.0, duration=None)
        )
        detector = FaultyDetector(_FixedDetector([self.detection()]), harness)
        assert detector.detect(make_frame(1.0)).detections == []

    def test_phantom_detection_adds_plausible_detections(self):
        harness = harness_for(
            FaultSpec(target="perception", mode="phantom-detection", severity=1.0,
                      start=0.0, duration=None)
        )
        detector = FaultyDetector(_FixedDetector([]), harness)
        frames = [detector.detect(make_frame(float(t))) for t in range(1, 30)]
        phantoms = [d for frame in frames for d in frame.detections]
        assert phantoms  # severity 1.0 -> ~65% of frames get one
        for phantom in phantoms:
            assert 0.6 <= phantom.confidence <= 0.95
            assert phantom.world_position.z == 0.0

    def test_wrapper_forwards_unknown_attributes(self):
        harness = harness_for(
            FaultSpec(target="perception", mode="missed-detection")
        )
        detector = FaultyDetector(_FixedDetector([]), harness)
        assert detector.marker_word == "inner-attr"

    def test_latency_spike_adjusts_timings_only(self):
        harness = harness_for(
            FaultSpec(target="perception", mode="latency-spike", severity=1.0,
                      start=0.0, duration=None)
        )
        timings = SimpleNamespace(detection=0.01, mapping=0.0, planning=0.0)
        harness.adjust_timings(timings, 1.0)
        assert timings.detection == pytest.approx(0.51)


class _FixedPlanner:
    def __init__(self):
        self.calls = 0

    def plan(self, problem):
        self.calls += 1
        return PlanningResult(
            status=PlannerStatus.SUCCESS, waypoints=[Vec3.zero(), Vec3(1, 0, 0)]
        )


class TestPlanningInjectors:
    def test_timeout_forces_failure_inside_window(self):
        harness = harness_for(
            FaultSpec(target="planning", mode="timeout", severity=1.0, start=0.0, duration=None)
        )
        inner = _FixedPlanner()
        planner = FaultyPlanner(inner, harness)
        result = planner.plan(SimpleNamespace(time_budget=0.25))
        assert result.status is PlannerStatus.TIMEOUT
        assert not result.succeeded
        assert inner.calls == 0  # the real planner never ran

    def test_infeasible_reports_no_path(self):
        harness = harness_for(
            FaultSpec(target="planning", mode="infeasible", severity=1.0, start=0.0, duration=None)
        )
        result = FaultyPlanner(_FixedPlanner(), harness).plan(SimpleNamespace(time_budget=0.1))
        assert result.status is PlannerStatus.NO_PATH_FOUND

    def test_pass_through_outside_window(self):
        harness = harness_for(
            FaultSpec(target="planning", mode="timeout", severity=1.0, start=100.0, duration=5.0)
        )
        inner = _FixedPlanner()
        result = FaultyPlanner(inner, harness).plan(SimpleNamespace(time_budget=0.1))
        assert result.succeeded and inner.calls == 1


class TestVehicleInjectors:
    def test_ekf_reset_offsets_then_reconverges(self):
        harness = FaultHarness(
            [FaultSpec(target="vehicle", mode="ekf-reset", severity=1.0,
                       start=10.0, duration=None)],
            scenario_fingerprint=FP,
        )
        clean = make_estimate()
        assert harness.filter_estimate(clean, 1.0).position == clean.position
        jump = harness.filter_estimate(clean, 10.0).position - clean.position
        later = harness.filter_estimate(clean, 60.0).position - clean.position
        assert jump.norm() > 1.0
        assert later.norm() < jump.norm()  # EKF re-convergence decay

    def test_command_delay_queues_commands(self):
        harness = harness_for(
            FaultSpec(target="vehicle", mode="command-delay", severity=0.5,
                      start=0.0, duration=None)
        )
        sent = [Command.setpoint_at(Vec3(float(i), 0.0, 5.0)) for i in range(5)]
        received = [harness.filter_command(cmd, float(i)) for i, cmd in enumerate(sent)]
        assert all(cmd.kind is CommandKind.NONE for cmd in received[:3])
        assert received[3] is sent[0]
        assert received[4] is sent[1]

    def test_disjoint_command_delay_windows_do_not_clobber_each_other(self):
        # Queues are per fault: an inactive delay spec must not destroy an
        # active one's pending commands (which turned a delay into a full
        # command blackout).
        harness = harness_for(
            FaultSpec(target="vehicle", mode="command-delay", severity=0.5,
                      start=0.0, duration=50.0, name="d1"),
            FaultSpec(target="vehicle", mode="command-delay", severity=0.5,
                      start=100.0, duration=50.0, name="d2"),
        )
        sent = [Command.setpoint_at(Vec3(float(i), 0.0, 5.0)) for i in range(6)]
        received = [harness.filter_command(cmd, float(i)) for i, cmd in enumerate(sent)]
        # Identical to the single-spec behavior: delayed by depth 3.
        assert all(cmd.kind is CommandKind.NONE for cmd in received[:3])
        assert received[3] is sent[0]
        assert received[4] is sent[1]
        assert received[5] is sent[2]


class TestMappingInjector:
    def test_cell_corruption_marks_phantom_cells(self):
        harness = harness_for(
            FaultSpec(target="mapping", mode="cell-corruption", severity=1.0,
                      start=0.0, duration=None)
        )
        grid = VoxelGrid()
        system = SimpleNamespace(mapping=MappingStack(local_grid=grid, primary=grid))
        estimate = make_estimate(altitude=8.0)
        before = grid.occupied_voxel_count()
        for tick in range(5):
            harness.corrupt_mapping(system, estimate, float(tick))
        assert grid.occupied_voxel_count() > before

    def test_cell_corruption_feeds_only_the_maps_a_stack_has(self):
        # A custom mapper without a grid or an octree takes clouds on its
        # primary map, phantom ones included.  MLS-V1 maps nothing, so no
        # phantom cloud lands anywhere, yet the fault draws and counts
        # exactly as it does on the stack that takes them.
        class CloudLog:
            def __init__(self):
                self.clouds = []

            def integrate_cloud(self, cloud):
                self.clouds.append(cloud)

        v1 = LandingSystem(mls_v1(), target_marker_id=7, gps_target=Vec3(20.0, 0.0, 0.0))
        log = CloudLog()
        faults = []
        for system in (v1, SimpleNamespace(mapping=MappingStack(primary=log))):
            harness = harness_for(
                FaultSpec(target="mapping", mode="cell-corruption", severity=1.0,
                          start=0.0, duration=None)
            )
            for tick in range(3):
                harness.corrupt_mapping(system, make_estimate(altitude=8.0), float(tick))
            faults.append(harness.faults[0])
        unmapped, fed = faults
        assert [len(cloud.points) for cloud in log.clouds] == [7, 7, 7]
        assert not v1.mapping.maps_clouds and v1.map_memory_bytes() == 0
        assert unmapped.events == fed.events == 21
        assert unmapped.rng.random() == fed.rng.random()


# --------------------------------------------------------------------- #
# classification
# --------------------------------------------------------------------- #
def record_with(**kwargs) -> RunRecord:
    defaults = dict(
        scenario_id="s", system_name="MLS-V3", outcome=RunOutcome.SUCCESS
    )
    defaults.update(kwargs)
    return RunRecord(**defaults)


class TestClassifier:
    def test_crash(self):
        record = record_with(outcome=RunOutcome.COLLISION, collided=True)
        assert classify_record(record) is FailureMode.CRASH

    def test_unsafe_landing(self):
        record = record_with(outcome=RunOutcome.POOR_LANDING, landed=True)
        assert classify_record(record) is FailureMode.UNSAFE_LANDING

    def test_safe_failsafe(self):
        record = record_with(
            outcome=RunOutcome.POOR_LANDING, landed=False,
            failsafe_action="return_home", failure_reason="failsafe abort",
        )
        assert classify_record(record) is FailureMode.SAFE_FAILSAFE

    def test_nominal_success(self):
        assert classify_record(record_with()) is FailureMode.NOMINAL

    def test_degraded_success_with_activated_fault(self):
        record = record_with(
            injected_faults=[{"name": "camera-freeze", "activated": True}]
        )
        assert classify_record(record) is FailureMode.DEGRADED_SUCCESS

    def test_unactivated_fault_stays_nominal(self):
        record = record_with(
            injected_faults=[{"name": "camera-freeze", "activated": False}]
        )
        assert classify_record(record) is FailureMode.NOMINAL

    def test_degraded_success_from_aborts(self):
        assert classify_record(record_with(aborts=1)) is FailureMode.DEGRADED_SUCCESS

    def test_label_prefers_persisted_mode(self):
        record = record_with(failure_mode="crash")
        assert failure_mode_label(record) == "crash"
        record = record_with()  # legacy/no stamp: classified on the fly
        assert failure_mode_label(record) == "nominal"

    def test_failure_cause_factor(self):
        record = record_with(failsafe_reason="search timeout")
        assert RECORD_FACTORS["failure-cause"](record) == ("search timeout",)
        assert RECORD_FACTORS["failure-cause"](record_with()) == ("(none)",)


# --------------------------------------------------------------------- #
# coverage
# --------------------------------------------------------------------- #
class TestCoverage:
    def fault_meta(self, activated=True, name="camera-freeze", target="camera"):
        return {
            "name": name, "target": target, "mode": "freeze", "severity": 0.8,
            "armed": True, "activated": activated,
            "first_active": 25.0 if activated else None,
            "last_active": 30.0 if activated else None,
            "events": 3 if activated else 0,
        }

    def test_partition_and_coverage_math(self):
        records = [
            record_with(  # absorbed (degraded success)
                injected_faults=[self.fault_meta()], failure_mode="degraded-success"
            ),
            record_with(  # detected
                outcome=RunOutcome.POOR_LANDING, failsafe_action="return_home",
                injected_faults=[self.fault_meta()], failure_mode="safe-failsafe",
            ),
            record_with(  # escaped
                outcome=RunOutcome.COLLISION, collided=True,
                injected_faults=[self.fault_meta()], failure_mode="crash",
            ),
            record_with(  # armed but never activated: not in the denominator
                injected_faults=[self.fault_meta(activated=False)],
                failure_mode="nominal",
            ),
        ]
        report = accumulate_coverage(records)
        coverage = report.faults["camera-freeze"]
        assert coverage.runs == 4 and coverage.armed == 4 and coverage.activated == 3
        assert coverage.detected == 1 and coverage.absorbed == 1 and coverage.escaped == 1
        assert coverage.coverage == pytest.approx(2 / 3)
        assert report.overall_coverage == pytest.approx(2 / 3)
        assert report.fault_runs == 4 and report.total_runs == 4

    def test_rendered_report_is_deterministic(self):
        records = [
            record_with(
                injected_faults=[self.fault_meta()], failure_mode="degraded-success"
            )
        ]
        a = render_coverage_report(accumulate_coverage(records))
        b = render_coverage_report(accumulate_coverage(records))
        assert a == b
        assert "Coverage by fault" in a and "camera-freeze" in a

    def test_no_fault_records(self):
        report = accumulate_coverage([record_with()])
        assert report.fault_runs == 0
        assert report.overall_coverage != report.overall_coverage  # NaN


# --------------------------------------------------------------------- #
# persistence
# --------------------------------------------------------------------- #
class TestPersistence:
    def test_schema_version_bumped(self):
        assert RESULT_SCHEMA_VERSION == 2

    def test_round_trip_with_fault_fields(self, tmp_path):
        record = record_with(
            outcome=RunOutcome.POOR_LANDING,
            failsafe_action="return_home",
            failsafe_reason="marker lost during descent",
            failure_mode="safe-failsafe",
            injected_faults=[
                {"name": "camera-freeze", "target": "camera", "mode": "freeze",
                 "severity": 0.8, "armed": True, "activated": True,
                 "first_active": 25.0, "last_active": 30.0, "events": 12}
            ],
        )
        path = tmp_path / "r.jsonl"
        append_record_jsonl(path, "MLS-V3", record)
        header, records, torn = read_campaign_jsonl(path)
        assert header["schema"] == RESULT_SCHEMA_VERSION
        assert not torn and len(records) == 1
        assert records[0].to_dict() == record.to_dict()

    def test_schema1_files_read_with_defaults(self, tmp_path):
        legacy = record_with().to_dict()
        for key in ("failsafe_action", "failsafe_reason", "failure_mode", "injected_faults"):
            legacy.pop(key)
        path = tmp_path / "legacy.jsonl"
        path.write_text(
            json.dumps({"kind": "campaign-result", "schema": 1, "system": "MLS-V3"}) + "\n"
            + json.dumps(legacy) + "\n",
            encoding="utf-8",
        )
        _, records, _ = read_campaign_jsonl(path)
        assert records[0].failsafe_action == ""
        assert records[0].injected_faults == []
        assert failure_mode_label(records[0]) == "nominal"


# --------------------------------------------------------------------- #
# campaign integration
# --------------------------------------------------------------------- #
class TestCampaignIntegration:
    def test_jobs_carry_faults(self):
        campaign = Campaign("mls-v1").suite("smoke").faults("smoke")
        jobs = campaign.jobs()
        assert all(job.faults == FAULT_PRESETS["smoke"] for job in jobs)

    def test_suite_spec_fault_axis_is_inherited_and_overridable(self):
        spec = SuiteSpec(name="faulty", count=2, faults=FAULT_PRESETS["vehicle"])
        campaign = Campaign("mls-v1").suite(spec)
        assert campaign._resolved_faults() == FAULT_PRESETS["vehicle"]
        campaign.faults("sensor")
        assert campaign._resolved_faults() == FAULT_PRESETS["sensor"]
        campaign.faults()  # explicit clear beats the suite axis
        assert campaign._resolved_faults() == ()

    def test_suite_spec_faults_round_trip_and_do_not_change_scenarios(self):
        plain = SuiteSpec(name="x", count=3, seed=5)
        faulty = SuiteSpec(name="x", count=3, seed=5, faults=FAULT_PRESETS["smoke"])
        assert SuiteSpec.from_dict(faulty.to_dict()) == faulty
        assert "faults" not in plain.to_dict()
        a = [s.fingerprint() for s in generate_suite(plain)]
        b = [s.fingerprint() for s in generate_suite(faulty)]
        assert a == b

    def test_context_fingerprint_guards_fault_axis(self):
        mission = MissionConfig()
        base = campaign_context_fingerprint(mission, "desktop")
        with_faults = campaign_context_fingerprint(
            mission, "desktop", FAULT_PRESETS["smoke"]
        )
        assert base != with_faults
        # Fault-free fingerprints are unchanged from the pre-fault layout.
        assert base == campaign_context_fingerprint(mission, "desktop", ())

    def test_analyze_keeps_suite_spec_faults(self, monkeypatch):
        # analyze() swaps the SuiteSpec for its generated suite around run();
        # the spec's fault axis must survive the swap.
        import repro.bench.campaign as campaign_module

        captured: list[tuple] = []

        def fake_execute(job):
            captured.append(job.faults)
            return RunRecord(
                scenario_id=job.scenario.scenario_id,
                system_name=job.system.name,
                outcome=RunOutcome.SUCCESS,
                repetition=job.repetition,
            )

        monkeypatch.setattr(campaign_module, "_execute_job", fake_execute)
        monkeypatch.setattr(campaign_module, "_shared_network", lambda: None)
        spec = SuiteSpec(name="faulty", count=2, faults=FAULT_PRESETS["vehicle"])
        campaign = Campaign("mls-v1").suite(spec)
        campaign.analyze()
        assert captured and all(f == FAULT_PRESETS["vehicle"] for f in captured)
        # The original spec setting (and its fault axis) is restored.
        assert campaign._resolved_faults() == FAULT_PRESETS["vehicle"]

    def test_jobs_remain_picklable_with_faults(self):
        import pickle

        jobs = Campaign("mls-v1").suite("smoke").faults("full").jobs()
        assert pickle.loads(pickle.dumps(jobs[0])).faults == jobs[0].faults


class TestDispatchPlanFaults:
    def test_plan_round_trips_faults(self, tmp_path):
        from repro.dispatch.planner import load_plan, plan_dispatch

        suite = generate_suite("smoke", seed=3)
        plan = plan_dispatch(
            tmp_path, suite, [mls_v1()], shards=2, faults=FAULT_PRESETS["smoke"]
        )
        loaded = load_plan(tmp_path)
        assert loaded.faults == list(FAULT_PRESETS["smoke"])
        assert loaded.fingerprint == plan.fingerprint
        assert loaded.context == plan.context
        payload = json.loads((tmp_path / "plan.json").read_text())
        assert payload["schema"] == 2

    def test_fault_free_plan_keeps_schema_1(self, tmp_path):
        from repro.dispatch.planner import plan_dispatch

        suite = generate_suite("smoke", seed=3)
        plan_dispatch(tmp_path, suite, [mls_v1()], shards=2)
        payload = json.loads((tmp_path / "plan.json").read_text())
        assert payload["schema"] == 1
        assert "faults" not in payload

    def test_different_fault_axis_refuses_replan(self, tmp_path):
        from repro.dispatch.planner import plan_dispatch

        suite = generate_suite("smoke", seed=3)
        plan_dispatch(tmp_path, suite, [mls_v1()], shards=2, faults=FAULT_PRESETS["smoke"])
        with pytest.raises(ValueError, match="different dispatch plan"):
            plan_dispatch(tmp_path, suite, [mls_v1()], shards=2)


# --------------------------------------------------------------------- #
# end-to-end missions (short, real)
# --------------------------------------------------------------------- #
def smoke_scenario():
    return generate_suite("smoke", seed=7).scenarios[0]


class TestMissionIntegration:
    def test_harness_metadata_and_classification_stamped(self):
        scenario = smoke_scenario()
        harness = FaultHarness(
            [FaultSpec(target="camera", mode="dropout", severity=1.0,
                       start=0.0, duration=None)],
            scenario_fingerprint=scenario.fingerprint(),
        )
        runner = MissionRunner(
            scenario, mls_v1(),
            mission_config=MissionConfig(max_mission_time=20.0),
            fault_harness=harness,
        )
        record = runner.run()
        assert len(record.injected_faults) == 1
        meta = record.injected_faults[0]
        assert meta["activated"] and meta["events"] > 0
        # Total blackout: the system never saw a frame, so no detections were
        # scored and the record classifies into the taxonomy.
        assert record.detection.frames_with_visible_marker == 0
        assert record.failure_mode in {mode.value for mode in FailureMode}
        # Every rendered frame was dropped, and a dropped frame charges no
        # detection cost: the last decision tick's detection timing is zero.
        counters = runner.recorder.counters
        assert counters["frames-lost"] == counters["frames-rendered"] > 0
        assert runner.system.last_timings.detection == 0.0

    def test_failsafe_fields_persist_without_harness(self):
        scenario = smoke_scenario()
        record = MissionRunner(
            scenario, mls_v1(),
            # Too short to finish: forces a non-success ending with the
            # failure-mode stamp present even without a harness.
            mission_config=MissionConfig(max_mission_time=15.0),
        ).run()
        assert record.failure_mode != ""
        data = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert data.failure_mode == record.failure_mode

    def test_dropped_frames_do_not_compound_latency_spikes(self):
        # With every frame dropped, process_frame never refreshes the tick
        # timings; the latency-spike adjustment must not accumulate on the
        # stale value and run the modeled CPU load off to infinity.
        scenario = smoke_scenario()
        harness = FaultHarness(
            [
                FaultSpec(target="camera", mode="dropout", severity=1.0,
                          start=0.0, duration=None),
                FaultSpec(target="perception", mode="latency-spike", severity=1.0,
                          start=0.0, duration=None),
            ],
            scenario_fingerprint=scenario.fingerprint(),
        )
        record = MissionRunner(
            scenario, mls_v1(),
            mission_config=MissionConfig(max_mission_time=25.0),
            fault_harness=harness,
        ).run()
        samples = record.resources.cpu_utilisation_samples
        assert samples and max(samples) < 10.0

    def test_resume_upgrades_schema1_result_files(self, tmp_path, monkeypatch):
        import repro.bench.campaign as campaign_module

        def fake_execute(job):
            return RunRecord(
                scenario_id=job.scenario.scenario_id,
                system_name=job.system.name,
                outcome=RunOutcome.SUCCESS,
                repetition=job.repetition,
            )

        monkeypatch.setattr(campaign_module, "_execute_job", fake_execute)
        monkeypatch.setattr(campaign_module, "_shared_network", lambda: None)

        def campaign():
            return Campaign("mls-v1").suite("smoke").seed(7).out(tmp_path)

        campaign().run()
        path = tmp_path / "MLS-V1.jsonl"
        # Downgrade the file to the schema-1 layout a v1.4 campaign wrote.
        header, *payload = path.read_text(encoding="utf-8").splitlines()
        header_obj = json.loads(header)
        header_obj["schema"] = 1
        records = []
        for line in payload:
            data = json.loads(line)
            for key in ("failsafe_action", "failsafe_reason", "failure_mode", "injected_faults"):
                data.pop(key, None)
            records.append(json.dumps(data, sort_keys=True))
        path.write_text(
            "\n".join([json.dumps(header_obj, sort_keys=True)] + records) + "\n",
            encoding="utf-8",
        )
        # Resuming (here: growing repetitions) must upgrade the header before
        # appending schema-2 records under it.
        campaign().repetitions(2).run()
        header, _, torn = read_campaign_jsonl(path)
        assert header["schema"] == RESULT_SCHEMA_VERSION
        assert not torn

    def test_faulted_mission_is_deterministic(self):
        scenario = smoke_scenario()

        def fly():
            harness = FaultHarness(
                FAULT_PRESETS["smoke"], scenario_fingerprint=scenario.fingerprint()
            )
            return MissionRunner(
                scenario, mls_v1(),
                mission_config=MissionConfig(max_mission_time=40.0),
                fault_harness=harness,
            ).run()

        assert fly().to_dict() == fly().to_dict()
