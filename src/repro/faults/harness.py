"""The fault-injection harness: deterministic injectors at module boundaries.

A :class:`FaultHarness` is attached to one mission run.  It intercepts
exactly the products that cross the sensor→system and system→autopilot
boundaries — camera frames, depth clouds, the EKF estimate, the command
stream — and wraps the detector and planner components the registry built,
at the same duck interfaces the registry declares.  It never touches the
world, the true vehicle state or the scoring harness: every perturbation is
expressed in terms the landing system could genuinely experience, so the
system's reaction (or failure to react) is real behaviour, not scripting.

Determinism: each spec gets its own ``default_rng`` stream seeded from
``(scenario fingerprint, repetition, spec hash)`` (see
:func:`repro.faults.spec.fault_run_seed`).  Draws happen in tick order,
which is itself deterministic per (scenario, system, repetition), so runs
agree byte-for-byte across serial, ``.parallel()`` and dispatched execution.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.core.commands import Command
from repro.faults.classifier import classify_record
from repro.faults.spec import FaultSpec, ensure_unique_names, fault_rng
from repro.geometry import Pose, Vec3
from repro.perception.detection import Detection, DetectionFrame
from repro.planning.types import PlannerStatus, PlanningResult
from repro.sensors.depth import PointCloud

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.landing_system import LandingSystem, ModuleTimings
    from repro.core.metrics import RunRecord
    from repro.sensors.camera import CameraFrame
    from repro.vehicle.state import EstimatedState

#: Start-window bounds (seconds) for probabilistic faults with ``start=None``.
DRAWN_START_RANGE = (10.0, 120.0)


class _ActiveFault:
    """Per-run state of one fault spec: arming, window, RNG and counters."""

    def __init__(self, spec: FaultSpec, scenario_fingerprint: str, repetition: int) -> None:
        self.spec = spec
        self.rng = fault_rng(spec, scenario_fingerprint, repetition)
        # Fixed draw order regardless of spec contents keeps the stream
        # stable when only the schedule fields change.
        arming_draw = float(self.rng.random())
        start_draw = float(self.rng.uniform(*DRAWN_START_RANGE))
        self.armed = arming_draw < spec.probability
        self.start = spec.start if spec.start is not None else start_draw
        self.first_active: float | None = None
        self.last_active: float | None = None
        self.events = 0
        #: Lazily drawn per-run constants (bias directions, EKF offsets).
        self.cache: dict[str, Vec3] = {}
        #: Pending commands of a command-delay fault (per fault: overlapping
        #: delay specs must not destroy each other's queued commands).
        self.queue: deque[Command] = deque()

    def active(self, now: float, altitude: float) -> bool:
        """Whether the fault perturbs this tick (and note the exposure)."""
        if not self.armed:
            return False
        if not self.start <= now:
            return False
        if self.spec.duration is not None and now >= self.start + self.spec.duration:
            return False
        if self.spec.below_altitude is not None and altitude > self.spec.below_altitude:
            return False
        if self.first_active is None:
            self.first_active = now
        self.last_active = now
        return True

    @property
    def activated(self) -> bool:
        return self.first_active is not None

    def metadata(self) -> dict[str, Any]:
        """The JSON-compatible entry persisted on ``RunRecord.injected_faults``."""
        return {
            "name": self.spec.name,
            "target": self.spec.target,
            "mode": self.spec.mode,
            "severity": self.spec.severity,
            "armed": self.armed,
            "activated": self.activated,
            "first_active": self.first_active,
            "last_active": self.last_active,
            "events": self.events,
        }


class FaultyDetector:
    """Wraps the registry-built detector with perception-fault injection.

    Same ``detect(frame) -> DetectionFrame`` interface the registry
    declares; unknown attributes forward to the wrapped component.
    """

    def __init__(self, inner: Any, harness: "FaultHarness") -> None:
        self._inner = inner
        self._harness = harness

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def detect(self, frame: "CameraFrame") -> DetectionFrame:
        result = self._inner.detect(frame)
        return self._harness._perturb_detections(frame, result)


class FaultyPlanner:
    """Wraps the registry-built planner with planning-fault injection."""

    def __init__(self, inner: Any, harness: "FaultHarness") -> None:
        self._inner = inner
        self._harness = harness

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def plan(self, problem: Any) -> PlanningResult:
        forced = self._harness._forced_planning_failure(problem)
        if forced is not None:
            return forced
        return self._inner.plan(problem)


class FaultHarness:
    """All injectors for one mission run, driven by the mission loop.

    Args:
        specs: the fault specs to inject.
        scenario_fingerprint: ``Scenario.fingerprint()`` of the run's
            scenario (the content hash, not the id — ids can collide
            between suites).
        repetition: the run's repetition index.
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec],
        scenario_fingerprint: str,
        repetition: int = 0,
    ) -> None:
        self.faults: list[_ActiveFault] = [
            _ActiveFault(spec, scenario_fingerprint, repetition)
            for spec in ensure_unique_names(specs)
        ]
        self._by_target: dict[str, list[_ActiveFault]] = {}
        for fault in self.faults:
            self._by_target.setdefault(fault.spec.target, []).append(fault)
        # Altitude as last estimated (system-visible); +inf until the first
        # estimate so altitude-gated faults stay off during takeoff setup.
        self._altitude = math.inf
        self._now = 0.0
        self._frozen_frame: "CameraFrame | None" = None
        self._frozen_cloud: PointCloud | None = None

    # ------------------------------------------------------------------ #
    # attachment (component wrapping)
    # ------------------------------------------------------------------ #
    def attach(self, system: "LandingSystem") -> None:
        """Wrap the system's registry-built components where faults target them."""
        if self._by_target.get("perception"):
            system.detector = FaultyDetector(system.detector, self)
        if self._by_target.get("planning"):
            system.planner = FaultyPlanner(system.planner, self)

    def _targets(self, target: str) -> list[_ActiveFault]:
        return self._by_target.get(target, [])

    # ------------------------------------------------------------------ #
    # sensor-boundary hooks (called by the mission runner)
    # ------------------------------------------------------------------ #
    def filter_estimate(self, estimate: "EstimatedState", now: float) -> "EstimatedState":
        """Apply vehicle-level estimate faults; tracks time and altitude."""
        self._now = now
        for fault in self._targets("vehicle"):
            if fault.spec.mode != "ekf-reset":
                continue
            if not fault.active(now, estimate.altitude):
                continue
            offset = self._ekf_offset(fault)
            # The estimate jumps by the divergence offset, then the EKF
            # re-converges: the offset decays from the activation instant.
            tau = 4.0 + 16.0 * fault.spec.severity
            age = now - (fault.first_active if fault.first_active is not None else now)
            decayed = offset * math.exp(-age / tau)
            fault.events += 1
            estimate = replace(
                estimate,
                position=estimate.position + decayed,
                position_std=estimate.position_std + Vec3(1.0, 1.0, 0.5) * fault.spec.severity,
            )
        self._altitude = estimate.altitude
        return estimate

    @staticmethod
    def _ekf_offset(fault: _ActiveFault) -> Vec3:
        if "ekf-offset" not in fault.cache:
            theta = float(fault.rng.uniform(0.0, 2.0 * math.pi))
            magnitude = 1.5 + 8.0 * fault.spec.severity
            fault.cache["ekf-offset"] = Vec3(
                magnitude * math.cos(theta),
                magnitude * math.sin(theta),
                float(fault.rng.uniform(-0.2, 0.2)) * magnitude,
            )
        return fault.cache["ekf-offset"]

    def filter_frame(self, frame: "CameraFrame", now: float) -> "CameraFrame | None":
        """Apply camera faults; ``None`` means the frame was lost entirely."""
        return self._filter_stream("camera", frame, now, "_frozen_frame", self._perturb_frame)

    @property
    def reads_clouds(self) -> bool:
        """Whether :meth:`filter_cloud` can act on a cloud this run: only an
        armed ``depth`` fault does.  Arming is drawn at construction, and a
        disarmed fault neither draws nor counts, so without one every cloud
        passes through untouched."""
        return any(fault.armed for fault in self._targets("depth"))

    def filter_cloud(self, cloud: PointCloud, now: float) -> PointCloud | None:
        """Apply depth faults; ``None`` means the cloud was lost entirely."""
        return self._filter_stream("depth", cloud, now, "_frozen_cloud", self._perturb_cloud)

    def _filter_stream(self, target, product, now, frozen_attr, perturb):
        """Shared sensor-stream injection: dropout / freeze / per-mode perturb.

        ``frozen_attr`` names the per-stream freeze slot; ``perturb`` applies
        the target-specific ``bias`` / ``noise-burst`` effect.
        """
        self._now = now
        delivered = product
        freeze_active = False
        for fault in self._targets(target):
            if delivered is None:
                break
            mode = fault.spec.mode
            if not fault.active(now, self._altitude):
                continue
            if mode == "dropout":
                if fault.rng.random() < 0.3 + 0.7 * fault.spec.severity:
                    fault.events += 1
                    delivered = None
            elif mode == "freeze":
                fault.events += 1
                freeze_active = True
                if getattr(self, frozen_attr) is None:
                    setattr(self, frozen_attr, delivered)
                delivered = getattr(self, frozen_attr)
            else:
                fault.events += 1
                delivered = perturb(fault, mode, delivered)
        # Remember the last cleanly delivered product for future freezes.
        if delivered is product and not freeze_active:
            setattr(self, frozen_attr, product)
        return delivered

    def _perturb_frame(self, fault: _ActiveFault, mode: str, frame: "CameraFrame") -> "CameraFrame":
        if mode == "bias":
            offset = self._bias_vector(fault, scale=0.5 + 4.0 * fault.spec.severity)
            return replace(
                frame,
                camera_pose=Pose(
                    frame.camera_pose.position + offset,
                    frame.camera_pose.orientation,
                ),
            )
        sigma = 0.05 + 0.30 * fault.spec.severity  # noise-burst
        noisy = frame.image + fault.rng.normal(0.0, sigma, size=frame.image.shape)
        return replace(frame, image=np.clip(noisy, 0.0, 1.0))

    def _perturb_cloud(self, fault: _ActiveFault, mode: str, cloud: PointCloud) -> PointCloud:
        if mode == "bias":
            offset = self._bias_vector(fault, scale=0.3 + 2.0 * fault.spec.severity)
            points = [point + offset for point in cloud.points]
        else:  # noise-burst
            sigma = 0.1 + 0.7 * fault.spec.severity
            jitter = fault.rng.normal(0.0, sigma, size=(len(cloud.points), 3))
            points = [
                point + Vec3(float(dx), float(dy), float(dz))
                for point, (dx, dy, dz) in zip(cloud.points, jitter)
            ]
        return PointCloud(
            points=points, timestamp=cloud.timestamp, sensor_position=cloud.sensor_position
        )

    @staticmethod
    def _bias_vector(fault: _ActiveFault, scale: float) -> Vec3:
        if "bias-direction" not in fault.cache:
            theta = float(fault.rng.uniform(0.0, 2.0 * math.pi))
            fault.cache["bias-direction"] = Vec3(math.cos(theta), math.sin(theta), 0.0)
        return fault.cache["bias-direction"] * scale

    # ------------------------------------------------------------------ #
    # component-level injection (called from the wrappers)
    # ------------------------------------------------------------------ #
    def _perturb_detections(
        self, frame: "CameraFrame", result: DetectionFrame
    ) -> DetectionFrame:
        # Mission time, not frame.timestamp: a frozen camera frame carries a
        # stale timestamp, which must not shift perception fault windows.
        now = self._now
        for fault in self._targets("perception"):
            mode = fault.spec.mode
            if mode == "latency-spike":
                continue  # applied via adjust_timings, not the data path
            if not fault.active(now, self._altitude):
                continue
            if mode == "missed-detection":
                kept: list[Detection] = []
                for detection in result.detections:
                    if fault.rng.random() < 0.35 + 0.65 * fault.spec.severity:
                        fault.events += 1
                    else:
                        kept.append(detection)
                result = DetectionFrame(timestamp=result.timestamp, detections=kept)
            elif mode == "phantom-detection":
                if fault.rng.random() < 0.15 + 0.5 * fault.spec.severity:
                    fault.events += 1
                    result = DetectionFrame(
                        timestamp=result.timestamp,
                        detections=result.detections + [self._phantom(frame, fault)],
                    )
        return result

    def _phantom(self, frame: "CameraFrame", fault: _ActiveFault) -> Detection:
        """A spurious detection back-projected through the frame's own model."""
        intr = frame.intrinsics
        row = float(fault.rng.uniform(0, intr.height - 1))
        col = float(fault.rng.uniform(0, intr.width - 1))
        # Mostly undecodable marker-like quads; occasionally a decode spoof.
        marker_id: int | None = None
        if fault.rng.random() < 0.3:
            marker_id = int(fault.rng.integers(0, 48))
        return Detection(
            marker_id=marker_id,
            pixel_center=(row, col),
            pixel_size=float(fault.rng.uniform(4.0, 12.0)),
            world_position=frame.pixel_to_ground(row, col),
            confidence=0.6 + 0.35 * float(fault.rng.random()),
        )

    def _forced_planning_failure(self, problem: Any) -> PlanningResult | None:
        for fault in self._targets("planning"):
            if not fault.active(self._now, self._altitude):
                continue
            if fault.rng.random() < 0.3 + 0.7 * fault.spec.severity:
                fault.events += 1
                if fault.spec.mode == "timeout":
                    return PlanningResult.failure(
                        PlannerStatus.TIMEOUT,
                        planning_time=getattr(problem, "time_budget", 0.0),
                    )
                return PlanningResult.failure(PlannerStatus.NO_PATH_FOUND)
        return None

    # ------------------------------------------------------------------ #
    # mapping corruption and command/timing hooks
    # ------------------------------------------------------------------ #
    def corrupt_mapping(self, system: "LandingSystem", estimate: "EstimatedState", now: float) -> None:
        """Inject phantom occupied cells near the vehicle into the map stack."""
        for fault in self._targets("mapping"):
            if not fault.active(now, self._altitude):
                continue
            count = 1 + int(fault.spec.severity * 6)
            points = []
            for _ in range(count):
                points.append(
                    estimate.position
                    + Vec3(
                        float(fault.rng.uniform(-8.0, 8.0)),
                        float(fault.rng.uniform(-8.0, 8.0)),
                        float(fault.rng.uniform(-4.0, 2.0)),
                    )
                )
            points = [p.with_z(max(0.3, p.z)) for p in points]
            fault.events += len(points)
            phantom = PointCloud(points=points, timestamp=now, sensor_position=estimate.position)
            system.mapping.integrate_cloud(phantom)

    def filter_command(self, command: Command, now: float) -> Command:
        """Apply command-delay faults to the decision output stream.

        Each fault owns its queue, so overlapping delay specs chain (the
        later one delays the earlier one's output further) instead of
        clobbering each other's pending commands.
        """
        for fault in self._targets("vehicle"):
            if fault.spec.mode != "command-delay":
                continue
            if not fault.active(now, self._altitude):
                if fault.queue:
                    fault.queue.clear()
                continue
            depth = 1 + int(fault.spec.severity * 4)
            fault.queue.append(command)
            fault.events += 1
            if len(fault.queue) > depth:
                command = fault.queue.popleft()
            else:
                command = Command.none()
        return command

    def adjust_timings(self, timings: "ModuleTimings", now: float) -> None:
        """Add latency-spike cost to the tick's compute-timing model."""
        for fault in self._targets("perception"):
            if fault.spec.mode != "latency-spike":
                continue
            if not fault.active(now, self._altitude):
                continue
            fault.events += 1
            timings.detection += 0.05 + 0.45 * fault.spec.severity

    # ------------------------------------------------------------------ #
    # record finalisation
    # ------------------------------------------------------------------ #
    def finalize(self, record: "RunRecord") -> None:
        """Stamp fault metadata and the failure-mode classification."""
        record.injected_faults = [fault.metadata() for fault in self.faults]
        record.failure_mode = classify_record(record).value

    @property
    def specs(self) -> Sequence[FaultSpec]:
        return [fault.spec for fault in self.faults]
