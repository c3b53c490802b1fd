"""Tests for the classical and learned detectors and the validation gate."""

import numpy as np
import pytest

from repro.geometry import AABB, Pose, Vec3
from repro.perception.classical import ClassicalMarkerDetector
from repro.perception.detection import Detection, DetectionFrame
from repro.perception.learned import LearnedMarkerDetector
from repro.perception.neural.training import load_pretrained_detector_net
from repro.perception.validation import ValidationGate, ValidationResult
from repro.sensors.camera import DownwardCamera
from repro.world.markers import Marker
from repro.world.weather import Weather, WeatherCondition
from repro.world.world import World


@pytest.fixture(scope="module")
def shared_network():
    return load_pretrained_detector_net()


def world_with_marker(weather=None, occlusion=0.0, marker_id=7, yaw=0.4):
    return World(
        name="det-test",
        bounds=AABB(Vec3(-60, -60, 0), Vec3(60, 60, 40)),
        markers=[Marker(marker_id=marker_id, position=Vec3.zero(), size=1.0, yaw=yaw, occlusion=occlusion, is_target=True)],
        weather=weather or Weather.clear(),
    )


def capture(world, altitude, seed=0):
    return DownwardCamera(seed=seed).capture(world, Pose.at(Vec3(0, 0, altitude)))


class TestClassicalDetector:
    def test_detects_and_decodes_at_low_altitude(self):
        frame = capture(world_with_marker(), altitude=5.0)
        result = ClassicalMarkerDetector().detect(frame)
        assert any(d.marker_id == 7 for d in result.detections)

    def test_position_estimate_is_accurate(self):
        frame = capture(world_with_marker(), altitude=5.0)
        result = ClassicalMarkerDetector().detect(frame)
        detection = next(d for d in result.detections if d.marker_id == 7)
        assert detection.world_position.horizontal_distance_to(Vec3.zero()) < 0.5

    def test_fails_at_high_altitude(self):
        frame = capture(world_with_marker(), altitude=18.0)
        result = ClassicalMarkerDetector().detect(frame)
        assert not any(d.marker_id == 7 for d in result.detections)

    def test_degrades_under_heavy_occlusion(self):
        frame = capture(world_with_marker(occlusion=0.5), altitude=5.0)
        result = ClassicalMarkerDetector().detect(frame)
        assert not any(d.marker_id == 7 for d in result.detections)

    def test_does_not_hallucinate_markers_on_empty_ground(self):
        world = world_with_marker()
        world.markers = []
        frame = capture(world, altitude=6.0)
        result = ClassicalMarkerDetector().detect(frame)
        assert len(result.detections) == 0


class TestLearnedDetector:
    def test_detects_at_low_altitude(self, shared_network):
        detector = LearnedMarkerDetector(network=shared_network)
        frame = capture(world_with_marker(), altitude=5.0)
        result = detector.detect(frame)
        assert any(d.marker_id == 7 for d in result.detections)

    def test_more_robust_than_classical_in_fog(self, shared_network):
        fog = Weather.preset(WeatherCondition.FOG, 1.0)
        learned = LearnedMarkerDetector(network=shared_network)
        classical = ClassicalMarkerDetector()
        learned_hits = 0
        classical_hits = 0
        for seed in range(6):
            frame = capture(world_with_marker(weather=fog), altitude=6.0, seed=seed)
            learned_hits += any(
                d.marker_id == 7 or d.marker_id is None for d in learned.detect(frame).detections
            )
            classical_hits += any(d.marker_id == 7 for d in classical.detect(frame).detections)
        assert learned_hits >= classical_hits
        assert learned_hits >= 3

    def test_detection_confidence_in_range(self, shared_network):
        detector = LearnedMarkerDetector(network=shared_network)
        frame = capture(world_with_marker(), altitude=6.0)
        for detection in detector.detect(frame).detections:
            assert 0.0 <= detection.confidence <= 1.0

    def test_non_max_suppression_removes_duplicates(self, shared_network):
        detector = LearnedMarkerDetector(network=shared_network)
        detections = [
            Detection(marker_id=None, pixel_center=(50, 50), pixel_size=10, world_position=Vec3.zero(), confidence=0.9),
            Detection(marker_id=None, pixel_center=(52, 52), pixel_size=10, world_position=Vec3.zero(), confidence=0.7),
            Detection(marker_id=None, pixel_center=(90, 90), pixel_size=10, world_position=Vec3.zero(), confidence=0.8),
        ]
        kept = detector._non_max_suppression(detections)
        assert len(kept) == 2
        assert kept[0].confidence == 0.9


class TestDetectionFrame:
    def test_best_for_picks_highest_confidence(self):
        frame = DetectionFrame(
            timestamp=0.0,
            detections=[
                Detection(marker_id=7, pixel_center=(0, 0), pixel_size=5, world_position=Vec3.zero(), confidence=0.5),
                Detection(marker_id=7, pixel_center=(1, 1), pixel_size=5, world_position=Vec3.zero(), confidence=0.9),
                Detection(marker_id=3, pixel_center=(2, 2), pixel_size=5, world_position=Vec3.zero(), confidence=1.0),
            ],
        )
        assert frame.best_for(7).confidence == 0.9
        assert frame.best_for(99) is None


def make_frame(detections):
    return DetectionFrame(timestamp=0.0, detections=detections)


def identified(marker_id, x=0.0, confidence=1.0):
    return Detection(marker_id=marker_id, pixel_center=(0, 0), pixel_size=8, world_position=Vec3(x, 0, 0), confidence=confidence)


def unidentified(x=0.0, confidence=0.8):
    return Detection(marker_id=None, pixel_center=(0, 0), pixel_size=8, world_position=Vec3(x, 0, 0), confidence=confidence)


class TestValidationGate:
    def test_accepts_consistent_target_detections(self):
        gate = ValidationGate(target_marker_id=7, required_frames=10, required_hits=5)
        gate.reset()
        result = ValidationResult.PENDING
        for _ in range(5):
            result = gate.observe(make_frame([identified(7)]))
        assert result is ValidationResult.ACCEPTED

    def test_rejects_decoy_detections(self):
        gate = ValidationGate(target_marker_id=7, required_frames=6, required_hits=4)
        gate.reset()
        result = ValidationResult.PENDING
        for _ in range(6):
            result = gate.observe(make_frame([identified(3)]))
            if result is not ValidationResult.PENDING:
                break
        assert result is ValidationResult.REJECTED

    def test_rejects_empty_frames(self):
        gate = ValidationGate(target_marker_id=7, required_frames=5, required_hits=3)
        gate.reset()
        result = ValidationResult.PENDING
        for _ in range(5):
            result = gate.observe(make_frame([]))
            if result is not ValidationResult.PENDING:
                break
        assert result is ValidationResult.REJECTED

    def test_early_reject_when_threshold_unreachable(self):
        gate = ValidationGate(target_marker_id=7, required_frames=10, required_hits=9)
        gate.reset()
        result = gate.observe(make_frame([]))
        result = gate.observe(make_frame([]))
        assert result is ValidationResult.REJECTED

    def test_unidentified_detections_count_with_prior(self):
        gate = ValidationGate(target_marker_id=7, required_frames=10, required_hits=4, accept_unidentified=True)
        gate.reset(candidate_position=Vec3.zero())
        result = ValidationResult.PENDING
        for _ in range(4):
            result = gate.observe(make_frame([unidentified(x=0.5)]))
        assert result is ValidationResult.ACCEPTED

    def test_unidentified_far_from_prior_do_not_count(self):
        gate = ValidationGate(target_marker_id=7, required_frames=6, required_hits=3, accept_unidentified=True)
        gate.reset(candidate_position=Vec3.zero())
        result = ValidationResult.PENDING
        for _ in range(6):
            result = gate.observe(make_frame([unidentified(x=10.0)]))
            if result is not ValidationResult.PENDING:
                break
        assert result is ValidationResult.REJECTED

    def test_unidentified_disabled_for_classical(self):
        gate = ValidationGate(target_marker_id=7, required_frames=6, required_hits=3, accept_unidentified=False)
        gate.reset(candidate_position=Vec3.zero())
        result = ValidationResult.PENDING
        for _ in range(6):
            result = gate.observe(make_frame([unidentified(x=0.0)]))
            if result is not ValidationResult.PENDING:
                break
        assert result is ValidationResult.REJECTED

    def test_position_estimate_averages_hits(self):
        gate = ValidationGate(target_marker_id=7, required_frames=10, required_hits=5)
        gate.reset()
        gate.observe(make_frame([identified(7, x=1.0)]))
        gate.observe(make_frame([identified(7, x=3.0)]))
        assert gate.position_estimate().x == pytest.approx(2.0)
        assert gate.hits == 2
