"""Detection result types shared between perception and decision making."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Vec3


@dataclass(frozen=True)
class Detection:
    """A single marker detection in one camera frame.

    Attributes:
        marker_id: decoded marker ID, or ``None`` when the detector found a
            marker-like quad but could not decode a valid ID.
        pixel_center: (row, col) of the detected marker centre in the image.
        pixel_size: approximate side length of the marker in pixels.
        world_position: the detector's estimate of the marker centre in world
            coordinates, computed by back-projecting the pixel centre through
            the camera model at the *estimated* drone pose (so state
            estimation error propagates into it, as in the real system).
        confidence: detector confidence in [0, 1]; classical detections are
            binary (1.0), learned detections carry the network score.
    """

    marker_id: int | None
    pixel_center: tuple[float, float]
    pixel_size: float
    world_position: Vec3
    confidence: float = 1.0


@dataclass
class DetectionFrame:
    """All detections from one camera frame plus frame metadata."""

    timestamp: float
    detections: list[Detection] = field(default_factory=list)

    def best_for(self, marker_id: int) -> Detection | None:
        """The highest-confidence detection matching ``marker_id``."""
        candidates = [d for d in self.detections if d.marker_id == marker_id]
        if not candidates:
            return None
        return max(candidates, key=lambda d: d.confidence)
