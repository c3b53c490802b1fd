"""Learned marker detector — the TPH-YOLO substitute used by MLS-V2 and V3.

The detector follows the structure of a single-class object detector adapted
to the tiny images our synthetic camera produces:

1. **Proposal generation** — high-local-contrast regions (markers are the
   most textured objects in a nadir view) plus the dark-blob candidates the
   classical pipeline uses; deliberately permissive so that degraded markers
   still produce a proposal.
2. **Neural scoring** — each proposal patch is resized to 16x16 and scored by
   the :class:`~repro.perception.neural.network.MarkerPatchNet` CNN that was
   trained with brightness / contrast / noise / occlusion augmentation.
3. **Robust decode** — accepted proposals are decoded against the ArUco
   dictionary with a relaxed error budget; when decoding fails the detection
   is still reported (with ``marker_id=None`` and the network confidence), so
   the validation stage can use spatial consistency across frames.

Like the paper's model, it does not estimate marker orientation (Table II
"models were not trained for marker orientation estimation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.perception import image_ops
from repro.perception.aruco import ArucoDictionary, default_dictionary
from repro.perception.detection import Detection, DetectionFrame
from repro.perception.neural.network import MarkerPatchNet, PATCH_SIZE
from repro.perception.neural.training import load_pretrained_detector_net

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sensors.camera import CameraFrame


@dataclass(frozen=True)
class LearnedDetectorConfig:
    """Tuning of the learned pipeline."""

    contrast_radius: int = 3
    contrast_threshold: float = 0.055
    min_component_pixels: int = 10
    max_proposals: int = 10
    score_threshold: float = 0.55
    decode_max_errors: int = 2
    min_side_pixels: float = 5.0
    non_max_suppression_distance: float = 8.0


def proposal_threshold(contrast: np.ndarray, floor: float) -> float:
    """The proposal cut: ``floor`` or 2.2 times the median local contrast.

    The threshold adapts to the image's noise floor: under heavy rain or
    fog the whole frame is speckled, so "high contrast" must mean high
    relative to the median local contrast, not an absolute constant.

    The median only matters when its 2.2-fold clears ``floor``.  With ``n``
    values and at most ``n - n//2 - 1`` of them clearing it, the values at
    both middle ranks do not, nor does their mean, so the cut is ``floor``
    and the median is never computed.
    """
    n = contrast.size
    if np.count_nonzero(contrast * 2.2 > floor) <= n - n // 2 - 1:
        return floor
    return max(floor, float(np.median(contrast)) * 2.2)


class LearnedMarkerDetector:
    """Proposal + CNN-scoring + robust-decode detector.

    Args:
        network: a trained :class:`MarkerPatchNet`; defaults to the shared
            pretrained instance (trains once per process).
        dictionary: fiducial dictionary for ID decoding.
        config: pipeline tuning.
    """

    #: identifier used in benchmark reports (Table II "Implementation" column)
    name = "TPH-YOLO"

    def __init__(
        self,
        network: MarkerPatchNet | None = None,
        dictionary: ArucoDictionary | None = None,
        config: LearnedDetectorConfig | None = None,
    ) -> None:
        self.network = network or load_pretrained_detector_net()
        self.dictionary = dictionary or default_dictionary()
        self.config = config or LearnedDetectorConfig()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def detect(self, frame: CameraFrame) -> DetectionFrame:
        """Run the full pipeline on one camera frame."""
        image = frame.image
        proposals = self._propose(image)
        if not proposals:
            return DetectionFrame(timestamp=frame.timestamp)

        patches = []
        for center, size in proposals:
            crop = image_ops.crop_patch(image, center, max(PATCH_SIZE, int(round(size * 1.4))))
            patches.append(image_ops.resize_patch(crop, PATCH_SIZE))
        scores = self.network.predict_probability(np.stack(patches))

        detections: list[Detection] = []
        for (center, size), score in zip(proposals, scores):
            if score < self.config.score_threshold:
                continue
            marker_id = self._decode(image, center, size)
            world_position = frame.pixel_to_ground(center[0], center[1])
            detections.append(
                Detection(
                    marker_id=marker_id,
                    pixel_center=center,
                    pixel_size=size,
                    world_position=world_position,
                    confidence=float(score),
                )
            )
        detections = self._non_max_suppression(detections)
        return DetectionFrame(timestamp=frame.timestamp, detections=detections)

    # ------------------------------------------------------------------ #
    # proposals
    # ------------------------------------------------------------------ #
    def _propose(self, image: np.ndarray) -> list[tuple[tuple[float, float], float]]:
        """Candidate (centre, size) regions ranked by local contrast."""
        cfg = self.config
        mean = image_ops.box_filter(image, cfg.contrast_radius)
        mean_sq = image_ops.box_filter(image * image, cfg.contrast_radius)
        # max(0, mean_sq - mean²) and its square root, in one frame buffer.
        variance = mean * mean
        np.subtract(mean_sq, variance, out=variance)
        np.maximum(0.0, variance, out=variance)
        contrast = np.sqrt(variance, out=variance)
        mask = contrast > proposal_threshold(contrast, cfg.contrast_threshold)
        components = image_ops.connected_components(mask, min_size=cfg.min_component_pixels)

        proposals: list[tuple[tuple[float, float], float]] = []
        for component in components[: cfg.max_proposals]:
            geometry = image_ops.component_geometry(component)
            if geometry.side_length < cfg.min_side_pixels:
                continue
            if geometry.aspect_ratio > 3.0:
                continue
            proposals.append((geometry.centroid, geometry.side_length))
        return proposals

    # ------------------------------------------------------------------ #
    # decoding
    # ------------------------------------------------------------------ #
    def _decode(self, image: np.ndarray, center: tuple[float, float], size: float) -> int | None:
        """Attempt to decode the marker ID from the region around a detection.

        Decoding needs the marker's actual (rotated) outline, so the region
        around the proposal is re-thresholded for the dark border and the quad
        corners estimated from it — the same geometric decode the classical
        pipeline uses, but gated by the network's detection rather than by
        strict shape filters, and with a slightly larger bit-error budget.
        When the outline cannot be recovered (too few pixels, heavy glare) the
        detection is reported undecoded instead of being dropped.
        """
        h, w = image.shape
        window = int(max(PATCH_SIZE, round(size * 2.0)))
        row0 = max(0, int(round(center[0] - window / 2)))
        col0 = max(0, int(round(center[1] - window / 2)))
        row1 = min(h, row0 + window)
        col1 = min(w, col0 + window)
        region = image[row0:row1, col0:col1]
        if region.size == 0:
            return None

        dark = image_ops.adaptive_threshold(region, radius=4, offset=0.03)
        components = image_ops.connected_components(dark, min_size=8)
        if not components:
            return None
        corners = image_ops.estimate_quad_corners(components[0])
        if corners is None:
            return None
        return self.dictionary.decode_quad(
            region,
            corners,
            min_contrast=0.12,
            max_border_bits=4,
            max_errors=self.config.decode_max_errors,
        )

    # ------------------------------------------------------------------ #
    # post-processing
    # ------------------------------------------------------------------ #
    def _non_max_suppression(self, detections: list[Detection]) -> list[Detection]:
        """Keep the highest-confidence detection among overlapping ones."""
        kept: list[Detection] = []
        for detection in sorted(detections, key=lambda d: d.confidence, reverse=True):
            overlaps = False
            for existing in kept:
                dr = detection.pixel_center[0] - existing.pixel_center[0]
                dc = detection.pixel_center[1] - existing.pixel_center[1]
                if (dr * dr + dc * dc) ** 0.5 < self.config.non_max_suppression_distance:
                    overlaps = True
                    break
            if not overlaps:
                kept.append(detection)
        return kept
