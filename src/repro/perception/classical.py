"""Classical (OpenCV-style) ArUco marker detector — the MLS-V1 detector.

The pipeline mirrors ``cv2.aruco.detectMarkers``:

1. adaptive threshold to find dark regions (marker borders are black);
2. connected components and square-ness filtering to propose candidate quads;
3. corner estimation and perspective sampling of the candidate's bit grid;
4. per-cell binarisation (Otsu) and dictionary lookup with a small error
   budget.

Its weaknesses are the ones the paper reports: at high altitude the marker
covers too few pixels for reliable bit sampling, glare washes out the
threshold, occlusion corrupts the border or the bits, and fog erodes the
contrast the adaptive threshold depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.perception import image_ops
from repro.perception.aruco import ArucoDictionary, default_dictionary
from repro.perception.detection import Detection, DetectionFrame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sensors.camera import CameraFrame


@dataclass(frozen=True)
class ClassicalDetectorConfig:
    """Tuning of the classical pipeline."""

    threshold_radius: int = 8
    threshold_offset: float = 0.04
    min_component_pixels: int = 25
    min_fill_ratio: float = 0.30
    max_aspect_ratio: float = 1.8
    min_side_pixels: float = 8.0
    max_bit_errors: int = 1
    cell_contrast_minimum: float = 0.18


class ClassicalMarkerDetector:
    """Adaptive-threshold + quad-decode fiducial detector.

    Args:
        dictionary: fiducial dictionary to decode against.
        config: pipeline tuning; the defaults reproduce OpenCV-like behaviour
            on the synthetic camera's 128x128 frames.
    """

    #: identifier used in benchmark reports (Table II "Implementation" column)
    name = "OpenCV"

    def __init__(
        self,
        dictionary: ArucoDictionary | None = None,
        config: ClassicalDetectorConfig | None = None,
    ) -> None:
        self.dictionary = dictionary or default_dictionary()
        self.config = config or ClassicalDetectorConfig()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def detect(self, frame: CameraFrame) -> DetectionFrame:
        """Run the full pipeline on one camera frame."""
        image = frame.image
        cfg = self.config

        dark_mask = image_ops.adaptive_threshold(
            image, radius=cfg.threshold_radius, offset=cfg.threshold_offset
        )
        components = image_ops.connected_components(
            dark_mask, min_size=cfg.min_component_pixels
        )

        detections: list[Detection] = []
        for component in components[:8]:
            detection = self._decode_candidate(image, component, frame)
            if detection is not None:
                detections.append(detection)

        return DetectionFrame(
            timestamp=frame.timestamp,
            detections=detections,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _decode_candidate(
        self, image: np.ndarray, component: np.ndarray, frame: CameraFrame
    ) -> Detection | None:
        cfg = self.config
        geometry = image_ops.component_geometry(component)

        # The marker border forms a dark square ring; reject blobs that are
        # too elongated, too sparse or too small to sample bits from.
        if geometry.aspect_ratio > cfg.max_aspect_ratio:
            return None
        if geometry.side_length < cfg.min_side_pixels:
            return None
        if geometry.fill_ratio < cfg.min_fill_ratio:
            return None

        corners = image_ops.estimate_quad_corners(component)
        if corners is None:
            return None
        marker_id = self.dictionary.decode_quad(
            image,
            corners,
            min_contrast=cfg.cell_contrast_minimum,
            max_border_bits=2,
            max_errors=cfg.max_bit_errors,
        )
        if marker_id is None:
            return None

        center_row, center_col = geometry.centroid
        world_position = frame.pixel_to_ground(center_row, center_col)
        return Detection(
            marker_id=marker_id,
            pixel_center=(center_row, center_col),
            pixel_size=geometry.side_length,
            world_position=world_position,
            confidence=1.0,
        )
