"""Barometric altimeter.

The flight controller fuses the barometer with GPS altitude; the barometer
contributes a low-noise but slowly drifting altitude reference.
"""

from __future__ import annotations

import numpy as np


class Barometer:
    """Simulated barometric altitude sensor with noise and slow drift."""

    def __init__(
        self,
        noise_std: float = 0.08,
        drift_rate: float = 0.002,
        seed: int = 0,
    ) -> None:
        self.noise_std = noise_std
        self.drift_rate = drift_rate
        self._rng = np.random.default_rng(seed)
        self._drift = 0.0

    def measure(self, true_altitude: float) -> float:
        """One altitude reading in metres above the take-off datum."""
        # One standard_normal(2) draws the drift step, then the noise; each
        # value is 0.0 + std * z, as the two scalar normal(0.0, std) calls gave.
        drift_draw, noise_draw = self._rng.standard_normal(2).tolist()
        self._drift += 0.0 + self.drift_rate * drift_draw
        self._drift *= 0.999
        return true_altitude + self._drift + (0.0 + self.noise_std * noise_draw)

    @property
    def current_drift(self) -> float:
        return self._drift
