"""GPS receiver model (NEO-3 style).

Two error processes matter to the reproduction:

* white measurement noise, always present;
* a slowly varying random-walk **drift** whose magnitude scales with the
  weather's ``gps_degradation`` — this is the "GPS positioning drift ...
  likely caused by poor weather" (§V.C, Fig. 5d) that corrupts the EKF and
  the map during real-world tests.

The receiver also reports HDOP/VDOP figures; the paper notes drift occurred
even though "VDOP/HDOP values [were] within 2-8", so the dilution values here
stay in that range even while drifting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Vec3
from repro.world.weather import Weather


@dataclass(frozen=True)
class GpsFix:
    """One GPS measurement."""

    position: Vec3
    hdop: float
    vdop: float
    timestamp: float
    num_satellites: int = 12


class GpsSensor:
    """Simulated GNSS receiver with noise and weather-driven drift.

    Args:
        noise_std: white-noise standard deviation (m) per axis.
        drift_rate: random-walk step size (m per update) at full degradation.
        drift_limit: maximum drift magnitude (m) at full degradation.
        seed: RNG seed.
    """

    def __init__(
        self,
        noise_std: float = 0.35,
        drift_rate: float = 0.08,
        drift_limit: float = 4.0,
        vertical_factor: float = 1.6,
        seed: int = 0,
    ) -> None:
        self.noise_std = noise_std
        self.drift_rate = drift_rate
        self.drift_limit = drift_limit
        self.vertical_factor = vertical_factor
        self._rng = np.random.default_rng(seed)
        self._drift = np.zeros(3)

    @property
    def current_drift(self) -> Vec3:
        """The current slowly-varying bias (exposed for the fault models)."""
        return Vec3.from_array(self._drift)

    def measure(self, true_position: Vec3, weather: Weather, timestamp: float) -> GpsFix:
        """Produce one fix given the true position and current weather."""
        degradation = weather.gps_degradation
        # Random-walk drift, mean-reverting so it wanders but stays bounded.
        limit = self.drift_limit * max(degradation, 0.05)
        step = self.drift_rate * (0.2 + degradation)
        self._drift += self._rng.normal(0.0, step, size=3)
        self._drift *= 0.995
        magnitude = np.linalg.norm(self._drift)
        if magnitude > limit > 0:
            self._drift *= limit / magnitude

        noise = self._rng.normal(0.0, self.noise_std * (1.0 + degradation), size=3)
        noise[2] *= self.vertical_factor
        measured = true_position.to_array() + self._drift + noise

        # DOP stays within the 2-8 band the paper reports even when drifting.
        hdop = 1.2 + 3.0 * degradation + abs(float(self._rng.normal(0.0, 0.3)))
        vdop = 1.8 + 4.0 * degradation + abs(float(self._rng.normal(0.0, 0.4)))
        satellites = max(6, 14 - int(round(4 * degradation)))

        return GpsFix(
            position=Vec3.from_array(measured),
            hdop=min(hdop, 8.0),
            vdop=min(vdop, 8.0),
            timestamp=timestamp,
            num_satellites=satellites,
        )
