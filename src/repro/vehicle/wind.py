"""Wind and gust model.

Mean wind blows along a fixed heading with the speed given by the scenario's
weather; gusts follow a first-order (Dryden-like) coloured-noise process whose
intensity is the weather's ``gust_intensity``.  Wind perturbs the vehicle
dynamics and is the main cause of the degraded real-world landing accuracy
during the final descent (§V.C).
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry import Vec3
from repro.world.weather import Weather


class WindModel:
    """Time-correlated wind disturbance."""

    def __init__(self, weather: Weather, seed: int = 0, gust_time_constant: float = 2.0) -> None:
        self._rng = np.random.default_rng(seed)
        self.mean_speed = weather.wind_speed
        self.gust_intensity = weather.gust_intensity
        heading = float(self._rng.uniform(0, 2 * math.pi))
        self.mean_direction = Vec3(math.cos(heading), math.sin(heading), 0.0)
        self.gust_time_constant = gust_time_constant
        self._gust = (0.0, 0.0, 0.0)

    def step(self, dt: float) -> Vec3:
        """Advance the gust process and return the current wind velocity (m/s)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        alpha = math.exp(-dt / self.gust_time_constant)
        gust_std = self.gust_intensity * max(self.mean_speed, 1.0) * 0.5
        innovation = math.sqrt(max(1e-9, 1 - alpha**2))
        # One standard_normal(3) is the draw normal(0.0, gust_std, size=3)
        # makes, and each of its values is 0.0 + gust_std * z.
        zx, zy, zz = self._rng.standard_normal(3).tolist()
        gx, gy, gz = self._gust
        gx = alpha * gx + innovation * (0.0 + gust_std * zx)
        gy = alpha * gy + innovation * (0.0 + gust_std * zy)
        gz = alpha * gz + innovation * (0.0 + gust_std * zz)
        self._gust = (gx, gy, gz)
        # Vertical gusts are weaker than horizontal ones.
        direction, speed = self.mean_direction, self.mean_speed
        return Vec3(
            direction.x * speed + gx,
            direction.y * speed + gy,
            direction.z * speed + gz * 0.3,
        )

    @property
    def is_calm(self) -> bool:
        return self.mean_speed < 0.5 and self.gust_intensity < 0.05
