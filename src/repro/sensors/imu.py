"""IMU model.

The paper's real-world section attributes poor local positioning to
"low-quality acceleration and rotational data" on the Pixhawk 2.4.8, fixed by
upgrading to a Cuav X7+ with triple IMUs.  The IMU model therefore exposes a
quality profile (noise density and bias instability) so the hardware
profiles in :mod:`repro.realworld.hardware` can swap grades.  The EKF fuses
only the accelerometer, so that is the one channel the sensor reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Vec3


@dataclass(frozen=True)
class ImuQuality:
    """Accelerometer noise characteristics of an IMU grade."""

    accel_noise_std: float
    accel_bias_instability: float

    @staticmethod
    def consumer_grade() -> "ImuQuality":
        """Pixhawk 2.4.8 class sensors."""
        return ImuQuality(accel_noise_std=0.12, accel_bias_instability=0.02)

    @staticmethod
    def industrial_grade() -> "ImuQuality":
        """Cuav X7+ class sensors (triple redundant, temperature compensated)."""
        return ImuQuality(accel_noise_std=0.04, accel_bias_instability=0.005)


class ImuSensor:
    """Simulated accelerometer with white noise plus slowly wandering bias."""

    def __init__(self, quality: ImuQuality | None = None, seed: int = 0) -> None:
        self.quality = quality or ImuQuality.consumer_grade()
        self._rng = np.random.default_rng(seed)
        self._accel_bias = (0.0, 0.0, 0.0)

    def measure(self, true_acceleration: Vec3) -> Vec3:
        """One accelerometer reading of ``true_acceleration``."""
        q = self.quality
        # One standard_normal(12) draws, in order, the accelerometer bias
        # walk, three unread values, the accelerometer white noise and three
        # more unread values; each value is 0.0 + std * z, as
        # normal(0.0, std, size=3) gives.  The six unread draws keep every
        # later draw of the stream, and so every record, where it is.
        z = self._rng.standard_normal(12).tolist()
        std = q.accel_bias_instability
        ax, ay, az = self._accel_bias
        self._accel_bias = accel_bias = (
            ax + (0.0 + std * z[0]) * 0.01,
            ay + (0.0 + std * z[1]) * 0.01,
            az + (0.0 + std * z[2]) * 0.01,
        )
        std = q.accel_noise_std
        return Vec3(
            (true_acceleration.x + accel_bias[0]) + (0.0 + std * z[6]),
            (true_acceleration.y + accel_bias[1]) + (0.0 + std * z[7]),
            (true_acceleration.z + accel_bias[2]) + (0.0 + std * z[8]),
        )
