"""IMU model.

The paper's real-world section attributes poor local positioning to
"low-quality acceleration and rotational data" on the Pixhawk 2.4.8, fixed by
upgrading to a Cuav X7+ with triple IMUs.  The IMU model therefore exposes a
quality profile (noise densities and bias instability) so the hardware
profiles in :mod:`repro.realworld.hardware` can swap grades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Vec3


@dataclass(frozen=True)
class ImuQuality:
    """Noise characteristics of an IMU grade."""

    accel_noise_std: float
    gyro_noise_std: float
    accel_bias_instability: float
    gyro_bias_instability: float

    @staticmethod
    def consumer_grade() -> "ImuQuality":
        """Pixhawk 2.4.8 class sensors."""
        return ImuQuality(
            accel_noise_std=0.12,
            gyro_noise_std=0.015,
            accel_bias_instability=0.02,
            gyro_bias_instability=0.002,
        )

    @staticmethod
    def industrial_grade() -> "ImuQuality":
        """Cuav X7+ class sensors (triple redundant, temperature compensated)."""
        return ImuQuality(
            accel_noise_std=0.04,
            gyro_noise_std=0.004,
            accel_bias_instability=0.005,
            gyro_bias_instability=0.0005,
        )


@dataclass(frozen=True)
class ImuSample:
    """One IMU measurement: specific force and angular rate in the body frame."""

    acceleration: Vec3
    angular_rate: Vec3
    timestamp: float


class ImuSensor:
    """Simulated IMU with white noise plus slowly wandering bias."""

    def __init__(self, quality: ImuQuality | None = None, seed: int = 0) -> None:
        self.quality = quality or ImuQuality.consumer_grade()
        self._rng = np.random.default_rng(seed)
        self._accel_bias = (0.0, 0.0, 0.0)
        self._gyro_bias = (0.0, 0.0, 0.0)

    def measure(
        self,
        true_acceleration: Vec3,
        true_angular_rate: Vec3,
        timestamp: float,
    ) -> ImuSample:
        q = self.quality
        # One standard_normal(12) draws, in order, the accelerometer and gyro
        # bias walks and the accelerometer and gyro white noise; each value
        # is 0.0 + std * z, as the four normal(0.0, std, size=3) calls gave.
        z = self._rng.standard_normal(12).tolist()
        std = q.accel_bias_instability
        ax, ay, az = self._accel_bias
        self._accel_bias = accel_bias = (
            ax + (0.0 + std * z[0]) * 0.01,
            ay + (0.0 + std * z[1]) * 0.01,
            az + (0.0 + std * z[2]) * 0.01,
        )
        std = q.gyro_bias_instability
        gx, gy, gz = self._gyro_bias
        self._gyro_bias = gyro_bias = (
            gx + (0.0 + std * z[3]) * 0.01,
            gy + (0.0 + std * z[4]) * 0.01,
            gz + (0.0 + std * z[5]) * 0.01,
        )
        std = q.accel_noise_std
        accel = Vec3(
            (true_acceleration.x + accel_bias[0]) + (0.0 + std * z[6]),
            (true_acceleration.y + accel_bias[1]) + (0.0 + std * z[7]),
            (true_acceleration.z + accel_bias[2]) + (0.0 + std * z[8]),
        )
        std = q.gyro_noise_std
        gyro = Vec3(
            (true_angular_rate.x + gyro_bias[0]) + (0.0 + std * z[9]),
            (true_angular_rate.y + gyro_bias[1]) + (0.0 + std * z[10]),
            (true_angular_rate.z + gyro_bias[2]) + (0.0 + std * z[11]),
        )
        return ImuSample(acceleration=accel, angular_rate=gyro, timestamp=timestamp)
