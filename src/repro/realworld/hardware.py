"""Flight-controller hardware profiles.

"Another issue was poor local positioning due to low-quality acceleration and
rotational data, which was addressed by upgrading from Pixhawk 2.4.8 to the
Cuav X7+ flight controller, featuring triple IMUs, dual barometers, and
improved sensors." (§V.C)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sensors.imu import ImuQuality


@dataclass(frozen=True)
class FlightControllerProfile:
    """Sensor quality and redundancy of a flight-controller board."""

    name: str
    imu_quality: ImuQuality
    imu_count: int

    @property
    def effective_imu_quality(self) -> ImuQuality:
        """Noise reduction from averaging redundant IMUs (1/sqrt(n))."""
        factor = 1.0 / (self.imu_count**0.5)
        q = self.imu_quality
        return ImuQuality(
            accel_noise_std=q.accel_noise_std * factor,
            accel_bias_instability=q.accel_bias_instability * factor,
        )


#: The board the platform started with.
PIXHAWK_2_4_8 = FlightControllerProfile(
    name="Pixhawk 2.4.8",
    imu_quality=ImuQuality.consumer_grade(),
    imu_count=1,
)

#: The upgraded board.
CUAV_X7_PRO = FlightControllerProfile(
    name="Cuav X7+ Pro",
    imu_quality=ImuQuality.industrial_grade(),
    imu_count=3,
)
