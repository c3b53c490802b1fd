"""Simulated sensors.

Every sensor takes the ground-truth :class:`~repro.world.World` and the
ground-truth vehicle state and produces noisy measurements — the only data
the landing system ever sees.  This mirrors the real platform (downward D435i
colour stream, forward D435 depth stream, NEO-3 GPS, IMUs, TFMini
rangefinder).
"""

from repro.sensors.camera import CameraIntrinsics, DownwardCamera, CameraFrame
from repro.sensors.depth import DepthCamera, PointCloud
from repro.sensors.gps import GpsSensor, GpsFix
from repro.sensors.imu import ImuSensor
from repro.sensors.rangefinder import Rangefinder
from repro.sensors.barometer import Barometer

__all__ = [
    "CameraIntrinsics",
    "DownwardCamera",
    "CameraFrame",
    "DepthCamera",
    "PointCloud",
    "GpsSensor",
    "GpsFix",
    "ImuSensor",
    "Rangefinder",
    "Barometer",
]
