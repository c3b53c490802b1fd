"""Real-world (field test) substrate.

The paper's RQ3 experiments fly the real drone: an F450 frame, Jetson Nano,
Pixhawk 2.4.8 (later upgraded to a Cuav X7+ Pro), Realsense depth cameras,
NEO-3 GPS and a TFMini rangefinder.  The effects that separate the field
results from HIL are modelled here:

* :mod:`repro.realworld.hardware` — flight-controller / IMU quality profiles
  (Pixhawk 2.4.8 vs Cuav X7+).
* :mod:`repro.realworld.gps_drift` — standalone GPS-drift characterisation
  (the Fig. 5d effect) used by the analysis benches.
* :mod:`repro.realworld.sensor_faults` — erroneous point-cloud
  characterisation (the Fig. 5c effect).
* :mod:`repro.realworld.field_test` — the field-test flights:
  :func:`field_suite` shrinks each SIL scenario to the field airspace,
  degrades GNSS conditions and adds wind during the final descent, and
  :class:`FieldPlatform` is the real-world Jetson profile (live camera I/O)
  behind the selected flight controller.  ``Campaign.platform("field")``
  flies a suite on it.
"""

from repro.realworld.hardware import FlightControllerProfile, PIXHAWK_2_4_8, CUAV_X7_PRO
from repro.realworld.gps_drift import GpsDriftReport, characterise_gps_drift
from repro.realworld.sensor_faults import PointCloudFaultReport, characterise_point_cloud_faults
from repro.realworld.field_test import FieldPlatform, field_suite

__all__ = [
    "FlightControllerProfile",
    "PIXHAWK_2_4_8",
    "CUAV_X7_PRO",
    "GpsDriftReport",
    "characterise_gps_drift",
    "PointCloudFaultReport",
    "characterise_point_cloud_faults",
    "FieldPlatform",
    "field_suite",
]
