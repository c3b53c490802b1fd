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
* :mod:`repro.realworld.field_test` — the field-test flights: takes a SIL
  scenario, degrades GNSS conditions, adds wind during the final descent,
  runs on the real-world Jetson profile (live camera I/O) and the selected
  flight controller; :func:`run_field_campaign` flies a whole suite.
"""

from repro.realworld.hardware import FlightControllerProfile, PIXHAWK_2_4_8, CUAV_X7_PRO
from repro.realworld.gps_drift import GpsDriftReport, characterise_gps_drift
from repro.realworld.sensor_faults import PointCloudFaultReport, characterise_point_cloud_faults
from repro.realworld.field_test import (
    FieldTestConfig,
    build_field_world,
    run_field_campaign,
    run_field_scenario,
)

__all__ = [
    "FlightControllerProfile",
    "PIXHAWK_2_4_8",
    "CUAV_X7_PRO",
    "GpsDriftReport",
    "characterise_gps_drift",
    "PointCloudFaultReport",
    "characterise_point_cloud_faults",
    "FieldTestConfig",
    "build_field_world",
    "run_field_campaign",
    "run_field_scenario",
]
