"""Real-world (RQ3) style field test: MLS-V3 with GPS drift, wind and camera I/O load.

Takes a scenario from the evaluation suite, simplifies it to fit a small
airspace, degrades the GNSS conditions and adds wind during the descent
(``field_suite``), then flies the mission on the field platform: the
real-world Jetson Nano profile (live camera streams) behind a flight
controller.  Compares the Pixhawk 2.4.8 and Cuav X7+ flight-controller
profiles, the hardware upgrade discussed in §V.C.

Run with:  python examples/field_test.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import MissionRunner, mls_v3
from repro.realworld import CUAV_X7_PRO, PIXHAWK_2_4_8, FieldPlatform, field_suite
from repro.realworld.gps_drift import characterise_gps_drift
from repro.world import build_evaluation_suite
from repro.world.weather import Weather, WeatherCondition


def main() -> None:
    suite = build_evaluation_suite()
    scenario = field_suite(suite).scenarios[2]

    print("GPS characterisation in poor weather (the Fig. 5d effect):")
    report = characterise_gps_drift(Weather.preset(WeatherCondition.STORM, 0.9), duration=90.0)
    print(f"  {report}\n")

    for controller in (PIXHAWK_2_4_8, CUAV_X7_PRO):
        platform = FieldPlatform(scenario.seed, flight_controller=controller)
        record = MissionRunner(scenario, mls_v3(), platform=platform).run()
        landed = f"{record.landing_error:.2f} m from the marker" if record.landed else "did not land"
        print(f"{controller.name:15s}: {record.outcome.value:13s} ({landed}), "
              f"mean CPU {100 * record.resources.mean_cpu:.0f}%, "
              f"mean RAM {record.resources.mean_memory_mb / 1000:.2f} GB")


if __name__ == "__main__":
    main()
