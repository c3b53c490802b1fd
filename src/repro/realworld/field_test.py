"""Field-test (RQ3) platform and scenario transform.

"For real-world testing, scenarios were simplified to fit within the limited
airspace available" (§IV.C.3): shorter transits, the MLS-V3 system only, and
the environmental effects that the paper reports — GPS drift in poor weather,
wind during the final descent, heavier CPU/RAM load from live camera feeds,
and the flight-controller IMU quality (Pixhawk 2.4.8 before the upgrade,
Cuav X7+ after).

:func:`field_suite` applies the airspace and weather simplification to a
suite, and :class:`FieldPlatform` carries the hardware, so an RQ3 campaign is
an ordinary :class:`~repro.bench.campaign.Campaign` on the ``field`` platform
key::

    Campaign(mls_v3()).suite(field_suite(suite)).platform("field").repetitions(1)
"""

from __future__ import annotations

from dataclasses import replace

from repro.geometry import Vec3
from repro.hil.jetson import JetsonNanoPlatform, JetsonNanoSpec
from repro.realworld.hardware import CUAV_X7_PRO, FlightControllerProfile
from repro.world.scenario import Scenario
from repro.world.scenario_suite import ScenarioSuite
from repro.world.weather import Weather, WeatherCondition

#: Field conditions: GNSS degradation and wind are always at least this bad.
MINIMUM_GPS_DEGRADATION = 0.45
MINIMUM_WIND_SPEED = 3.0
MINIMUM_GUST_INTENSITY = 0.35
#: The marker is moved no farther than this from take-off, metres.
MAX_TARGET_DISTANCE = 25.0


class FieldPlatform(JetsonNanoPlatform):
    """The real drone: a Jetson Nano with live camera I/O and a flight controller.

    Seeded per scenario, it charges the bound landing system's live map to
    the Nano's memory, and its IMU is the flight controller's.
    """

    def __init__(
        self, seed: int, flight_controller: FlightControllerProfile = CUAV_X7_PRO
    ) -> None:
        super().__init__(spec=JetsonNanoSpec.real_world(), seed=seed)
        self.imu_quality = flight_controller.effective_imu_quality

    def bind(self, system) -> None:
        self._map_memory_provider = system.map_memory_bytes


def _degrade_weather(weather: Weather) -> Weather:
    """Apply the field conditions: GNSS degradation and wind always present."""
    condition = weather.condition
    if not condition.is_adverse:
        condition = WeatherCondition.WIND
    return Weather(
        condition=condition,
        visibility=weather.visibility,
        glare=weather.glare,
        image_noise=max(weather.image_noise, 0.02),
        wind_speed=max(weather.wind_speed, MINIMUM_WIND_SPEED),
        gust_intensity=max(weather.gust_intensity, MINIMUM_GUST_INTENSITY),
        gps_degradation=max(weather.gps_degradation, MINIMUM_GPS_DEGRADATION),
        precipitation=weather.precipitation,
    )


def _simplify_scenario(scenario: Scenario) -> Scenario:
    """Shrink a SIL scenario to fit the limited field-test airspace."""
    distance = scenario.marker_position.horizontal_norm()
    if distance <= MAX_TARGET_DISTANCE or distance < 1e-9:
        marker_position = scenario.marker_position
        gps_target = scenario.gps_target
    else:
        scale = MAX_TARGET_DISTANCE / distance
        marker_position = Vec3(
            scenario.marker_position.x * scale, scenario.marker_position.y * scale, 0.0
        )
        gps_offset = scenario.gps_target - scenario.marker_position
        gps_target = marker_position + gps_offset
    return replace(
        scenario,
        marker_position=marker_position,
        gps_target=gps_target,
        weather=_degrade_weather(scenario.weather),
        decoy_count=min(scenario.decoy_count, 1),
    )


def field_suite(suite: ScenarioSuite) -> ScenarioSuite:
    """``suite`` with every scenario simplified to the field airspace and weather."""
    return replace(suite, scenarios=[_simplify_scenario(scenario) for scenario in suite])
