"""Field-test (RQ3) campaign wrapper.

"For real-world testing, scenarios were simplified to fit within the limited
airspace available" (§IV.C.3): shorter transits, the MLS-V3 system only, and
the environmental effects that the paper reports — GPS drift in poor weather,
wind during the final descent, heavier CPU/RAM load from live camera feeds,
and the flight-controller IMU quality (Pixhawk 2.4.8 before the upgrade,
Cuav X7+ after).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import LandingSystemConfig, mls_v3
from repro.core.metrics import CampaignResult, RunRecord
from repro.core.mission import MissionConfig, MissionRunner
from repro.geometry import Vec3
from repro.hil.jetson import JetsonNanoPlatform, JetsonNanoSpec
from repro.perception.neural.training import load_pretrained_detector_net
from repro.realworld.hardware import CUAV_X7_PRO, FlightControllerProfile
from repro.vehicle.autopilot import AutopilotConfig
from repro.world.scenario import Scenario
from repro.world.scenario_suite import ScenarioSuite
from repro.world.weather import Weather, WeatherCondition
from repro.world.world import World


@dataclass(frozen=True)
class FieldTestConfig:
    """Configuration of a real-world test flight."""

    flight_controller: FlightControllerProfile = CUAV_X7_PRO
    minimum_gps_degradation: float = 0.45
    minimum_wind_speed: float = 3.0
    minimum_gust_intensity: float = 0.35
    max_target_distance: float = 25.0
    jetson_spec: JetsonNanoSpec = field(default_factory=JetsonNanoSpec.real_world)


def _degrade_weather(weather: Weather, config: FieldTestConfig) -> Weather:
    """Apply the field conditions: GNSS degradation and wind always present."""
    condition = weather.condition
    if not condition.is_adverse:
        condition = WeatherCondition.WIND
    return Weather(
        condition=condition,
        visibility=weather.visibility,
        glare=weather.glare,
        image_noise=max(weather.image_noise, 0.02),
        wind_speed=max(weather.wind_speed, config.minimum_wind_speed),
        gust_intensity=max(weather.gust_intensity, config.minimum_gust_intensity),
        gps_degradation=max(weather.gps_degradation, config.minimum_gps_degradation),
        precipitation=weather.precipitation,
    )


def simplify_scenario(scenario: Scenario, config: FieldTestConfig) -> Scenario:
    """Shrink a SIL scenario to fit the limited field-test airspace."""
    distance = scenario.marker_position.horizontal_norm()
    if distance <= config.max_target_distance or distance < 1e-9:
        marker_position = scenario.marker_position
        gps_target = scenario.gps_target
    else:
        scale = config.max_target_distance / distance
        marker_position = Vec3(
            scenario.marker_position.x * scale, scenario.marker_position.y * scale, 0.0
        )
        gps_offset = scenario.gps_target - scenario.marker_position
        gps_target = marker_position + gps_offset
    return replace(
        scenario,
        marker_position=marker_position,
        gps_target=gps_target,
        weather=_degrade_weather(scenario.weather, config),
        decoy_count=min(scenario.decoy_count, 1),
    )


def build_field_world(scenario: Scenario, config: FieldTestConfig | None = None) -> World:
    """The world for a simplified field scenario (degraded weather applied)."""
    config = config or FieldTestConfig()
    return simplify_scenario(scenario, config).build_world()


def run_field_scenario(
    scenario: Scenario,
    system_config: LandingSystemConfig | None = None,
    config: FieldTestConfig | None = None,
    mission_config: MissionConfig | None = None,
    detector_network=None,
) -> RunRecord:
    """Run one real-world test flight and return its record.

    Only MLS-V3 was flown in the field ("Due to safety concerns, MLS-V1 and
    MLS-V2 were not tested"); passing a different ``system_config`` is allowed
    for ablation purposes but defaults to V3.
    """
    config = config or FieldTestConfig()
    system_config = system_config or mls_v3()
    field_scenario = simplify_scenario(scenario, config)

    autopilot_config = AutopilotConfig(
        imu_quality=config.flight_controller.effective_imu_quality,
    )

    platform = JetsonNanoPlatform(spec=config.jetson_spec, seed=scenario.seed)
    runner = MissionRunner(
        field_scenario,
        system_config,
        mission_config=mission_config,
        platform=platform,
        detector_network=detector_network,
        autopilot_config=autopilot_config,
    )
    platform._map_memory_provider = runner.system.map_memory_bytes
    return runner.run()


def run_field_campaign(suite: ScenarioSuite) -> CampaignResult:
    """The RQ3 campaign: MLS-V3 flies every scenario of ``suite`` once.

    A serial loop rather than a :class:`~repro.bench.campaign.Campaign`:
    each flight builds its own Jetson platform, seeded per scenario and fed
    the live system's map memory, which a campaign platform key cannot
    express.
    """
    network = load_pretrained_detector_net()
    result = CampaignResult(system_name=mls_v3().name)
    for scenario in suite:
        result.add(run_field_scenario(scenario, detector_network=network))
    return result
