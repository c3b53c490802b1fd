"""End-to-end integration tests: full missions on small, fast scenarios.

These are the slowest tests in the suite (a few tens of seconds total); they
exercise the complete loop — world, sensors, autopilot, perception, mapping,
planning, decision making, metrics — for each system generation.
"""

import pytest

from repro.core.config import mls_v1, mls_v3

pytestmark = pytest.mark.slow
from repro.core.metrics import RunOutcome
from repro.core.mission import MissionConfig, MissionRunner
from repro.core.states import DecisionState
from repro.geometry import Vec3
from repro.hil.jetson import JetsonNanoPlatform
from repro.perception.neural.training import load_pretrained_detector_net
from repro.world.map_generator import MapStyle
from repro.world.scenario import Scenario
from repro.world.weather import Weather


@pytest.fixture(scope="module")
def network():
    return load_pretrained_detector_net()


def easy_scenario(seed=101):
    """A short, clear-weather scenario on an almost empty rural map."""
    return Scenario(
        scenario_id="itest-easy",
        map_style=MapStyle.RURAL,
        map_seed=909,
        weather=Weather.clear(),
        gps_target=Vec3(16, 2, 0),
        marker_position=Vec3(17.5, 0.5, 0),
        decoy_count=1,
        seed=seed,
    )


def fast_mission_config():
    return MissionConfig(max_mission_time=120.0)


@pytest.mark.slow
class TestEndToEnd:
    def test_mls_v3_lands_on_marker_in_clear_weather(self, network):
        runner = MissionRunner(
            easy_scenario(),
            mls_v3(),
            mission_config=fast_mission_config(),
            detector_network=network,
        )
        record = runner.run()
        assert record.outcome is RunOutcome.SUCCESS
        assert record.landed
        assert record.landing_error < 1.0
        assert record.detection.frames_with_visible_marker > 0
        assert runner.system.state in (DecisionState.LANDED, DecisionState.FINAL_DESCENT)

    def test_mls_v1_completes_and_is_scored(self, network):
        record = MissionRunner(
            easy_scenario(seed=103),
            mls_v1(),
            mission_config=fast_mission_config(),
        ).run()
        assert record.outcome in (RunOutcome.SUCCESS, RunOutcome.COLLISION, RunOutcome.POOR_LANDING)
        assert record.mission_time > 0
        assert record.system_name == "MLS-V1"

    def test_hil_platform_records_resources(self, network):
        record = MissionRunner(
            easy_scenario(seed=105),
            mls_v3(),
            mission_config=fast_mission_config(),
            platform=JetsonNanoPlatform(seed=7),
            detector_network=network,
        ).run()
        resources = record.resources
        assert resources.cpu_utilisation_samples
        assert len(resources.memory_mb_samples) == len(resources.cpu_utilisation_samples)
        assert len(resources.gpu_utilisation_samples) == len(resources.cpu_utilisation_samples)
        assert resources.mean_memory_mb > 1500.0

    def test_runs_are_reproducible(self, network):
        records = []
        for _ in range(2):
            records.append(
                MissionRunner(
                    easy_scenario(seed=107),
                    mls_v3(),
                    mission_config=fast_mission_config(),
                    detector_network=network,
                ).run()
            )
        assert records[0].outcome == records[1].outcome
        assert records[0].mission_time == pytest.approx(records[1].mission_time, abs=1e-6)
