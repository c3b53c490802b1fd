"""Tests for the component registry, config serialization and Campaign API."""

import json

import pytest

from repro import (
    REGISTRY,
    Campaign,
    ComponentContext,
    ComponentError,
    LandingSystem,
    LandingSystemConfig,
    MissionConfig,
    ablation_grid,
    build_evaluation_suite,
    mls_v1,
    mls_v2,
    mls_v3,
    register_detector,
    run_scenario,
)
from repro.bench.campaign import CampaignJob
from repro.core.config import SystemGeneration, preset
from repro.core.registry import DETECTOR, MAPPER, PLANNER
from repro.geometry import Vec3
from repro.perception.classical import ClassicalMarkerDetector


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
class TestComponentRegistry:
    def test_builtin_components_registered(self):
        assert set(REGISTRY.keys(DETECTOR)) == {"opencv", "tph-yolo"}
        assert set(REGISTRY.keys(MAPPER)) == {"none", "dense-grid", "octomap"}
        assert set(REGISTRY.keys(PLANNER)) == {"straight-line", "ego-local-astar", "rrt-star"}

    def test_aliases_resolve(self):
        assert REGISTRY.canonical_key(DETECTOR, "learned") == "tph-yolo"
        assert REGISTRY.canonical_key(DETECTOR, "classical") == "opencv"
        assert REGISTRY.canonical_key(PLANNER, "ego") == "ego-local-astar"
        assert REGISTRY.canonical_key(MAPPER, "octree") == "octomap"

    def test_nominal_latency_declared_per_component(self):
        assert REGISTRY.nominal_latency(PLANNER, "rrt-star") == pytest.approx(0.120)
        assert REGISTRY.nominal_latency(DETECTOR, "opencv") == pytest.approx(0.012)
        assert REGISTRY.nominal_latency(MAPPER, "none") == 0.0

    def test_unknown_key_raises_with_choices(self):
        with pytest.raises(ComponentError, match="registered detectors.*opencv"):
            REGISTRY.spec(DETECTOR, "no-such-detector")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ComponentError, match="already registered"):
            register_detector("opencv", latency=0.01)(lambda ctx: None)

    def test_valid_combinations_subset_of_grid(self):
        grid = set(REGISTRY.combinations())
        valid = set(REGISTRY.valid_combinations())
        assert len(grid) == 18
        assert len(valid) == 12
        assert valid <= grid
        # EGO needs the dense grid; RRT* needs any inflated map.
        assert ("opencv", "none", "ego-local-astar") not in valid
        assert ("opencv", "none", "rrt-star") not in valid
        assert ("opencv", "octomap", "rrt-star") in valid
        assert ("opencv", "octomap", "ego-local-astar") not in valid

    def test_unbuildable_combination_raises_at_build(self):
        config = LandingSystemConfig.custom(mapper="none", planner="rrt-star")
        with pytest.raises(ComponentError, match="requires a mapper"):
            LandingSystem(config, target_marker_id=1, gps_target=Vec3(1, 1, 0))


class TestCustomComponent:
    @pytest.fixture
    def toy_detector(self):
        calls = {"count": 0}

        class ToyDetector:
            def __init__(self):
                self._inner = ClassicalMarkerDetector()

            def detect(self, frame):
                calls["count"] += 1
                return self._inner.detect(frame)

        @register_detector("toy", latency=0.005, metadata={"needs_network": False})
        def _build_toy(ctx: ComponentContext):
            return ToyDetector()

        yield ToyDetector, calls
        REGISTRY.unregister(DETECTOR, "toy")

    def test_custom_detector_runs_a_mission(self, toy_detector):
        toy_cls, calls = toy_detector
        config = LandingSystemConfig.custom(detector="toy", name="toy-system")
        assert config.detector == "toy"  # custom keys stay strings
        assert config.name == "toy-system"

        system = LandingSystem(config, target_marker_id=1, gps_target=Vec3(5, 5, 0))
        assert isinstance(system.detector, toy_cls)

        scenario = build_evaluation_suite().subset(1).scenarios[0]
        record = run_scenario(
            scenario, config, mission_config=MissionConfig(max_mission_time=10.0)
        )
        assert record.system_name == "toy-system"
        assert calls["count"] > 0
        # The declared latency feeds the resource model.
        assert REGISTRY.nominal_latency(DETECTOR, "toy") == pytest.approx(0.005)

    def test_unregister_removes_component(self, toy_detector):
        REGISTRY.unregister(DETECTOR, "toy")
        assert not REGISTRY.has(DETECTOR, "toy")
        register_detector("toy", latency=0.005)(lambda ctx: None)  # fixture teardown


# ---------------------------------------------------------------------- #
# configuration
# ---------------------------------------------------------------------- #
class TestConfigComposition:
    def test_custom_accepts_strings_and_aliases(self):
        config = LandingSystemConfig.custom("learned", "octree", "rrt")
        assert (config.detector, config.mapper, config.planner) == ("tph-yolo", "octomap", "rrt-star")
        assert config.generation is None
        assert config.name == "custom(tph-yolo+octomap+rrt-star)"

    def test_presets_unchanged(self):
        assert mls_v1().detector == "opencv"
        assert mls_v2().planner == "ego-local-astar"
        assert mls_v3().name == "MLS-V3"
        assert preset("MLS-V2") == mls_v2()

    def test_ablation_grid_is_18_wide(self):
        configs = list(ablation_grid())
        assert len(configs) == 18
        assert len({c.name for c in configs}) == 18
        assert len(list(ablation_grid(valid_only=True))) == 12

    def test_with_components_swaps_and_clears_generation(self):
        hybrid = mls_v3().with_components(planner="straight-line", name="V3-straight")
        assert hybrid.detector == "tph-yolo"
        assert hybrid.planner == "straight-line"
        assert hybrid.generation is None
        assert hybrid.name == "V3-straight"


class TestConfigSerialization:
    def test_round_trip_presets(self):
        for config in (mls_v1(), mls_v2(), mls_v3()):
            assert LandingSystemConfig.from_dict(config.to_dict()) == config

    def test_round_trip_custom_with_overrides_via_json(self):
        config = LandingSystemConfig.custom(
            "opencv", "dense-grid", "straight-line", name="tuned", cruise_altitude=20.0
        ).with_validation(required_hits=9).with_safety(obstacle_clearance=0.8)
        payload = json.dumps(config.to_dict())
        restored = LandingSystemConfig.from_dict(json.loads(payload))
        assert restored == config
        assert restored.validation.required_hits == 9
        assert restored.safety.obstacle_clearance == 0.8
        assert restored.name == "tuned"

    def test_partial_dict_uses_defaults(self):
        config = LandingSystemConfig.from_dict({"detector": "tph-yolo"})
        assert config.detector == "tph-yolo"
        assert config.mapper == "none"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown LandingSystemConfig keys"):
            LandingSystemConfig.from_dict({"detectr": "opencv"})

    def test_generation_round_trips(self):
        data = mls_v2().to_dict()
        assert data["generation"] == "MLS-V2"
        assert LandingSystemConfig.from_dict(data).generation is SystemGeneration.MLS_V2


# ---------------------------------------------------------------------- #
# campaign
# ---------------------------------------------------------------------- #
class TestCampaignBuilder:
    def test_jobs_preserve_mission_overrides_per_repetition(self):
        # Regression test: the old runner rebuilt MissionConfig by hand and
        # silently dropped collision_margin / success_radius /
        # min_marker_pixels_for_visibility / end_on_failsafe overrides.
        mission = MissionConfig(
            collision_margin=0.2,
            success_radius=2.5,
            min_marker_pixels_for_visibility=3.0,
            end_on_failsafe=False,
        )
        jobs = Campaign(mls_v1()).scenarios(2).repetitions(2).mission(mission).jobs()
        assert len(jobs) == 4
        for job in jobs:
            assert job.mission.collision_margin == 0.2
            assert job.mission.success_radius == 2.5
            assert job.mission.min_marker_pixels_for_visibility == 3.0
            assert job.mission.end_on_failsafe is False
        assert [job.mission.camera_seed for job in jobs] == [0, 1, 0, 1]

    def test_systems_accepts_presets_generations_and_configs(self):
        campaign = Campaign().systems("mls-v1", SystemGeneration.MLS_V2, mls_v3())
        assert [job.system.name for job in campaign.scenarios(1).repetitions(1).jobs()] == [
            "MLS-V1",
            "MLS-V2",
            "MLS-V3",
        ]

    def test_network_loaded_only_for_learned_detectors(self):
        v1_jobs = Campaign(mls_v1()).scenarios(1).repetitions(1).jobs()
        v3_jobs = Campaign(mls_v3()).scenarios(1).repetitions(1).jobs()
        assert not v1_jobs[0].needs_network
        assert v3_jobs[0].needs_network

    def test_platform_validation(self):
        from repro.core.platform import DesktopPlatform

        for platform in ("abacus", "jetson-nano-real", DesktopPlatform):
            with pytest.raises(ValueError, match="unknown platform"):
                Campaign().platform(platform)
        Campaign().platform("jetson-nano")  # known key validates

    def test_fluent_setters_validate(self):
        with pytest.raises(ValueError):
            Campaign().scenarios(0)
        with pytest.raises(ValueError):
            Campaign().repetitions(-1)
        with pytest.raises(ValueError):
            Campaign().parallel(0)
        with pytest.raises(TypeError):
            Campaign().systems(42)

    def test_scenario_subset_is_the_paper_preset(self):
        # A count past the evaluation suite's 100 scenarios is refused, not
        # silently clamped to 100.
        with pytest.raises(ValueError, match="fixed at 100 scenarios"):
            Campaign(mls_v1()).scenarios(150).jobs()
        assert len(Campaign(mls_v1()).scenarios(100).repetitions(1).jobs()) == 100
        jobs = Campaign(mls_v1()).scenarios(4).seed(7).repetitions(1).jobs()
        expected = build_evaluation_suite(base_seed=7).subset(4)
        assert [job.scenario.fingerprint() for job in jobs] == [
            scenario.fingerprint() for scenario in expected
        ]

    def test_jobs_are_picklable(self):
        import pickle

        job = Campaign(mls_v3()).scenarios(1).repetitions(1).jobs()[0]
        clone = pickle.loads(pickle.dumps(job))
        assert isinstance(clone, CampaignJob)
        assert clone.system == job.system
        assert clone.scenario.scenario_id == job.scenario.scenario_id

    def test_duplicate_system_names_rejected(self):
        campaign = Campaign(mls_v1(), mls_v1().with_validation(required_hits=9)).scenarios(1)
        with pytest.raises(ValueError, match="duplicate system names.*MLS-V1"):
            campaign.run()

    def test_mapping_stack_memory_duck_typed(self):
        from repro.core.registry import MappingStack

        assert MappingStack().memory_bytes() == 0
        assert MappingStack(primary=object()).memory_bytes() == 0


@pytest.mark.slow
class TestCampaignExecution:
    def _signature(self, results):
        out = {}
        for name, campaign in results.items():
            out[name] = [
                (
                    record.scenario_id,
                    record.outcome.value,
                    None if record.landing_error != record.landing_error
                    else round(record.landing_error, 9),
                    round(record.mission_time, 6),
                    record.aborts,
                    record.planner_failures,
                )
                for record in campaign.records
            ]
        return out

    def test_parallel_results_identical_to_serial(self):
        suite = build_evaluation_suite().subset(2)
        suite.repetitions = 1
        systems = [
            mls_v1(),
            LandingSystemConfig.custom(
                "opencv", "dense-grid", "straight-line", name="V1+grid"
            ),
        ]
        mission = MissionConfig(max_mission_time=30.0)

        serial = Campaign(*systems).suite(suite).mission(mission).run()
        parallel = Campaign(*systems).suite(suite).mission(mission).parallel(2).run()

        assert self._signature(serial) == self._signature(parallel)
        assert {name: len(c.records) for name, c in serial.items()} == {
            "MLS-V1": 2,
            "V1+grid": 2,
        }
