"""Tests for map generation, scenarios and the evaluation suite."""

import pytest

from repro.geometry import Vec3
from repro.world.map_generator import MapSpec, MapStyle, generate_map, prune_obstacles_near
from repro.world.scenario import DECOY_MARKER_IDS, TARGET_MARKER_ID, Scenario
from repro.world.scenario_suite import build_evaluation_suite


class TestMapGenerator:
    def test_deterministic_given_seed(self):
        a = generate_map(MapStyle.URBAN, seed=3)
        b = generate_map(MapStyle.URBAN, seed=3)
        assert len(a.obstacles) == len(b.obstacles)
        assert all(
            x.bounds.minimum == y.bounds.minimum for x, y in zip(a.obstacles, b.obstacles)
        )

    def test_different_seeds_differ(self):
        a = generate_map(MapStyle.URBAN, seed=3)
        b = generate_map(MapStyle.URBAN, seed=4)
        assert any(
            x.bounds.minimum != y.bounds.minimum for x, y in zip(a.obstacles, b.obstacles)
        )

    def test_urban_has_more_buildings_than_rural(self):
        from repro.world.obstacles import ObstacleKind

        urban = generate_map(MapStyle.URBAN, seed=1)
        rural = generate_map(MapStyle.RURAL, seed=1)
        count = lambda world: sum(1 for o in world.obstacles if o.kind is ObstacleKind.BUILDING)
        assert count(urban) > count(rural)

    def test_spawn_area_kept_clear(self):
        world = generate_map(MapStyle.URBAN, seed=5)
        assert world.colliding_obstacle(Vec3(0, 0, 5)) is None

    def test_keep_clear_respected(self):
        target = Vec3(30, 30, 0)
        world = generate_map(MapStyle.URBAN, seed=5, keep_clear=[target])
        assert world.clearance(target.with_z(2.0)) > 1.0

    def test_prune_obstacles_near(self):
        world = generate_map(MapStyle.URBAN, seed=7)
        point = world.obstacles[0].bounds.center.with_z(0.0)
        prune_obstacles_near(world, point, radius=5.0)
        for obstacle in world.obstacles:
            closest = obstacle.bounds.closest_point(point.with_z(0.5))
            assert closest.horizontal_distance_to(point) >= 5.0

    def test_style_spec_defaults(self):
        assert MapSpec.for_style(MapStyle.URBAN).building_count > MapSpec.for_style(MapStyle.SUBURBAN).building_count


class TestScenario:
    def test_generate_is_deterministic(self):
        a = Scenario.generate("s", MapStyle.RURAL, 1, adverse_weather=False, seed=9)
        b = Scenario.generate("s", MapStyle.RURAL, 1, adverse_weather=False, seed=9)
        assert a.marker_position == b.marker_position
        assert a.gps_target == b.gps_target

    def test_gps_target_is_offset_from_marker(self):
        scenario = Scenario.generate("s", MapStyle.RURAL, 1, adverse_weather=False, seed=3)
        offset = scenario.gps_target.horizontal_distance_to(scenario.marker_position)
        assert 0.5 <= offset <= 6.0

    def test_adverse_flag_controls_weather(self):
        adverse = Scenario.generate("a", MapStyle.RURAL, 1, adverse_weather=True, seed=3)
        normal = Scenario.generate("n", MapStyle.RURAL, 1, adverse_weather=False, seed=3)
        assert adverse.is_adverse_weather
        assert not normal.is_adverse_weather

    def test_build_world_places_target_and_decoys(self):
        scenario = Scenario.generate("s", MapStyle.SUBURBAN, 2, adverse_weather=False, seed=11)
        world = scenario.build_world()
        target = world.target_marker
        assert target is not None
        assert target.marker_id == TARGET_MARKER_ID
        assert target.position == scenario.marker_position
        decoys = [m for m in world.markers if not m.is_target]
        assert all(m.marker_id in DECOY_MARKER_IDS for m in decoys)

    def test_marker_area_is_clear_and_landable(self):
        scenario = Scenario.generate("s", MapStyle.URBAN, 3, adverse_weather=False, seed=13)
        world = scenario.build_world()
        assert world.is_valid_landing_point(scenario.marker_position)


class TestScenarioSuite:
    def test_paper_scale_suite_shape(self):
        suite = build_evaluation_suite()
        assert len(suite) == 100
        assert suite.repetitions == 3
        assert suite.total_runs == 300
        assert suite.adverse_count == 50

    def test_scenario_ids_unique(self):
        suite = build_evaluation_suite()
        ids = [s.scenario_id for s in suite]
        assert len(set(ids)) == len(ids)

    def test_subset_preserves_mix(self):
        suite = build_evaluation_suite()
        subset = suite.subset(20)
        assert len(subset) == 20
        assert 0 < subset.adverse_count < 20

    def test_subset_rejects_zero(self):
        with pytest.raises(ValueError):
            build_evaluation_suite().subset(0)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            build_evaluation_suite(map_count=0)
