"""Tests for the World container: collision queries, ray casting, landing validity."""

import pytest

from repro.geometry import AABB, Vec3
from repro.world.obstacles import building, tree, water
from repro.world.world import World


@pytest.fixture
def simple_world():
    bounds = AABB(Vec3(-50, -50, 0), Vec3(50, 50, 40))
    obstacles = [building(10, 0, 4, 4, 10, name="block")]
    obstacles += tree(0, 10, canopy_radius=3, height=8, name="oak")
    obstacles.append(water(-10, -10, 6, 6, name="pond"))
    return World(name="test", bounds=bounds, obstacles=obstacles)


class TestCollisionQueries:
    def test_point_inside_building_collides(self, simple_world):
        assert simple_world.colliding_obstacle(Vec3(10, 0, 5)) is not None

    def test_point_in_free_space_does_not_collide(self, simple_world):
        assert simple_world.colliding_obstacle(Vec3(0, 0, 5)) is None

    def test_water_is_not_flight_collision(self, simple_world):
        assert simple_world.colliding_obstacle(Vec3(-10, -10, 0.02)) is None

    def test_margin_expands_collision(self, simple_world):
        just_outside = Vec3(12.2, 0, 5)
        assert simple_world.colliding_obstacle(just_outside) is None
        assert simple_world.colliding_obstacle(just_outside, margin=0.5).name == "block"

    def test_colliding_obstacle_returns_name(self, simple_world):
        obstacle = simple_world.colliding_obstacle(Vec3(10, 0, 5))
        assert obstacle is not None and obstacle.name == "block"

    def test_segment_through_building(self, simple_world):
        # A segment is a ray cut at its length.
        assert simple_world.raycast(Vec3(0, 0, 5), Vec3(1, 0, 0), max_range=20) is not None
        assert simple_world.raycast(Vec3(0, 0, 20), Vec3(1, 0, 0), max_range=20) is None

    def test_clearance_decreases_near_obstacles(self, simple_world):
        far = simple_world.clearance(Vec3(-30, 30, 5))
        near = simple_world.clearance(Vec3(8.5, 0, 5))
        assert near < far


class TestRaycast:
    def test_downward_ray_hits_ground(self, simple_world):
        hit = simple_world.raycast(Vec3(0, 0, 10), Vec3(0, 0, -1), max_range=20)
        assert hit == pytest.approx(10.0, abs=1e-6)

    def test_ray_hits_building_before_ground(self, simple_world):
        hit = simple_world.raycast(Vec3(10, 0, 20), Vec3(0, 0, -1), max_range=30)
        assert hit == pytest.approx(10.0, abs=1e-6)

    def test_horizontal_ray_hits_building_side(self, simple_world):
        hit = simple_world.raycast(Vec3(0, 0, 5), Vec3(1, 0, 0), max_range=30)
        assert hit == pytest.approx(8.0, abs=1e-6)

    def test_out_of_range_returns_none(self, simple_world):
        assert simple_world.raycast(Vec3(0, 0, 5), Vec3(1, 0, 0), max_range=3) is None

    def test_canopy_hidden_until_close(self, simple_world):
        # Canopy of the tree at (0, 10) spans z in [3.2, 8]; ray from far away
        # pointed at it passes through because it has not been "seen" yet.
        far_origin = Vec3(0, -20, 5)
        direction = Vec3(0, 1, 0)
        hit_far = simple_world.raycast(far_origin, direction, 60, visible_only_from=far_origin)
        near_origin = Vec3(0, 5, 5)
        hit_near = simple_world.raycast(near_origin, direction, 60, visible_only_from=near_origin)
        assert hit_near is not None and hit_near == pytest.approx(2.0, abs=0.1)
        assert hit_far is None or hit_far > 25.0

    def test_zero_direction_rejected(self, simple_world):
        with pytest.raises(ValueError):
            simple_world.raycast(Vec3(0, 0, 5), Vec3(0, 0, 0), 10)


class TestLandingValidity:
    def test_open_ground_is_valid(self, simple_world):
        assert simple_world.is_valid_landing_point(Vec3(0, -20, 0))

    def test_water_is_invalid(self, simple_world):
        assert not simple_world.is_valid_landing_point(Vec3(-10, -10, 0))

    def test_next_to_building_is_invalid(self, simple_world):
        assert not simple_world.is_valid_landing_point(Vec3(12.1, 0, 0))

    def test_outside_bounds_is_invalid(self, simple_world):
        assert not simple_world.is_valid_landing_point(Vec3(200, 0, 0))

    def test_target_marker_lookup(self, simple_world):
        from repro.world.markers import Marker

        simple_world.markers = [
            Marker(marker_id=3, position=Vec3(1, 1, 0)),
            Marker(marker_id=7, position=Vec3(2, 2, 0), is_target=True),
        ]
        assert simple_world.target_marker.marker_id == 7
