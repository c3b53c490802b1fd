"""Unit and property tests for repro.geometry.aabb."""


import pytest
from hypothesis import given, strategies as st

from repro.geometry import AABB, Vec3

coord = st.floats(min_value=-100, max_value=100, allow_nan=False)


def make_box(cx, cy, cz, s):
    half = s / 2
    return AABB(Vec3(cx - half, cy - half, cz - half), Vec3(cx + half, cy + half, cz + half))


class TestConstruction:
    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            AABB(Vec3(1, 0, 0), Vec3(0, 1, 1))

    def test_from_ground_footprint_sits_on_ground(self):
        box = AABB.from_ground_footprint(10, -5, 4, 6, 12)
        assert box.minimum.z == 0.0
        assert box.maximum.z == 12.0
        assert box.center.x == pytest.approx(10.0)


class TestQueries:
    def test_contains_boundary_and_interior(self):
        box = make_box(0, 0, 0, 2)
        assert box.contains(Vec3(0, 0, 0))
        assert box.contains(Vec3(1, 1, 1))
        assert not box.contains(Vec3(1.01, 0, 0))
        assert box.contains(Vec3(1.01, 0, 0), tol=0.02)

    def test_closest_point_inside_is_identity(self):
        box = make_box(0, 0, 0, 2)
        assert box.closest_point(Vec3(0.2, -0.3, 0.1)) == Vec3(0.2, -0.3, 0.1)

    def test_distance_to_point_outside(self):
        box = make_box(0, 0, 0, 2)
        assert box.distance_to_point(Vec3(4, 0, 0)) == pytest.approx(3.0)

    def test_inflated_grows_every_face(self):
        box = make_box(0, 0, 0, 2).inflated(0.5)
        assert box.minimum == Vec3(-1.5, -1.5, -1.5)
        assert box.maximum == Vec3(1.5, 1.5, 1.5)


class TestRayIntersection:
    def test_ray_hits_box_head_on(self):
        box = make_box(5, 0, 0, 2)
        hit = box.ray_intersection(Vec3(0, 0, 0), Vec3(1, 0, 0))
        assert hit == pytest.approx(4.0)

    def test_ray_misses_box(self):
        box = make_box(5, 10, 0, 2)
        assert box.ray_intersection(Vec3(0, 0, 0), Vec3(1, 0, 0)) is None

    def test_ray_starting_inside_reports_zero(self):
        box = make_box(0, 0, 0, 4)
        assert box.ray_intersection(Vec3(0, 0, 0), Vec3(1, 0, 0)) == pytest.approx(0.0)

    def test_ray_respects_max_range(self):
        box = make_box(50, 0, 0, 2)
        assert box.ray_intersection(Vec3(0, 0, 0), Vec3(1, 0, 0), max_range=10.0) is None

    def test_segment_intersects(self):
        # A segment is a ray cut at its length.
        box = make_box(5, 0, 0, 2)
        assert box.ray_intersection(Vec3(0, 0, 0), Vec3(1, 0, 0), max_range=10.0) is not None
        assert box.ray_intersection(Vec3(0, 0, 0), Vec3(1, 0, 0), max_range=3.0) is None
        assert box.ray_intersection(Vec3(0, 5, 0), Vec3(1, 0, 0), max_range=10.0) is None


class TestProperties:
    @given(coord, coord, coord, st.floats(min_value=0.1, max_value=50))
    def test_center_inside_box(self, x, y, z, s):
        box = make_box(x, y, z, s)
        assert box.contains(box.center, tol=1e-9)

    @given(coord, coord, coord, st.floats(min_value=0.1, max_value=50), st.floats(min_value=0, max_value=10))
    def test_inflation_preserves_containment(self, x, y, z, s, margin):
        box = make_box(x, y, z, s)
        bigger = box.inflated(margin)
        assert bigger.contains(box.minimum) and bigger.contains(box.maximum)

    @given(coord, coord, coord)
    def test_closest_point_is_inside(self, x, y, z):
        box = make_box(0, 0, 0, 4)
        assert box.contains(box.closest_point(Vec3(x, y, z)), tol=1e-9)
