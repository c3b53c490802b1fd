"""Tests for ray traversal, grid indexing and angle helpers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from reference_octree import bresenham_voxels

from repro.geometry import GridIndex, Ray, Vec3
from repro.geometry.grid import angle_difference, wrap_angle
from repro.geometry.ray import voxel_traversal

coord = st.floats(min_value=-30, max_value=30, allow_nan=False)
#: On a 0.5 m voxel face, and on a 1 m face when even.
face = st.integers(min_value=-60, max_value=60).map(lambda i: i * 0.5)
point = st.tuples(*[st.one_of(coord, face)] * 3).map(lambda xyz: Vec3(*xyz))


def traverse(start, *ends, resolution=1.0):
    """Each segment's voxel list from one batched traversal call."""
    voxels, steps = voxel_traversal(
        np.array(start.to_tuple()), np.array([end.to_tuple() for end in ends]), resolution
    )
    return [[tuple(voxel) for voxel in row[: count + 1].tolist()] for row, count in zip(voxels, steps)]


class TestRay:
    def test_direction_is_normalised(self):
        ray = Ray(Vec3.zero(), Vec3(0, 0, 10))
        assert ray.direction.norm() == pytest.approx(1.0)

    def test_zero_direction_raises(self):
        with pytest.raises(ValueError):
            Ray(Vec3.zero(), Vec3.zero())

    def test_point_at_distance(self):
        ray = Ray(Vec3(1, 0, 0), Vec3(1, 0, 0))
        assert ray.point_at(3.0) == Vec3(4, 0, 0)

    def test_between_points(self):
        ray = Ray.between(Vec3(0, 0, 0), Vec3(0, 5, 0))
        assert ray.direction.is_close(Vec3(0, 1, 0))


class TestBresenhamVoxels:
    """The batched ``voxel_traversal``, and its agreement with the scalar walk it replaced."""

    def test_single_voxel_when_start_equals_end(self):
        assert traverse(Vec3(0.2, 0.2, 0.2), Vec3(0.3, 0.3, 0.3)) == [[(0, 0, 0)]]

    def test_straight_line_along_x(self):
        [voxels] = traverse(Vec3(0.5, 0.5, 0.5), Vec3(3.5, 0.5, 0.5))
        assert voxels == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]

    def test_negative_direction(self):
        [voxels] = traverse(Vec3(0.5, 0.5, 0.5), Vec3(-1.5, 0.5, 0.5))
        assert voxels[0] == (0, 0, 0)
        assert voxels[-1] == (-2, 0, 0)

    def test_resolution_must_be_positive(self):
        with pytest.raises(ValueError):
            traverse(Vec3.zero(), Vec3(1, 1, 1), resolution=0.0)

    @given(coord, coord, coord, coord, coord, coord)
    def test_traversal_starts_and_ends_at_correct_voxels(self, x0, y0, z0, x1, y1, z1):
        start, end = Vec3(x0, y0, z0), Vec3(x1, y1, z1)
        [voxels] = traverse(start, end, resolution=0.5)
        index = GridIndex(Vec3.zero(), 0.5)
        assert voxels[0] == index.to_index(start)
        # Endpoints exactly on a voxel boundary may legitimately resolve to a
        # face-adjacent voxel; require the final voxel to be within one cell.
        final, expected = voxels[-1], index.to_index(end)
        assert max(abs(final[i] - expected[i]) for i in range(3)) <= 1

    @given(coord, coord, coord, coord, coord, coord)
    def test_consecutive_voxels_are_face_adjacent(self, x0, y0, z0, x1, y1, z1):
        [voxels] = traverse(Vec3(x0, y0, z0), Vec3(x1, y1, z1))
        for a, b in zip(voxels, voxels[1:]):
            assert sum(abs(a[i] - b[i]) for i in range(3)) == 1

    @given(
        point,
        st.lists(st.one_of(point, st.floats(0.0, 1.0)), min_size=1, max_size=5),
        st.sampled_from((0.5, 1.0)),
    )
    @example(Vec3(0.5, 0.5, 0.5), [Vec3(3.5, 3.5, 3.5), Vec3(-2.0, -2.0, -2.0)], 1.0)  # corners
    @example(Vec3(1.0, 2.0, 3.0), [Vec3(1.0, 2.0, 3.0), Vec3(1.25, 2.25, 3.25)], 0.5)  # one voxel
    @example(Vec3(0.0, 0.0, 0.0), [Vec3(30.0, -0.5, 29.5)], 0.5)  # a face, long walk
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scalar_walk(self, start, ends, resolution):
        """Several segments of one call, each exactly the scalar walk's voxel list."""
        # A fraction stands for the point that far from the start towards the
        # far corner of the start's voxel: inside it, or on its faces.
        corner = Vec3(*(resolution * (v // resolution + 1.0) for v in start))
        ends = [start.lerp(corner, end) if isinstance(end, float) else end for end in ends]
        expected = [list(bresenham_voxels(start, end, resolution)) for end in ends]
        assert traverse(start, *ends, resolution=resolution) == expected


class TestGridIndex:
    def test_round_trip_center(self):
        grid = GridIndex(Vec3.zero(), 0.5)
        index = grid.to_index(Vec3(1.2, -0.7, 3.3))
        center = grid.to_center(index)
        assert grid.to_index(center) == index

    def test_negative_coordinates_floor(self):
        grid = GridIndex(Vec3.zero(), 1.0)
        assert grid.to_index(Vec3(-0.5, -1.5, 0.5)) == (-1, -2, 0)

    def test_voxel_bounds_contain_center(self):
        grid = GridIndex(Vec3(1, 1, 1), 2.0)
        lo, hi = grid.voxel_bounds((0, 0, 0))
        center = grid.to_center((0, 0, 0))
        assert lo.x <= center.x <= hi.x

    def test_snap_is_idempotent(self):
        grid = GridIndex(Vec3.zero(), 0.25)
        p = Vec3(0.6, 0.6, 0.6)
        assert grid.snap(grid.snap(p)) == grid.snap(p)

    def test_zero_resolution_rejected(self):
        with pytest.raises(ValueError):
            GridIndex(Vec3.zero(), 0.0)


class TestAngles:
    def test_wrap_within_range(self):
        assert wrap_angle(0.0) == pytest.approx(0.0)
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-3 * math.pi) == pytest.approx(math.pi)

    def test_angle_difference_shortest_path(self):
        assert angle_difference(0.1, -0.1) == pytest.approx(0.2)
        assert abs(angle_difference(math.pi - 0.05, -math.pi + 0.05)) == pytest.approx(0.1, abs=1e-9)

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_wrap_angle_always_in_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi + 1e-12
