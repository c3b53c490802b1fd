"""Tests for the batched voxel traversal."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from reference_octree import bresenham_voxels

from repro.geometry import Vec3
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

        def voxel_of(p):
            return tuple(math.floor(v / 0.5) for v in p.to_tuple())

        assert voxels[0] == voxel_of(start)
        # Endpoints exactly on a voxel boundary may legitimately resolve to a
        # face-adjacent voxel; require the final voxel to be within one cell.
        final, expected = voxels[-1], voxel_of(end)
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
