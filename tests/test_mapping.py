"""Tests for the dense voxel grid, the octree and obstacle inflation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Vec3
from repro.mapping.inflation import InflatedMap, InflationConfig
from repro.mapping.interface import OccupancyMap
from repro.mapping.octomap import OcTree, OcTreeConfig
from repro.mapping.voxel_grid import VoxelGrid, VoxelGridConfig
from repro.sensors.depth import PointCloud

coord = st.floats(min_value=-20, max_value=20, allow_nan=False)


def cloud_at(points, sensor=Vec3(0, 0, 5)):
    return PointCloud(points=points, sensor_position=sensor)


class TestVoxelGrid:
    def test_implements_protocol(self):
        assert isinstance(VoxelGrid(), OccupancyMap)

    def test_integrated_points_become_occupied(self):
        grid = VoxelGrid()
        grid.integrate_cloud(cloud_at([Vec3(2, 3, 4)]))
        assert grid.is_occupied(Vec3(2, 3, 4))
        assert grid.is_known(Vec3(2, 3, 4))
        assert grid.occupied_voxel_count() == 1

    def test_unknown_space_reports_free(self):
        grid = VoxelGrid()
        assert not grid.is_occupied(Vec3(5, 5, 5))
        assert not grid.is_known(Vec3(5, 5, 5))

    def test_points_outside_window_ignored(self):
        grid = VoxelGrid(VoxelGridConfig(window_size=10.0))
        grid.integrate_cloud(cloud_at([Vec3(50, 0, 2)]))
        assert grid.occupied_voxel_count() == 0

    def test_recenter_forgets_old_data(self):
        grid = VoxelGrid(VoxelGridConfig(window_size=16.0))
        grid.integrate_cloud(cloud_at([Vec3(2, 0, 2)]))
        assert grid.is_occupied(Vec3(2, 0, 2))
        grid.recenter(Vec3(30, 0, 5))
        assert not grid.is_occupied(Vec3(2, 0, 2))

    def test_small_moves_do_not_recenter(self):
        grid = VoxelGrid(VoxelGridConfig(window_size=24.0))
        grid.integrate_cloud(cloud_at([Vec3(2, 0, 2)]))
        grid.recenter(Vec3(1.0, 0, 5))
        assert grid.is_occupied(Vec3(2, 0, 2))

    def test_memory_is_dense(self):
        small = VoxelGrid(VoxelGridConfig(window_size=10.0, height=10.0, resolution=1.0))
        large = VoxelGrid(VoxelGridConfig(window_size=40.0, height=10.0, resolution=1.0))
        assert large.memory_bytes() > small.memory_bytes() * 10

    def test_integrate_cloud_matches_the_per_point_loop(self):
        grid = VoxelGrid(VoxelGridConfig(resolution=0.5, window_size=8.0, height=4.0))
        grid.recenter(Vec3(3.1, -2.7, 5.0))
        x0, y0 = grid.center.x - 4.0, grid.center.y - 4.0
        steps = np.arange(-2, 19) * 0.5
        points = face_points((x0 + steps, y0 + steps, np.arange(-2, 10) * 0.5), 400, seed=2)
        # Less than one cell below the window corner: truncation makes it cell 0.
        points += [Vec3(x0 - 0.3, y0 + 1.2, 0.7), Vec3(x0 + 2.2, y0 - 0.1, -0.45)]
        expected = np.zeros_like(grid._occupied)
        for point in points:
            index = grid._to_index(point)
            if index is not None:
                expected[index] = True
        grid.integrate_cloud(cloud_at(points))
        assert expected[0, 2, 1] and expected[4, 0, 0]
        assert expected.any() and not expected.all()
        assert np.array_equal(grid._occupied, expected)
        assert np.array_equal(grid._known, expected)


class TestOcTree:
    def test_implements_protocol(self):
        assert isinstance(OcTree(), OccupancyMap)

    def test_hit_marks_occupied_after_updates(self):
        tree = OcTree()
        for _ in range(3):
            tree.update_voxel(Vec3(2, 2, 2), hit=True)
        assert tree.is_occupied(Vec3(2, 2, 2))
        assert tree.occupancy_probability(Vec3(2, 2, 2)) > 0.8

    def test_misses_carve_free_space(self):
        tree = OcTree()
        tree.update_voxel(Vec3(2, 2, 2), hit=True)
        for _ in range(5):
            tree.update_voxel(Vec3(2, 2, 2), hit=False)
        assert not tree.is_occupied(Vec3(2, 2, 2))
        assert tree.is_known(Vec3(2, 2, 2))

    def test_unknown_space_probability_half(self):
        tree = OcTree()
        assert tree.occupancy_probability(Vec3(10, 10, 10)) == pytest.approx(0.5)

    def test_insert_ray_occupies_endpoint_and_frees_path(self):
        tree = OcTree()
        origin = Vec3(0, 0, 5)
        end = Vec3(6, 0, 5)
        for _ in range(3):
            tree.insert_ray(origin, end)
        assert tree.is_occupied(end)
        assert not tree.is_occupied(Vec3(3, 0, 5))
        assert tree.is_known(Vec3(3, 0, 5))

    def test_integrate_cloud_uses_sensor_origin(self):
        tree = OcTree()
        cloud = PointCloud(points=[Vec3(4, 0, 5)] * 4, sensor_position=Vec3(0, 0, 5))
        tree.integrate_cloud(cloud)
        assert tree.is_occupied(Vec3(4, 0, 5))

    def test_out_of_bounds_points_ignored(self):
        tree = OcTree(OcTreeConfig(size=32.0, origin=Vec3(-16, -16, -16)))
        tree.update_voxel(Vec3(100, 0, 0), hit=True)
        assert tree.occupied_voxel_count() == 0

    def test_log_odds_clamped(self):
        tree = OcTree()
        for _ in range(100):
            tree.update_voxel(Vec3(1, 1, 1), hit=True)
        # A long run of misses must still be able to free the voxel eventually.
        for _ in range(20):
            tree.update_voxel(Vec3(1, 1, 1), hit=False)
        assert not tree.is_occupied(Vec3(1, 1, 1))

    def test_pruning_reduces_node_count(self):
        tree = OcTree(OcTreeConfig(size=16.0, origin=Vec3(-8, -8, -8), resolution=1.0))
        # Fill a 4x4x4 block completely so entire subtrees agree and prune.
        for x in range(4):
            for y in range(4):
                for z in range(4):
                    for _ in range(2):
                        tree.update_voxel(Vec3(x + 0.5, y + 0.5, z + 0.5), hit=True)
        before = tree.node_count()
        tree.prune()
        assert tree.node_count() <= before

    def test_rejects_geometry_without_flat_keys(self):
        with pytest.raises(ValueError, match="power of two"):
            OcTree(OcTreeConfig(size=24.0, resolution=1.0, origin=Vec3(-12, -12, -12)))
        with pytest.raises(ValueError, match="voxel grid"):
            OcTree(OcTreeConfig(size=16.0, resolution=1.0, origin=Vec3(-8.5, -8, -8)))

    def test_memory_grows_with_observations(self):
        tree = OcTree()
        empty_memory = tree.memory_bytes()
        for i in range(20):
            tree.update_voxel(Vec3(i, 0, 2), hit=True)
        assert tree.memory_bytes() > empty_memory

    @given(coord, coord, st.floats(min_value=0.5, max_value=15))
    @settings(max_examples=25, deadline=None)
    def test_occupancy_is_consistent_with_updates(self, x, y, z):
        tree = OcTree()
        point = Vec3(x, y, z)
        for _ in range(3):
            tree.update_voxel(point, hit=True)
        assert tree.is_occupied(point)
        assert tree.is_known(point)


class TestInflation:
    def make_map_with_obstacle(self):
        tree = OcTree()
        for _ in range(3):
            tree.update_voxel(Vec3(5, 0, 5), hit=True)
        return InflatedMap(tree, InflationConfig(vehicle_radius=0.4, safety_margin=0.6))

    def test_point_inside_inflation_radius_collides(self):
        inflated = self.make_map_with_obstacle()
        assert inflated.is_colliding(Vec3(5, 0, 5))
        assert inflated.is_colliding(Vec3(5.6, 0, 5))

    def test_point_outside_inflation_radius_is_free(self):
        inflated = self.make_map_with_obstacle()
        assert not inflated.is_colliding(Vec3(9, 0, 5))

    def test_segment_through_obstacle_collides(self):
        inflated = self.make_map_with_obstacle()
        assert inflated.segment_colliding(Vec3(0, 0, 5), Vec3(10, 0, 5))
        assert not inflated.segment_colliding(Vec3(0, 5, 5), Vec3(10, 5, 5))

    def test_path_collision_checks_each_leg(self):
        inflated = self.make_map_with_obstacle()
        safe_path = [Vec3(0, 5, 5), Vec3(10, 5, 5), Vec3(10, 10, 5)]
        bad_path = [Vec3(0, 5, 5), Vec3(5, 0, 5)]
        assert not inflated.path_colliding(safe_path)
        assert inflated.path_colliding(bad_path)

    def test_inflation_radius_property(self):
        inflated = self.make_map_with_obstacle()
        assert inflated.inflation_radius == pytest.approx(1.0)


def scalar_colliding(inflated, point):
    """The per-offset loop the batched ``is_colliding`` replaced."""
    return any(
        inflated.base_map.is_occupied(point + Vec3(*offset))
        for offset in inflated._offsets.tolist()
    )


def scalar_segment_colliding(inflated, start, end, step):
    """The per-sample loop the batched ``segment_colliding`` replaced."""
    length = start.distance_to(end)
    if length < 1e-9:
        return scalar_colliding(inflated, start)
    samples = max(2, int(np.ceil(length / step)) + 1)
    return any(
        scalar_colliding(inflated, start.lerp(end, i / (samples - 1))) for i in range(samples)
    )


def face_points(faces_per_axis, count, seed):
    """Points whose coordinates lie on voxel faces or one ulp either side."""
    rng = np.random.default_rng(seed)
    columns = [
        rng.choice(np.concatenate([faces, np.nextafter(faces, np.inf), np.nextafter(faces, -np.inf)]), count)
        for faces in faces_per_axis
    ]
    return [Vec3(float(x), float(y), float(z)) for x, y, z in zip(*columns)]


class TestBatchedInflatedQuery:
    """One batched map query per collision check, against the scalar loops.

    Probes are ``point + offset`` in floats: near a voxel face that can land
    in a different voxel than the point's own voxel shifted by the offset.
    """

    def check(self, inflated, faces_per_axis):
        points = face_points(faces_per_axis, 300, seed=1)
        expected = [scalar_colliding(inflated, point) for point in points]
        assert [inflated.is_colliding(point) for point in points] == expected
        assert any(expected) and not all(expected)
        segments = list(zip(points[::2], points[1::2]))
        segments.append((points[0], points[0]))
        for start, end in segments:
            assert inflated.segment_colliding(start, end, step=0.5) == scalar_segment_colliding(
                inflated, start, end, 0.5
            )

    def test_octree(self):
        tree = OcTree()
        for point in (Vec3(1.25, 0.25, 2.25), Vec3(-0.75, 0.75, 1.75), Vec3(0.25, -1.25, 0.25)):
            for _ in range(3):
                tree.update_voxel(point, hit=True)
        faces = np.arange(-3.0, 3.5, 0.5)
        self.check(InflatedMap(tree), (faces, faces, faces))

    def test_voxel_grid(self):
        grid = VoxelGrid(VoxelGridConfig(resolution=0.5, window_size=8.0, height=4.0))
        grid.recenter(Vec3(3.1, -2.7, 5.0))
        grid.integrate_cloud(cloud_at([Vec3(3.3, -2.4, 0.2), Vec3(2.2, -1.1, 1.4), Vec3(4.6, -3.3, 0.9)]))
        steps = np.arange(-2, 19) * 0.5
        faces = (
            grid.center.x - 4.0 + steps,
            grid.center.y - 4.0 + steps,
            np.arange(-2, 10) * 0.5,
        )
        self.check(InflatedMap(grid), faces)
