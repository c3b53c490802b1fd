"""The flat-key octree against the pointer-based octree it replaced.

``reference_octree.PointerOcTree`` is the previous implementation.  Every
sequence of updates, rays and prunes must leave both trees with the same
occupied and known voxels, the same prune counts and ``node_count()``, and
the same ``occupancy_probability()`` for every known voxel.
"""

import itertools
import math
import random

import pytest
from reference_octree import PointerOcTree

from repro.core.config import mls_v3
from repro.core.landing_system import LandingSystem
from repro.core.mission import MissionConfig, run_scenario
from repro.geometry import Vec3
from repro.mapping.octomap import LOG_ODDS_MAX, LOG_ODDS_MISS, OcTree, OcTreeConfig
from repro.perception.neural.training import load_pretrained_detector_net
from repro.sensors.depth import PointCloud
from repro.world.scenario_gen import generate_suite

#: A 16 m tree at 1 m resolution: four levels, so blocks collapse often.
SMALL = OcTreeConfig(resolution=1.0, size=16.0, origin=Vec3(-8.0, -8.0, -8.0), max_insert_range=6.0)


def index_keys(tree: OcTree, keys) -> set[tuple[int, int, int]]:
    """The flat tree's packed voxel keys as absolute ``(i, j, k)`` indices."""
    depth = tree.max_depth
    field = (1 << depth) - 1
    oi, oj, ok = tree._origin_index
    return {
        ((key >> 2 * depth) + oi, ((key >> depth) & field) + oj, (key & field) + ok)
        for key in keys
    }


def assert_same_map(flat: OcTree, reference: PointerOcTree) -> None:
    assert index_keys(flat, flat._occupied) == reference._occupied_keys
    assert index_keys(flat, flat._known) == reference._known_keys
    assert flat.node_count() == reference.node_count()
    resolution = reference.resolution
    for key in reference._known_keys:
        center = Vec3(*((index + 0.5) * resolution for index in key))
        assert flat.occupancy_probability(center) == reference.occupancy_probability(center)


def random_point(rng: random.Random) -> Vec3:
    """A point in or just outside the small tree, often exactly on a voxel face."""
    return Vec3(*(
        float(rng.randint(-9, 8)) if rng.random() < 0.3 else rng.uniform(-8.5, 8.5)
        for _ in range(3)
    ))


@pytest.mark.parametrize("seed", range(8))
def test_random_update_and_prune_sequences(seed):
    rng = random.Random(seed)
    flat, reference = OcTree(SMALL), PointerOcTree(SMALL)
    collapsed = 0
    for _ in range(300):
        roll, hit = rng.random(), rng.random() < 0.5
        if roll < 0.35:
            # Fill an aligned block, so that it (and maybe its parent) collapses.
            size = rng.choice((2, 4))
            corner = [rng.randrange(-8, 8, size) for _ in range(3)]
            cells = [
                Vec3(*(c + o + 0.5 for c, o in zip(corner, offset)))
                for offset in itertools.product(range(size), repeat=3)
            ]
            for _ in range(rng.randint(1, 4)):
                for point in cells:
                    for tree in (flat, reference):
                        tree.update_voxel(point, hit)
        elif roll < 0.85:
            point = random_point(rng)
            for tree in (flat, reference):
                tree.update_voxel(point, hit)
        else:
            origin, end = random_point(rng), random_point(rng)
            for tree in (flat, reference):
                tree.insert_ray(origin, end)
        if rng.random() < 0.3:
            pruned = flat.prune()
            assert pruned == reference.prune()
            collapsed += pruned
            assert_same_map(flat, reference)
    assert collapsed > 0
    assert_same_map(flat, reference)


def test_collapsed_block_is_updated_from_its_collapsed_value():
    flat, reference = OcTree(SMALL), PointerOcTree(SMALL)
    block = [Vec3(x + 0.5, y + 0.5, z + 0.5) for x, y, z in itertools.product((2, 3), repeat=3)]
    for tree in (flat, reference):
        for point in block:
            tree.update_voxel(point, hit=True)
        for _ in range(5):
            tree.update_voxel(block[0], hit=True)
        assert tree.prune() == 8
    assert_same_map(flat, reference)
    # The block collapsed to its max, 3.5.  One miss on a voxel that held
    # 0.85 before the collapse starts from the block's value, not its own.
    for tree in (flat, reference):
        tree.update_voxel(block[1], hit=False)
    expected = 1.0 / (1.0 + math.exp(-(LOG_ODDS_MAX + LOG_ODDS_MISS)))
    assert flat.occupancy_probability(block[1]) == expected
    assert_same_map(flat, reference)


def random_cloud(rng: random.Random) -> PointCloud:
    """A cloud from inside the small tree: empty one time in five, else
    points near and far (past ``max_insert_range``), in and out of the tree."""
    sensor = Vec3(*(rng.uniform(-7.0, 7.0) for _ in range(3)))
    points = []
    for _ in range(0 if rng.random() < 0.2 else rng.randint(1, 30)):
        roll = rng.random()
        if roll < 0.3:
            # Fill part of an aligned 2 m block, so that blocks collapse.
            corner = [rng.randrange(-8, 8, 2) for _ in range(3)]
            point = Vec3(*(c + rng.choice((0.5, 1.5)) for c in corner))
        elif roll < 0.5:
            # Up to 20 m away: truncated rays, endpoints outside the tree.
            direction = Vec3(*(rng.gauss(0.0, 1.0) for _ in range(3))).normalized()
            point = sensor + direction * rng.uniform(4.0, 20.0)
        else:
            point = random_point(rng)
        points.append(point)
    return PointCloud(points=points, sensor_position=sensor)


@pytest.mark.parametrize("seed", range(6))
def test_random_clouds_build_the_same_map(seed):
    rng = random.Random(seed)
    flat, reference = OcTree(SMALL), PointerOcTree(SMALL)
    clouds = [random_cloud(rng) for _ in range(40)]
    for cloud in clouds:
        flat.integrate_cloud(cloud)
        reference.integrate_cloud(cloud)
        assert flat.node_count() == reference.node_count()
    assert_same_map(flat, reference)
    # Every branch the mission clouds never take is taken here.
    assert sum(not cloud.points for cloud in clouds) > 0
    rays = [(cloud.sensor_position, point) for cloud in clouds for point in cloud.points[::2]]
    assert sum(start.distance_to(end) > SMALL.max_insert_range for start, end in rays) > 0
    outside = [point for cloud in clouds for point in cloud.points if flat._voxel_key(point) is None]
    assert outside
    assert any(observed for _, observed in flat._blocks.values())


@pytest.fixture(scope="module")
def mission_clouds():
    """The depth clouds one MLS-V3 mission fused into its octree, in order."""
    scenario = generate_suite("smoke", count=1, seed=7).scenarios[0]
    clouds = []
    fuse = LandingSystem.process_cloud

    def recording(system, cloud, estimate):
        clouds.append(cloud)
        fuse(system, cloud, estimate)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LandingSystem, "process_cloud", recording)
        run_scenario(
            scenario,
            mls_v3(),
            MissionConfig(max_mission_time=30.0),
            detector_network=load_pretrained_detector_net(),
        )
    return clouds


def test_mission_clouds_build_the_same_map(mission_clouds):
    flat, reference = OcTree(), PointerOcTree()
    for count, cloud in enumerate(mission_clouds, start=1):
        flat.integrate_cloud(cloud)
        reference.integrate_cloud(cloud)
        if count % 4 == 0:  # integrate_cloud has just pruned
            assert flat.node_count() == reference.node_count()
    assert sum(len(cloud) for cloud in mission_clouds) > 0
    assert flat.occupied_voxel_count() > 0
    assert any(observed for _, observed in flat._blocks.values())  # blocks collapsed
    assert_same_map(flat, reference)
