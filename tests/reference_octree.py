"""Pointer-based probabilistic octree: the reference for the flat-key ``OcTree``.

This is the octree ``repro.mapping.octomap`` used before its leaves moved
into flat key maps, kept as it was (bar the class names) so the tests can
replay any update/prune sequence through both and demand identical maps:
the same occupied and known voxel keys, the same ``node_count()`` and the
same ``occupancy_probability()`` for every known voxel.

Every node is an object; an update descends from the root, expanding leaves
on the way, and ``prune`` walks the whole tree bottom-up, collapsing any
eight agreeing leaf children into their parent (which keeps the max of
occupied children, or the min of free ones).  Rays are walked one at a time
by ``bresenham_voxels``, the scalar traversal the octree used before it
fused each cloud in one batch, and each voxel is updated as it is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.geometry import Vec3
from repro.mapping.octomap import (
    LOG_ODDS_HIT,
    LOG_ODDS_MAX,
    LOG_ODDS_MIN,
    LOG_ODDS_MISS,
    OCCUPANCY_THRESHOLD,
    OcTreeConfig,
)
from repro.sensors.depth import PointCloud


def bresenham_voxels(
    start: Vec3, end: Vec3, resolution: float
) -> Iterator[tuple[int, int, int]]:
    """Yield the integer voxel coordinates traversed from ``start`` to ``end``.

    The scalar 3D DDA (Amanatides–Woo) walk at the given voxel
    ``resolution`` that ``repro.geometry.ray.voxel_traversal`` batches: the
    start voxel is yielded first and the end voxel last.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")

    def to_key(p: Vec3) -> tuple[int, int, int]:
        return (
            int(math.floor(p.x / resolution)),
            int(math.floor(p.y / resolution)),
            int(math.floor(p.z / resolution)),
        )

    current = list(to_key(start))
    target = to_key(end)
    yield tuple(current)
    if tuple(current) == target:
        return

    delta = end - start
    length = delta.norm()
    if length < 1e-12:
        return
    direction = delta / length

    step = [0, 0, 0]
    t_max = [math.inf, math.inf, math.inf]
    t_delta = [math.inf, math.inf, math.inf]
    origin = (start.x, start.y, start.z)
    dir_components = (direction.x, direction.y, direction.z)

    for i in range(3):
        d = dir_components[i]
        if d > 1e-12:
            step[i] = 1
            boundary = (current[i] + 1) * resolution
            t_max[i] = (boundary - origin[i]) / d
            t_delta[i] = resolution / d
        elif d < -1e-12:
            step[i] = -1
            boundary = current[i] * resolution
            t_max[i] = (boundary - origin[i]) / d
            t_delta[i] = resolution / -d

    # Guard against degenerate floating point loops: the traversal can take at
    # most the Manhattan distance in voxels plus a small slack.
    max_steps = (
        abs(target[0] - current[0])
        + abs(target[1] - current[1])
        + abs(target[2] - current[2])
        + 3
    )
    for _ in range(max_steps):
        t_next = min(t_max)
        if t_next > length + 1e-9:
            # The next voxel boundary lies beyond the segment end: endpoints
            # sitting exactly on voxel corners would otherwise overshoot.
            return
        axis = t_max.index(t_next)
        current[axis] += step[axis]
        t_max[axis] += t_delta[axis]
        yield tuple(current)
        if tuple(current) == target:
            return


@dataclass
class PointerNode:
    """One node of the octree; internal nodes have children, leaves a value."""

    log_odds: float = 0.0
    observed: bool = False
    children: list["PointerNode | None"] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def expand(self) -> None:
        """Split a leaf into eight children inheriting its value."""
        if self.children is not None:
            return
        self.children = [
            PointerNode(log_odds=self.log_odds, observed=self.observed) for _ in range(8)
        ]

    def try_prune(self) -> bool:
        """Collapse children that all agree (all leaves, same occupancy state)."""
        if self.children is None:
            return False
        first = self.children[0]
        if first is None or not first.is_leaf:
            return False
        state = first.log_odds > OCCUPANCY_THRESHOLD
        observed = first.observed
        for child in self.children:
            if child is None or not child.is_leaf or child.observed != observed:
                return False
            if (child.log_odds > OCCUPANCY_THRESHOLD) != state:
                return False
        # Collapse: parent takes the extreme value of the agreeing children.
        self.log_odds = max(c.log_odds for c in self.children) if state else min(
            c.log_odds for c in self.children
        )
        self.observed = observed
        self.children = None
        return True


class PointerOcTree:
    """OctoMap-style probabilistic occupancy octree built from node objects."""

    def __init__(self, config: OcTreeConfig | None = None) -> None:
        self.config = config or OcTreeConfig()
        self.resolution = self.config.resolution
        # Depth such that a leaf at max depth has edge <= resolution.
        depth = 0
        size = self.config.size
        while size > self.config.resolution * (1 + 1e-9):
            size /= 2.0
            depth += 1
        self.max_depth = depth
        self.root = PointerNode()
        self._integrations = 0
        self._occupied_keys: set[tuple[int, int, int]] = set()
        self._known_keys: set[tuple[int, int, int]] = set()

    def _contains(self, point: Vec3) -> bool:
        o = self.config.origin
        s = self.config.size
        return (
            o.x <= point.x < o.x + s
            and o.y <= point.y < o.y + s
            and o.z <= point.z < o.z + s
        )

    def _leaf_for(self, point: Vec3, create: bool) -> PointerNode | None:
        """Descend to the max-depth leaf containing ``point``.

        With ``create`` the path is expanded as needed; otherwise descent
        stops at the deepest existing node (which may be a pruned ancestor).
        """
        if not self._contains(point):
            return None
        node = self.root
        center = self.config.origin + Vec3(1, 1, 1) * (self.config.size / 2.0)
        half = self.config.size / 2.0
        for _ in range(self.max_depth):
            if node.is_leaf:
                if not create:
                    return node
                node.expand()
            octant = (
                (1 if point.x >= center.x else 0)
                | (2 if point.y >= center.y else 0)
                | (4 if point.z >= center.z else 0)
            )
            assert node.children is not None
            child = node.children[octant]
            if child is None:
                child = PointerNode()
                node.children[octant] = child
            node = child
            quarter = half / 2.0
            center = Vec3(
                center.x + (quarter if point.x >= center.x else -quarter),
                center.y + (quarter if point.y >= center.y else -quarter),
                center.z + (quarter if point.z >= center.z else -quarter),
            )
            half = quarter
        return node

    def _voxel_key(self, point: Vec3) -> tuple[int, int, int]:
        resolution = self.config.resolution
        return (
            int(point.x // resolution),
            int(point.y // resolution),
            int(point.z // resolution),
        )

    def update_voxel(self, point: Vec3, hit: bool) -> None:
        leaf = self._leaf_for(point, create=True)
        if leaf is None:
            return
        delta = LOG_ODDS_HIT if hit else LOG_ODDS_MISS
        leaf.log_odds = min(LOG_ODDS_MAX, max(LOG_ODDS_MIN, leaf.log_odds + delta))
        leaf.observed = True
        key = self._voxel_key(point)
        self._known_keys.add(key)
        if leaf.log_odds > OCCUPANCY_THRESHOLD:
            self._occupied_keys.add(key)
        else:
            self._occupied_keys.discard(key)

    def insert_ray(self, origin: Vec3, end: Vec3) -> None:
        direction = end - origin
        length = direction.norm()
        if length > self.config.max_insert_range:
            end = origin + direction * (self.config.max_insert_range / length)
            truncated = True
        else:
            truncated = False
        resolution = self.config.resolution
        voxels = list(bresenham_voxels(origin, end, resolution))
        for key in voxels[:-1]:
            center = Vec3(
                (key[0] + 0.5) * resolution,
                (key[1] + 0.5) * resolution,
                (key[2] + 0.5) * resolution,
            )
            self.update_voxel(center, hit=False)
        if not truncated:
            self.update_voxel(end, hit=True)

    def integrate_cloud(self, cloud: PointCloud) -> None:
        self._integrations += 1
        for index, point in enumerate(cloud.points):
            if index % 2 == 0:
                self.insert_ray(cloud.sensor_position, point)
            else:
                self.update_voxel(point, hit=True)
        if self._integrations % 4 == 0:
            self.prune()

    def is_occupied(self, point: Vec3) -> bool:
        if not self._contains(point):
            return False
        return self._voxel_key(point) in self._occupied_keys

    def is_known(self, point: Vec3) -> bool:
        if not self._contains(point):
            return False
        return self._voxel_key(point) in self._known_keys

    def occupancy_probability(self, point: Vec3) -> float:
        leaf = self._leaf_for(point, create=False)
        if leaf is None or not leaf.observed:
            return 0.5
        return 1.0 / (1.0 + math.exp(-leaf.log_odds))

    def occupied_voxel_count(self) -> int:
        return len(self._occupied_keys)

    def node_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if node.children is not None:
                stack.extend(child for child in node.children if child is not None)
        return count

    def prune(self) -> int:
        """Bottom-up pruning of homogeneous subtrees; returns nodes pruned."""
        pruned = 0

        def recurse(node: PointerNode) -> None:
            nonlocal pruned
            if node.children is None:
                return
            for child in node.children:
                if child is not None:
                    recurse(child)
            if node.try_prune():
                pruned += 8

        recurse(self.root)
        return pruned
