"""Probabilistic octree occupancy map (the OctoMap substitute used by MLS-V3).

The tree hierarchically partitions a cubic region of space; leaves carry a
log-odds occupancy value updated by ray insertion (occupied hit at the end of
the ray, free space carved along it).  Homogeneous children are pruned into
their parent, which is what gives OctoMap its memory advantage over a dense
grid.  Unlike the dense window, the octree is **global**: every observation
ever made stays in the map, so the RRT* planner can account for "the complete
environmental structure" (§III.C).

The tree is stored flat.  Its leaves are the entries of two key maps, one
for max-depth voxels and one for the collapsed blocks above them, and its
inner nodes are implicit.  An update finds its voxel by key instead of
descending from the root, a prune visits only the ancestors of the voxels
updated since the previous one, and because every inner node has exactly
eight children, ``L`` leaves always make ``L + (L - 1) // 7`` nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import Vec3
from repro.geometry.ray import bresenham_voxels
from repro.sensors.depth import PointCloud

#: Log-odds increments, straight from the OctoMap defaults.
LOG_ODDS_HIT = 0.85
LOG_ODDS_MISS = -0.4
LOG_ODDS_MIN = -2.0
LOG_ODDS_MAX = 3.5
OCCUPANCY_THRESHOLD = 0.0  # log-odds > 0  <=>  P(occupied) > 0.5

#: A collapsed block: its log-odds and whether it was ever observed.
Leaf = tuple[float, bool]


@dataclass(frozen=True)
class OcTreeConfig:
    """Extent and resolution of the octree.

    ``size / resolution`` must be a power of two and ``origin`` must lie on
    the resolution grid, so that the voxels are exactly the tree's
    max-depth leaves.
    """

    resolution: float = 0.5
    size: float = 256.0          # edge length of the root cube, metres
    origin: Vec3 = Vec3(-128.0, -128.0, -64.0)
    max_insert_range: float = 18.0


class OcTree:
    """OctoMap-style probabilistic occupancy octree.

    A voxel is keyed by its integer index along each axis, counted from the
    origin and packed into ``max_depth`` bits per axis:
    ``(i << 2 * max_depth) | (j << max_depth) | k``.  A node ``level``
    levels above the voxels is keyed by its level and the same packing of
    the indices shifted right by ``level``.  The leaves are ``_voxels``
    (voxel key -> log-odds) and ``_blocks`` ((level, key) -> log-odds and
    observed flag); a voxel leaf is observed when its key is in ``_known``.
    ``_known`` and ``_occupied`` keep every voxel, also those inside a
    collapsed block, so point queries never look at the tree.
    """

    def __init__(self, config: OcTreeConfig | None = None) -> None:
        self.config = config or OcTreeConfig()
        cfg = self.config
        self.resolution = cfg.resolution
        cells = cfg.size / cfg.resolution
        if not (cells.is_integer() and cells >= 1 and int(cells) & (int(cells) - 1) == 0):
            raise ValueError(f"octree size / resolution must be a power of two, got {cells:g}")
        origin = [coordinate / cfg.resolution for coordinate in cfg.origin]
        if not all(index.is_integer() for index in origin):
            raise ValueError(
                f"octree origin {cfg.origin.to_tuple()} is not on the "
                f"{cfg.resolution:g} m voxel grid"
            )
        self._cells = int(cells)
        self.max_depth = depth = self._cells.bit_length() - 1
        self._origin_index = tuple(int(index) for index in origin)
        self._key_weights = np.array([1 << 2 * depth, 1 << depth, 1], dtype=float)
        # Halving all three packed indices is one right shift, once the low
        # bit each index pushes into the top of the field below is cleared.
        self._parent_mask = ~((1 << 2 * depth >> 1) | (1 << depth >> 1))
        # Child key offsets in octant order: bit 0 is +x, bit 1 +y, bit 2 +z.
        self._child_offsets = tuple(
            ((c & 1) << 2 * depth) | ((c >> 1 & 1) << depth) | (c >> 2 & 1) for c in range(8)
        )
        # The tree starts as one unobserved leaf, the root.
        self._voxels: dict[int, float] = {}
        self._blocks: dict[tuple[int, int], Leaf] = {}
        if depth:
            self._blocks[(depth, 0)] = (0.0, False)
        else:
            self._voxels[0] = 0.0
        self._known: set[int] = set()
        self._occupied: set[int] = set()
        #: Voxels updated since the last prune: only their ancestors can collapse.
        self._dirty: set[int] = set()
        self._integrations = 0

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    def _pack(self, i, j, k) -> int | None:
        """Key of the voxel at origin-relative index ``(i, j, k)``; ``None`` outside the tree."""
        cells = self._cells
        if 0 <= i < cells and 0 <= j < cells and 0 <= k < cells:
            depth = self.max_depth
            return (int(i) << 2 * depth) | (int(j) << depth) | int(k)
        return None

    def _voxel_key(self, point: Vec3) -> int | None:
        """Key of the voxel containing ``point``; ``None`` outside the tree."""
        resolution = self.resolution
        oi, oj, ok = self._origin_index
        return self._pack(
            point.x // resolution - oi, point.y // resolution - oj, point.z // resolution - ok
        )

    def _path(self, key: int) -> list[int]:
        """``key`` followed by its ancestors' keys, one per level up to the root."""
        path = [key]
        for _ in range(self.max_depth):
            path.append((path[-1] >> 1) & self._parent_mask)
        return path

    def _block_level(self, path: list[int]) -> int:
        """Level of the collapsed block holding the voxel at the foot of ``path``."""
        return next(level for level in range(1, len(path)) if (level, path[level]) in self._blocks)

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def update_voxel(self, point: Vec3, hit: bool) -> None:
        """Apply a single log-odds update to the voxel containing ``point``."""
        key = self._voxel_key(point)
        if key is not None:
            self._update([key], LOG_ODDS_HIT if hit else LOG_ODDS_MISS)

    def insert_ray(self, origin: Vec3, end: Vec3) -> None:
        """Carve free space along a ray and mark the endpoint occupied."""
        direction = end - origin
        length = direction.norm()
        if length > self.config.max_insert_range:
            end = origin + direction * (self.config.max_insert_range / length)
            truncated = True
        else:
            truncated = False
        oi, oj, ok = self._origin_index
        voxels = list(bresenham_voxels(origin, end, self.resolution))
        free = [self._pack(i - oi, j - oj, k - ok) for i, j, k in voxels[:-1]]
        self._update([key for key in free if key is not None], LOG_ODDS_MISS)
        if not truncated:
            self.update_voxel(end, hit=True)

    def integrate_cloud(self, cloud: PointCloud) -> None:
        """Insert the points of a depth cloud as rays from the sensor.

        Endpoint hits are inserted for every return; free-space carving along
        the ray is done for every other return (a standard OctoMap speed-up
        that preserves the free/occupied structure at a fraction of the cost),
        and pruning runs every few clouds.
        """
        self._integrations += 1
        for index, point in enumerate(cloud.points):
            if index % 2 == 0:
                self.insert_ray(cloud.sensor_position, point)
            else:
                self.update_voxel(point, hit=True)
        if self._integrations % 4 == 0:
            self.prune()

    def _update(self, keys: list[int], delta: float) -> None:
        """Add ``delta`` to each voxel of ``keys`` in turn, within the log-odds bounds."""
        voxels, occupied = self._voxels, self._occupied
        for key in keys:
            value = voxels.get(key)
            if value is None:
                value = self._expand(key)
            value = min(LOG_ODDS_MAX, max(LOG_ODDS_MIN, value + delta))
            voxels[key] = value
            if value > OCCUPANCY_THRESHOLD:
                occupied.add(key)
            else:
                occupied.discard(key)
        self._known.update(keys)
        self._dirty.update(keys)

    def _expand(self, key: int) -> float:
        """Split the collapsed block holding voxel ``key`` down to max depth.

        As in OctoMap, a split node hands its value and observed flag to all
        eight children, and only the child towards the voxel is split again.
        Returns the value the voxel inherits.
        """
        blocks = self._blocks
        path = self._path(key)
        top = self._block_level(path)
        leaf = blocks.pop((top, path[top]))
        for level in range(top, 1, -1):
            first = path[level] << 1
            for offset in self._child_offsets:
                if first + offset != path[level - 1]:
                    blocks[(level - 1, first + offset)] = leaf
        first = path[1] << 1
        for offset in self._child_offsets:
            self._voxels[first + offset] = leaf[0]
        return leaf[0]

    # ------------------------------------------------------------------ #
    # queries (OccupancyMap interface)
    # ------------------------------------------------------------------ #
    def is_occupied(self, point: Vec3) -> bool:
        key = self._voxel_key(point)
        return key is not None and key in self._occupied

    def any_occupied(self, points: np.ndarray) -> bool:
        """Whether any row of the ``(n, 3)`` array lies in an occupied voxel.

        The batched :meth:`is_occupied`: the same float floor division per
        coordinate, the same bounds.
        """
        index = np.floor_divide(points, self.resolution) - self._origin_index
        inside = ((index >= 0.0) & (index < self._cells)).all(axis=1)
        keys = (index[inside] @ self._key_weights).astype(np.int64)
        return not self._occupied.isdisjoint(keys.tolist())

    def is_known(self, point: Vec3) -> bool:
        key = self._voxel_key(point)
        return key is not None and key in self._known

    def occupancy_probability(self, point: Vec3) -> float:
        """P(occupied) of the voxel containing ``point`` (0.5 when unknown)."""
        key = self._voxel_key(point)
        if key is None or key not in self._known:
            return 0.5
        log_odds = self._voxels.get(key)
        if log_odds is None:
            path = self._path(key)
            level = self._block_level(path)
            log_odds = self._blocks[(level, path[level])][0]
        return 1.0 / (1.0 + math.exp(-log_odds))

    def occupied_voxel_count(self) -> int:
        return len(self._occupied)

    def node_count(self) -> int:
        leaves = len(self._voxels) + len(self._blocks)
        return leaves + (leaves - 1) // 7

    def memory_bytes(self) -> int:
        """Approximate footprint: ~64 bytes per allocated node."""
        return self.node_count() * 64

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def prune(self) -> int:
        """Collapse every inner node whose eight children are agreeing leaves.

        Children agree when all are leaves with the same observed flag and
        the same occupancy state; their parent keeps their max log-odds if
        occupied, their min if free.  Only ancestors of the voxels updated
        since the last prune can have become collapsible, each only once its
        child towards such a voxel has collapsed, so the pass climbs from the
        parents of those voxels through the parents of what just collapsed.
        Returns the number of nodes removed, eight per collapse.
        """
        voxels, blocks, known = self._voxels, self._blocks, self._known
        nodes = {(key >> 1) & self._parent_mask for key in self._dirty}
        self._dirty = set()
        pruned = 0
        for level in range(1, self.max_depth + 1):
            collapsed = []
            for node in nodes:
                first = node << 1
                children = [first + offset for offset in self._child_offsets]
                if level == 1:
                    leaves = [(voxels[child], child in known) for child in children]
                else:
                    leaves = [blocks.get((level - 1, child)) for child in children]
                    if None in leaves:
                        continue  # a child is an inner node
                leaf = _collapse(leaves)
                if leaf is None:
                    continue
                for child in children:
                    if level == 1:
                        del voxels[child]
                    else:
                        del blocks[(level - 1, child)]
                blocks[(level, node)] = leaf
                collapsed.append(node)
            pruned += 8 * len(collapsed)
            nodes = {(node >> 1) & self._parent_mask for node in collapsed}
        return pruned

    @property
    def integration_count(self) -> int:
        return self._integrations


def _collapse(leaves: list[Leaf]) -> Leaf | None:
    """The leaf eight agreeing children collapse into; ``None`` if they disagree."""
    value, observed = leaves[0]
    occupied = value > OCCUPANCY_THRESHOLD
    if any(flag != observed or (v > OCCUPANCY_THRESHOLD) != occupied for v, flag in leaves):
        return None
    values = [v for v, _ in leaves]
    return (max(values) if occupied else min(values)), observed
