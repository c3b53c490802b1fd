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

A depth cloud is fused in one batch: all of its rays are traversed at once,
and its updates are folded per voxel in the order a ray-by-ray insertion
would apply them, so the map is the same as from that insertion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import Vec3
from repro.geometry.ray import voxel_traversal
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
    def _voxel_key(self, point: Vec3) -> int | None:
        """Key of the voxel containing ``point``; ``None`` outside the tree."""
        resolution, cells, depth = self.resolution, self._cells, self.max_depth
        oi, oj, ok = self._origin_index
        i, j, k = point.x // resolution - oi, point.y // resolution - oj, point.z // resolution - ok
        if 0 <= i < cells and 0 <= j < cells and 0 <= k < cells:
            return (int(i) << 2 * depth) | (int(j) << depth) | int(k)
        return None

    def _keys(self, points: np.ndarray) -> np.ndarray:
        """Keys of the voxels containing the rows of ``points``; ``-1`` outside the tree.

        The batched :meth:`_voxel_key`: the same float floor division per
        coordinate, the same bounds.
        """
        return self._index_keys(np.floor_divide(points, self.resolution) - self._origin_index)

    def _index_keys(self, index: np.ndarray) -> np.ndarray:
        """Keys of the voxels at origin-relative indices ``index[..., 0:3]``; ``-1`` outside the tree."""
        inside = ((index >= 0) & (index < self._cells)).all(axis=-1)
        return np.where(inside, index @ self._key_weights, -1.0).astype(np.int64)

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
            self._update(np.array([key]), np.array([LOG_ODDS_HIT if hit else LOG_ODDS_MISS]))

    def insert_ray(self, origin: Vec3, end: Vec3) -> None:
        """Carve free space along a ray and mark the endpoint occupied."""
        self._fuse(origin, np.array([end.to_tuple()]), np.array([True]))

    def integrate_cloud(self, cloud: PointCloud) -> None:
        """Insert the points of a depth cloud as rays from the sensor.

        Endpoint hits are inserted for every return; free-space carving along
        the ray is done for every other return (a standard OctoMap speed-up
        that preserves the free/occupied structure at a fraction of the cost),
        and pruning runs every few clouds.
        """
        self._integrations += 1
        points = cloud.to_array()
        self._fuse(cloud.sensor_position, points, np.arange(len(points)) % 2 == 0)
        if self._integrations % 4 == 0:
            self.prune()

    def _fuse(self, origin: Vec3, points: np.ndarray, rays: np.ndarray) -> None:
        """Fuse the rows of ``points`` as seen from ``origin``, in row order.

        A row flagged in ``rays`` carves free space along the ray from
        ``origin`` and then marks its own voxel occupied; a ray longer than
        ``max_insert_range`` is cut to that length and carves only.  Any
        other row only marks its voxel occupied.
        """
        max_range = self.config.max_insert_range
        sensor = np.array(origin.to_tuple())
        ends = points[rays]
        direction = ends - sensor
        length = np.sqrt(
            direction[:, 0] * direction[:, 0] + direction[:, 1] * direction[:, 1]
            + direction[:, 2] * direction[:, 2]
        )
        truncated = length > max_range
        ends[truncated] = sensor + direction[truncated] * (max_range / length[truncated])[:, None]
        voxels, steps = voxel_traversal(sensor, ends, self.resolution)
        # One row of slots per point, in order: the voxels its ray carves
        # (all but the ray's last), then the voxel it hits.
        width = voxels.shape[1]
        slots = np.full((len(points), width + 1), -1, dtype=np.int64)
        carved = self._index_keys(voxels - self._origin_index)
        carved[np.arange(width) >= steps[:, None]] = -1
        slots[rays, :width] = carved
        hits = self._keys(points)
        hits[np.flatnonzero(rays)[truncated]] = -1
        slots[:, width] = hits
        deltas = np.full(slots.shape, LOG_ODDS_MISS)
        deltas[:, width] = LOG_ODDS_HIT
        valid = slots >= 0
        self._update(slots[valid], deltas[valid])

    def _update(self, keys: np.ndarray, deltas: np.ndarray) -> None:
        """Add ``deltas`` to the voxels of ``keys`` in order, within the log-odds bounds.

        The updates are grouped by voxel and each group is folded in its
        order, clamping after every addition, so every voxel ends where the
        same additions one by one would leave it.  A voxel starts from its
        stored value, or, inside a collapsed block, from the block's.
        """
        if not len(keys):
            return
        order = np.argsort(keys, kind="stable")
        keys, deltas = keys[order], deltas[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        sizes = np.diff(np.append(starts, len(keys)))
        # Round j of the fold adds the (j + 1)-th update of every voxel that
        # has one.  In descending group size those voxels are a prefix, and
        # the rounds laid end to end hold each update once.
        by_size = np.argsort(-sizes, kind="stable")
        place = np.empty_like(by_size)
        place[by_size] = np.arange(len(sizes))
        widths = np.cumsum(np.bincount(sizes)[::-1])[-2::-1]
        offsets = np.cumsum(widths) - widths
        laid = np.empty(len(keys))
        laid[offsets[np.arange(len(keys)) - np.repeat(starts, sizes)] + np.repeat(place, sizes)] = deltas
        keys = keys[starts[by_size]].tolist()
        values = np.array(self._values(keys))
        for offset, width in zip(offsets.tolist(), widths.tolist()):
            head = values[:width]
            head += laid[offset : offset + width]
            np.maximum(head, LOG_ODDS_MIN, out=head)
            np.minimum(head, LOG_ODDS_MAX, out=head)
        self._voxels.update(zip(keys, values.tolist()))
        occupied = values > OCCUPANCY_THRESHOLD
        self._occupied.update(itertools.compress(keys, occupied.tolist()))
        self._occupied.difference_update(itertools.compress(keys, (~occupied).tolist()))
        self._known.update(keys)
        self._dirty.update(keys)

    def _values(self, keys: list[int]) -> list[float]:
        """The log-odds of each voxel of ``keys``, splitting the collapsed blocks they lie in."""
        voxels = self._voxels
        values = list(map(voxels.get, keys))
        for index in [index for index, value in enumerate(values) if value is None]:
            # An earlier split may already have made this voxel a leaf.
            value = voxels.get(keys[index])
            values[index] = self._expand(keys[index]) if value is None else value
        return values

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
        """Whether any row of the ``(n, 3)`` array lies in an occupied voxel."""
        return not self._occupied.isdisjoint(self._keys(points).tolist())

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


def _collapse(leaves: list[Leaf]) -> Leaf | None:
    """The leaf eight agreeing children collapse into; ``None`` if they disagree."""
    value, observed = leaves[0]
    occupied = value > OCCUPANCY_THRESHOLD
    if any(flag != observed or (v > OCCUPANCY_THRESHOLD) != occupied for v, flag in leaves):
        return None
    values = [v for v, _ in leaves]
    return (max(values) if occupied else min(values)), observed
