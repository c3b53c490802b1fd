"""Dense local voxel grid (the EGO-Planner-style map used by MLS-V2).

A fixed-size boolean grid centred on (and re-centred with) the vehicle.
Access is O(1), but two limitations drive the paper's move to OctoMap:

* **Locality** — only a window around the vehicle is represented; obstacle
  information observed earlier but now outside the window is forgotten, which
  is what lets the local planner route "through" geometry it saw a moment ago.
* **Memory** — the dense array grows with the cube of the window size, so the
  window must stay small (granularity and memory "were mutually exclusive",
  §III.B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Vec3
from repro.sensors.depth import PointCloud


@dataclass(frozen=True)
class VoxelGridConfig:
    """Size and resolution of the local window."""

    resolution: float = 0.5
    window_size: float = 24.0   # edge length of the cubic window, metres
    height: float = 20.0        # vertical extent, metres

    @property
    def cells_xy(self) -> int:
        return max(1, int(round(self.window_size / self.resolution)))

    @property
    def cells_z(self) -> int:
        return max(1, int(round(self.height / self.resolution)))


class VoxelGrid:
    """Sliding-window dense occupancy grid."""

    def __init__(self, config: VoxelGridConfig | None = None) -> None:
        self.config = config or VoxelGridConfig()
        self.resolution = self.config.resolution
        cfg = self.config
        self._occupied = np.zeros((cfg.cells_xy, cfg.cells_xy, cfg.cells_z), dtype=bool)
        self._known = np.zeros_like(self._occupied)
        self._center = Vec3.zero()

    # ------------------------------------------------------------------ #
    # window management
    # ------------------------------------------------------------------ #
    @property
    def center(self) -> Vec3:
        """World position of the window centre (x, y); z is always ground-based."""
        return self._center

    def recenter(self, position: Vec3) -> None:
        """Move the window to follow the vehicle, discarding data that falls outside.

        A real implementation would shift the retained overlap; keeping only
        the freshly observed data is a conservative model of the same
        locality limitation and is what produces the V2 failure modes.
        """
        shift = position.with_z(0.0) - self._center.with_z(0.0)
        if shift.horizontal_norm() < self.config.window_size * 0.25:
            return
        self._center = position.with_z(0.0)
        self._occupied[...] = False
        self._known[...] = False

    # ------------------------------------------------------------------ #
    # indexing
    # ------------------------------------------------------------------ #
    def _to_index(self, point: Vec3) -> tuple[int, int, int] | None:
        cfg = self.config
        half = cfg.window_size / 2.0
        ix = int((point.x - (self._center.x - half)) / cfg.resolution)
        iy = int((point.y - (self._center.y - half)) / cfg.resolution)
        iz = int(point.z / cfg.resolution)
        if 0 <= ix < cfg.cells_xy and 0 <= iy < cfg.cells_xy and 0 <= iz < cfg.cells_z:
            return ix, iy, iz
        return None

    def _indices(self, points: np.ndarray) -> np.ndarray:
        """Cell indices of the rows of the ``(n, 3)`` array inside the window.

        The batched :meth:`_to_index`, with its arithmetic: the offset from
        the window corner divided by the resolution, truncated toward zero.
        """
        cfg = self.config
        half = cfg.window_size / 2.0
        scaled = (points - (self._center.x - half, self._center.y - half, 0.0)) / cfg.resolution
        # Truncation sends (-1, 0) to index 0, so that interval is inside too.
        inside = ((scaled > -1.0) & (scaled < self._occupied.shape)).all(axis=1)
        return scaled[inside].astype(np.intp)

    # ------------------------------------------------------------------ #
    # OccupancyMap interface
    # ------------------------------------------------------------------ #
    def integrate_cloud(self, cloud: PointCloud) -> None:
        """Mark the voxels containing returned points as occupied and known."""
        index = tuple(self._indices(cloud.to_array()).T)
        self._occupied[index] = True
        self._known[index] = True

    def is_occupied(self, point: Vec3) -> bool:
        index = self._to_index(point)
        if index is None:
            return False  # outside the window nothing is known, hence "free"
        return bool(self._occupied[index])

    def any_occupied(self, points: np.ndarray) -> bool:
        """Whether any row of the ``(n, 3)`` array lies in an occupied voxel."""
        index = self._indices(points)
        return bool(self._occupied[index[:, 0], index[:, 1], index[:, 2]].any())

    def is_known(self, point: Vec3) -> bool:
        index = self._to_index(point)
        if index is None:
            return False
        return bool(self._known[index])

    def occupied_voxel_count(self) -> int:
        return int(self._occupied.sum())

    def memory_bytes(self) -> int:
        """Dense storage cost: one byte per voxel per array."""
        return int(self._occupied.nbytes + self._known.nbytes)
