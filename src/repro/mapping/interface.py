"""The occupancy-map protocol shared by the planners.

Both map implementations (dense grid and octree) expose the same small query
surface so the planners are representation-agnostic — swapping the mapper is
exactly the upgrade the paper made between MLS-V2 and MLS-V3.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.geometry import Vec3
from repro.sensors.depth import PointCloud


@runtime_checkable
class OccupancyMap(Protocol):
    """Minimal interface required by collision checking and planning."""

    #: edge length of a voxel, metres
    resolution: float

    def integrate_cloud(self, cloud: PointCloud) -> None:
        """Fuse one depth point cloud (origin = sensor position)."""
        ...

    def is_occupied(self, point: Vec3) -> bool:
        """Whether the voxel containing ``point`` is believed occupied."""
        ...

    def any_occupied(self, points: np.ndarray) -> bool:
        """Whether any row of the ``(n, 3)`` array lies in an occupied voxel.

        The batched :meth:`is_occupied`: every point is mapped to its voxel
        with the same float arithmetic, so this equals
        ``any(is_occupied(Vec3(*p)) for p in points)``.
        """
        ...

    def is_known(self, point: Vec3) -> bool:
        """Whether the voxel containing ``point`` has ever been observed."""
        ...

    def occupied_voxel_count(self) -> int:
        """Number of voxels currently marked occupied (diagnostics / memory)."""
        ...

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the representation."""
        ...
