"""Geometric primitives shared by every other subsystem.

The simulation, mapping and planning layers all describe the world in a
right-handed ENU (east-north-up) frame with metres as the unit.  This package
provides the small vocabulary of types they share:

* :class:`Vec3` — an immutable 3-vector with the usual arithmetic.
* :class:`Quaternion` — unit quaternion for attitude, plus Euler helpers.
* :class:`Pose` — position + orientation.
* :class:`AABB` — axis-aligned bounding box with intersection and ray tests.

:func:`repro.geometry.ray.voxel_traversal` walks a batch of segments through
integer voxels; the octree integrates depth rays with it.
"""

from repro.geometry.vec import Vec3
from repro.geometry.quaternion import Quaternion
from repro.geometry.pose import Pose
from repro.geometry.aabb import AABB

__all__ = ["Vec3", "Quaternion", "Pose", "AABB"]
