"""Forward / downward depth camera producing point clouds.

The real platform carries a forward-facing Realsense D435 and a
downward-facing D435i.  This sensor casts a grid of rays into the world and
returns the hit points as a point cloud in world coordinates.  Two realism
effects matter to the reproduction:

* obstacles with restricted visibility (tree canopies) only return points
  once the drone is close, reproducing the "unseen obstacle" failure mode;
* under heavy precipitation or strong GPS degradation, spurious points are
  injected ("erroneous pointclouds during IRL testing", Fig. 5c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry import Pose, Vec3
from repro.world.world import World


def _rotate_rays(orientation, vectors: np.ndarray) -> np.ndarray:
    """Rotate ``(N, 3)`` body-frame vectors into the world frame.

    Replicates :meth:`repro.geometry.Quaternion.rotate` term by term — same
    operand order, same addition association — so each row is bit-identical
    to rotating the corresponding :class:`Vec3` individually.
    """
    qx, qy, qz, s = orientation.x, orientation.y, orientation.z, orientation.w
    vx = vectors[:, 0]
    vy = vectors[:, 1]
    vz = vectors[:, 2]
    dot_uv = qx * vx + qy * vy + qz * vz
    c1 = 2.0 * dot_uv
    c2 = s * s - (qx * qx + qy * qy + qz * qz)
    c3 = 2.0 * s
    cross_x = qy * vz - qz * vy
    cross_y = qz * vx - qx * vz
    cross_z = qx * vy - qy * vx
    out = np.empty_like(vectors)
    out[:, 0] = (qx * c1 + vx * c2) + cross_x * c3
    out[:, 1] = (qy * c1 + vy * c2) + cross_y * c3
    out[:, 2] = (qz * c1 + vz * c2) + cross_z * c3
    return out


@dataclass
class PointCloud:
    """A set of 3D points in world coordinates plus capture metadata."""

    points: list[Vec3] = field(default_factory=list)
    timestamp: float = 0.0
    sensor_position: Vec3 = field(default_factory=Vec3.zero)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def to_array(self) -> np.ndarray:
        """The points as an ``(n, 3)`` float array."""
        return np.array([(point.x, point.y, point.z) for point in self.points], dtype=float).reshape(-1, 3)

    def merged_with(self, other: "PointCloud") -> "PointCloud":
        return PointCloud(
            points=self.points + other.points,
            timestamp=max(self.timestamp, other.timestamp),
            sensor_position=self.sensor_position,
        )


@dataclass(frozen=True)
class DepthCameraSpec:
    """Ray-grid layout of the simulated depth camera."""

    horizontal_rays: int = 13
    vertical_rays: int = 9
    horizontal_fov_degrees: float = 86.0
    vertical_fov_degrees: float = 57.0
    max_range: float = 15.0
    min_range: float = 0.3


class DepthCamera:
    """Casts a grid of rays and returns the resulting point cloud.

    Args:
        spec: ray-grid layout (defaults approximate a Realsense D435).
        facing: ``"forward"`` or ``"down"``; the platform mounts one of each.
        depth_noise_std: Gaussian range noise in metres.
        seed: seed for noise and spurious-point injection.
    """

    def __init__(
        self,
        spec: DepthCameraSpec | None = None,
        facing: str = "forward",
        depth_noise_std: float = 0.03,
        seed: int = 0,
    ) -> None:
        if facing not in ("forward", "down"):
            raise ValueError("facing must be 'forward' or 'down'")
        self.spec = spec or DepthCameraSpec()
        self.facing = facing
        self.depth_noise_std = depth_noise_std
        self._rng = np.random.default_rng(seed)
        self._directions_body = self._build_ray_grid()
        self._directions_body_arr = np.array(
            [[d.x, d.y, d.z] for d in self._directions_body], dtype=float
        )

    def _build_ray_grid(self) -> list[Vec3]:
        spec = self.spec
        h_angles = np.linspace(
            -math.radians(spec.horizontal_fov_degrees) / 2,
            math.radians(spec.horizontal_fov_degrees) / 2,
            spec.horizontal_rays,
        )
        v_angles = np.linspace(
            -math.radians(spec.vertical_fov_degrees) / 2,
            math.radians(spec.vertical_fov_degrees) / 2,
            spec.vertical_rays,
        )
        directions = []
        for v in v_angles:
            for h in h_angles:
                if self.facing == "forward":
                    # Body frame: x forward, y left, z up.
                    direction = Vec3(
                        math.cos(v) * math.cos(h),
                        math.cos(v) * math.sin(h),
                        math.sin(v),
                    )
                else:
                    # Downward: z is the main axis, the grid fans around -z.
                    direction = Vec3(
                        math.sin(v),
                        math.cos(v) * math.sin(h),
                        -math.cos(v) * math.cos(h),
                    )
                directions.append(direction.normalized())
        return directions

    def capture(
        self,
        world: World,
        true_pose: Pose,
        estimated_pose: Pose | None = None,
        timestamp: float = 0.0,
    ) -> PointCloud:
        """Cast the ray grid from the drone's true pose.

        Args:
            world: the simulated world.
            true_pose: ground-truth pose used for ray casting.
            estimated_pose: the pose the mapping module believes; returned
                points are expressed relative to it, so state-estimation error
                shifts the whole cloud (this is how GPS drift corrupts the
                map, Fig. 5c/5d).
            timestamp: simulation time.
        """
        estimated_pose = estimated_pose or true_pose
        estimation_offset = estimated_pose.position - true_pose.position

        points: list[Vec3] = []
        weather = world.weather
        dropout = min(0.6, 0.25 * weather.precipitation)

        # All rays are rotated and cast in one numpy batch (no RNG involved);
        # the loop below only replays the per-ray RNG draws in the exact order
        # the scalar implementation used, so the random stream — and therefore
        # every campaign byte — is unchanged.
        dirs_world = _rotate_rays(true_pose.orientation, self._directions_body_arr)
        hits = world.raycast_batch(
            true_pose.position,
            dirs_world,
            self.spec.max_range,
            visible_only_from=true_pose.position,
        )

        position = true_pose.position
        min_range = self.spec.min_range
        if dropout > 0:
            # Dropout draws interleave with noise draws ray by ray, so the
            # stream order forces a scalar loop.
            for i in range(hits.shape[0]):
                if self._rng.random() < dropout:
                    continue
                hit = float(hits[i])
                if math.isnan(hit) or hit < min_range:
                    continue
                direction_world = Vec3(
                    float(dirs_world[i, 0]), float(dirs_world[i, 1]), float(dirs_world[i, 2])
                )
                noisy_range = hit + float(self._rng.normal(0.0, self.depth_noise_std))
                noisy_range = max(min_range, noisy_range)
                point = position + direction_world * noisy_range
                points.append(point + estimation_offset)
        else:
            # No dropout: only valid hits draw noise, in ray order, so one
            # array draw consumes the identical bit stream (numpy fills
            # arrays from the same sequential ziggurat samples).
            valid = np.nonzero(~np.isnan(hits) & (hits >= min_range))[0]
            if valid.size:
                noise = self._rng.normal(0.0, self.depth_noise_std, size=valid.size)
                ranges = np.maximum(min_range, hits[valid] + noise)
                px = position.x + dirs_world[valid, 0] * ranges + estimation_offset.x
                py = position.y + dirs_world[valid, 1] * ranges + estimation_offset.y
                pz = position.z + dirs_world[valid, 2] * ranges + estimation_offset.z
                points.extend(
                    Vec3(float(x), float(y), float(z)) for x, y, z in zip(px, py, pz)
                )

        points.extend(
            self._spurious_points(weather, estimated_pose)
        )
        return PointCloud(
            points=points,
            timestamp=timestamp,
            sensor_position=estimated_pose.position,
        )

    def _spurious_points(self, weather, estimated_pose: Pose) -> list[Vec3]:
        """Phantom returns caused by rain speckle / severe GPS degradation."""
        severity = max(weather.precipitation, weather.gps_degradation)
        if severity < 0.5:
            return []
        count = int(self._rng.poisson(3.0 * (severity - 0.5)))
        spurious = []
        for _ in range(count):
            direction = Vec3(
                float(self._rng.normal()), float(self._rng.normal()), float(self._rng.normal())
            )
            try:
                direction = direction.normalized()
            except ValueError:
                continue
            distance = float(self._rng.uniform(1.0, self.spec.max_range * 0.5))
            spurious.append(estimated_pose.position + direction * distance)
        return spurious
