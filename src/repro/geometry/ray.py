"""Batched voxel traversal of ray segments, for the octree's ray integration."""

from __future__ import annotations

import numpy as np


def voxel_traversal(
    start: np.ndarray, ends: np.ndarray, resolution: float
) -> tuple[np.ndarray, np.ndarray]:
    """The integer voxels each segment from ``start`` to a row of ``ends`` passes.

    A 3D DDA (Amanatides–Woo) traversal at the given voxel ``resolution``, of
    every segment at once.  Returns ``(voxels, steps)``: row ``r`` of the
    ``(n, w, 3)`` array ``voxels`` lists segment ``r``'s voxels in its first
    ``steps[r] + 1`` entries, the start voxel first and the end voxel last.

    Each segment takes the steps a one-ray-at-a-time walk takes, with the
    same float operations: from the start voxel, cross whichever face comes
    next (the lowest axis on a tie) until the end voxel, until the next face
    lies beyond the end, or for at most the Manhattan distance in voxels
    plus 3 steps.  Each axis's face crossings are a sequential ``cumsum`` of
    its first crossing and its per-voxel step; a stable sort merges the axes.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    ends = np.asarray(ends, dtype=float).reshape(-1, 3)
    start = np.broadcast_to(np.asarray(start, dtype=float), ends.shape)
    first, target = np.floor(start / resolution), np.floor(ends / resolution)
    delta = ends - start
    length = np.sqrt(delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1] + delta[:, 2] * delta[:, 2])
    moving = (first != target).any(axis=1) & (length >= 1e-12)
    cap = np.abs(target - first).sum(axis=1).astype(np.int64) + 3
    first, target = first.astype(np.int64), target.astype(np.int64)
    count = int(cap[moving].max(initial=0))
    if not count:
        return first[:, None, :], np.zeros(len(ends), dtype=np.int64)

    with np.errstate(all="ignore"):  # axes with no crossing are set to inf
        direction = delta / length[:, None]
        forward, backward = direction > 1e-12, direction < -1e-12
        crossing = forward | backward
        boundary = np.where(forward, first + 1, first) * resolution
        times = np.empty((len(ends), 3, count))
        times[:, :, 0] = np.where(crossing, (boundary - start) / direction, np.inf)
        times[:, :, 1:] = np.where(crossing, resolution / np.abs(direction), np.inf)[:, :, None]
    times = np.cumsum(times, axis=2).reshape(len(ends), 3 * count)
    # A row holds the x, then the y, then the z crossings, so a stable sort
    # steps the lowest axis first on a tie.  No walk is longer than ``count``.
    order = np.argsort(times, axis=1, kind="stable")[:, :count]
    # A walk stops at its cap, before a face beyond the segment's end, ...
    within = np.take_along_axis(times, order, axis=1) <= (length + 1e-9)[:, None]
    limit = np.where(moving, np.minimum(cap, within.sum(axis=1)), 0)
    moves = np.eye(3, dtype=np.int64) * np.where(forward, 1, np.where(backward, -1, 0))[:, :, None]
    walk = np.take_along_axis(moves, order[:, : limit.max(), None] // count, axis=1)
    voxels = np.cumsum(np.concatenate([first[:, None, :], walk], axis=1), axis=1)
    # ... or in the end voxel.
    reached = (voxels == target[:, None, :]).all(axis=2)
    steps = np.where(reached.any(axis=1), np.minimum(limit, reached.argmax(axis=1)), limit)
    return voxels[:, : steps.max() + 1], steps
