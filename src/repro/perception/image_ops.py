"""Minimal image-processing toolbox used by the marker detectors.

Everything operates on plain ``(H, W)`` float arrays in [0, 1].  The
functions cover exactly what the classical ArUco pipeline needs: local
(adaptive) thresholding, connected-component labelling, component geometry,
corner estimation and perspective sampling of a quadrilateral region — small,
dependency-free equivalents of the OpenCV calls the original MLS-V1 detector
relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def box_filter(image: np.ndarray, radius: int) -> np.ndarray:
    """Mean filter with a square window of ``2*radius + 1`` pixels.

    Implemented with an integral image so it is O(1) per pixel; used by the
    adaptive threshold and the learned detector's contrast proposals.
    """
    if radius < 1:
        return image.copy()
    pad = radius + 1
    size = 2 * radius + 1
    h, w = image.shape
    # The integral image of the edge-padded image.  The padding is written
    # in place, rows first and then whole columns, so the corners repeat the
    # corner pixels as ``np.pad(mode="edge")`` does.
    integral = np.empty((h + 2 * pad, w + 2 * pad))
    integral[pad:pad + h, pad:pad + w] = image
    integral[:pad, pad:pad + w] = image[0]
    integral[pad + h:, pad:pad + w] = image[-1]
    integral[:, :pad] = integral[:, pad:pad + 1]
    integral[:, pad + w:] = integral[:, pad + w - 1:pad + w]
    np.cumsum(integral, axis=0, out=integral)
    np.cumsum(integral, axis=1, out=integral)
    # bottom_right - bottom_left - top_right + top_left, in that order.
    window_sum = integral[size:size + h, size:size + w] - integral[size:size + h, :w]
    window_sum -= integral[:h, size:size + w]
    window_sum += integral[:h, :w]
    window_sum /= float(size * size)
    return window_sum


def adaptive_threshold(image: np.ndarray, radius: int = 8, offset: float = 0.05) -> np.ndarray:
    """Binary mask of pixels darker than their local neighbourhood mean.

    Marker borders are black on a lighter background, so the classical
    detector thresholds for *dark* regions.
    """
    local_mean = box_filter(image, radius)
    local_mean -= offset
    return image < local_mean


def connected_components(mask: np.ndarray, min_size: int = 12) -> list[np.ndarray]:
    """Label 4-connected components of a boolean mask.

    Returns one boolean mask per component with at least ``min_size`` pixels,
    ordered largest first; ties keep discovery order, the order in which a
    row-major scan first reaches each component.  Labels the graph of
    horizontal pixel runs in whole-array passes: runs come from one
    comparison of neighbouring pixels over the mask laid out with a zero
    column after every row, each run's overlapping runs in the next row from
    two ``searchsorted`` calls, and labels from min-hooking plus pointer
    jumping.
    """
    h, w = mask.shape
    stride = w + 1
    padded = np.zeros((h, stride), dtype=bool)
    padded[:, :w] = mask
    flat = padded.ravel()
    # Flat keys in the padded layout: a run covers [start, end), and its
    # next-row neighbours sit exactly ``stride`` keys further on.  The mask
    # changes value at every start and every end, and the zero column ends
    # each row's last run, so the changes alternate start, end.
    change = np.empty(flat.size, dtype=bool)
    change[0] = flat[0]
    np.not_equal(flat[1:], flat[:-1], out=change[1:])
    bounds = np.flatnonzero(change)
    starts, ends = bounds[0::2], bounds[1::2]
    run_count = len(starts)
    if run_count == 0:
        return []

    # Run b in the next row overlaps run a when b.start < a.end + stride and
    # b.end > a.start + stride; those runs are one contiguous index range.
    first = np.searchsorted(ends, starts + stride, side="right")
    stop = np.searchsorted(starts, ends + stride, side="left")
    degree = stop - first
    source = np.repeat(np.arange(run_count), degree)
    target = np.arange(len(source)) - np.repeat(np.cumsum(degree) - degree - first, degree)

    # Hook the larger root of every split edge under the smaller one, then
    # jump pointers until every run points at its root.  A root is never
    # hooked under a larger index, so each component's root ends as its
    # first run in row-major order: ascending roots are discovery order.
    labels = np.arange(run_count)
    while True:
        root_a, root_b = labels[source], labels[target]
        split = root_a != root_b
        if not split.any():
            break
        np.minimum.at(
            labels, np.maximum(root_a, root_b)[split], np.minimum(root_a, root_b)[split]
        )
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped

    lengths = ends - starts
    roots = np.flatnonzero(labels == np.arange(run_count))
    sizes = np.bincount(labels, weights=lengths)[roots]
    kept = sizes >= min_size
    roots, sizes = roots[kept], sizes[kept]
    components = []
    for root in roots[np.argsort(-sizes, kind="stable")]:
        own = labels == root
        own_lengths = lengths[own]
        pixels = np.repeat(starts[own] - np.cumsum(own_lengths) + own_lengths, own_lengths)
        component = np.zeros((h, stride), dtype=bool)
        component.ravel()[pixels + np.arange(len(pixels))] = True
        components.append(component[:, :w].copy())
    return components


@dataclass(frozen=True)
class ComponentGeometry:
    """Geometric summary of a connected component."""

    centroid: tuple[float, float]
    pixel_count: int
    bounding_box: tuple[int, int, int, int]  # min_row, min_col, max_row, max_col
    fill_ratio: float
    aspect_ratio: float

    @property
    def width(self) -> int:
        return self.bounding_box[3] - self.bounding_box[1] + 1

    @property
    def height(self) -> int:
        return self.bounding_box[2] - self.bounding_box[0] + 1

    @property
    def side_length(self) -> float:
        return (self.width + self.height) / 2.0


def _pixel_coordinates(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a 2-D boolean mask, rows ascending: one flat pass
    and a divmod, several times cheaper than the 2-D ``nonzero``."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def component_geometry(component: np.ndarray) -> ComponentGeometry:
    """Centroid, bounding box, fill ratio and aspect ratio of a component."""
    rows, cols = _pixel_coordinates(component)
    min_row, max_row = int(rows[0]), int(rows[-1])
    min_col, max_col = int(cols.min()), int(cols.max())
    height = max_row - min_row + 1
    width = max_col - min_col + 1
    pixel_count = len(rows)
    fill_ratio = pixel_count / float(height * width)
    aspect = max(height, width) / max(1.0, float(min(height, width)))
    return ComponentGeometry(
        centroid=(float(rows.mean()), float(cols.mean())),
        pixel_count=pixel_count,
        bounding_box=(min_row, min_col, max_row, max_col),
        fill_ratio=fill_ratio,
        aspect_ratio=aspect,
    )


def estimate_quad_corners(component: np.ndarray) -> np.ndarray | None:
    """Estimate the four corners of a roughly square component.

    Finds the component pixels that are extremal along the two diagonal
    directions (a cheap but effective corner heuristic for axis-aligned or
    rotated squares).  Returns a ``(4, 2)`` array of (row, col) corners
    ordered around the quad, or ``None`` if the component is degenerate.
    """
    rows, cols = _pixel_coordinates(component)
    if len(rows) < 4:
        return None
    sums = rows + cols
    diffs = rows - cols
    # top-left-ish, top-right-ish, bottom-right-ish, bottom-left-ish
    picks = [sums.argmin(), diffs.argmin(), sums.argmax(), diffs.argmax()]
    corners = np.column_stack((rows[picks], cols[picks])).astype(float)
    # Degenerate (line-like) components produce nearly coincident corners.
    # Pixel coordinates are integers, so every side's squared length is
    # exact and its square root rounds as the vector norm's does.
    points = corners.tolist()
    perimeter = 0.0
    for (row, col), (next_row, next_col) in zip(points, points[1:] + points[:1]):
        d_row, d_col = row - next_row, col - next_col
        perimeter += math.sqrt(d_row * d_row + d_col * d_col)
    if perimeter < 8.0:
        return None
    return corners


def sample_quad_grid(image: np.ndarray, corners: np.ndarray, cells: int) -> np.ndarray:
    """Sample a ``cells x cells`` grid of intensities inside a quadrilateral.

    Uses bilinear interpolation of the quad defined by four corners ordered
    (top-left, top-right, bottom-right, bottom-left); cell centres are sampled
    so the result can be thresholded into a marker bit grid.
    """
    if corners.shape != (4, 2):
        raise ValueError("corners must have shape (4, 2)")
    h, w = image.shape
    top_left, top_right, bottom_right, bottom_left = corners
    centres = (np.arange(cells) + 0.5) / cells
    left = top_left + (bottom_left - top_left) * centres[:, None]
    right = top_right + (bottom_right - top_right) * centres[:, None]
    points = left[:, None, :] + (right - left)[:, None, :] * centres[None, :, None]
    index = np.rint(points).astype(int)
    np.clip(index, 0, (h - 1, w - 1), out=index)
    return image[index[..., 0], index[..., 1]].astype(float, copy=False)


#: Otsu's 32 bin edges on [0, 1], as ``np.histogram(bins=32, range=(0, 1))``
#: draws them, and each bin's summed edges (twice its centre).
_OTSU_EDGES = np.linspace(0.0, 1.0, 33)
_OTSU_BIN_SUMS = _OTSU_EDGES[:-1] + _OTSU_EDGES[1:]
#: The edges ``searchsorted`` bins against: the last bin includes its right
#: edge, so the search's last edge sits one ulp above 1.0.
_OTSU_SEARCH_EDGES = np.append(_OTSU_EDGES[:-1], np.nextafter(1.0, 2.0))


def otsu_threshold(values: np.ndarray) -> float:
    """Otsu's method on a flat array of intensities (used to binarise cells).

    Bins the values as ``np.histogram(values, bins=32, range=(0, 1))`` does
    (values outside [0, 1] count in no bin), scores every split with one
    pass over cumulative sums and returns the centre of the first best bin;
    0.5 when no split leaves both classes non-empty.
    """
    flat = values.ravel()
    if flat.size == 0:
        return 0.5
    # Bin i holds edges[i] <= v < edges[i + 1]; search index 0 is below 0.0
    # and 33 above 1.0 (or NaN), and both fall outside the kept slice.
    bins = np.searchsorted(_OTSU_SEARCH_EDGES, flat, side="right")
    hist = np.bincount(bins, minlength=34)[1:33]
    total = flat.size
    cumulative = np.cumsum(hist)
    split = (cumulative > 0) & (cumulative < total)
    if not split.any():
        return 0.5
    cumulative_mean = np.cumsum(hist * _OTSU_BIN_SUMS / 2.0)[split]
    cumulative = cumulative[split]
    global_mean = float(flat.mean())
    weight_background = cumulative / total
    weight_foreground = 1.0 - weight_background
    mean_background = cumulative_mean / cumulative
    mean_foreground = (global_mean * total - cumulative_mean) / (total - cumulative)
    # A float64 scalar's ``** 2`` is libm ``pow``, which rounds a few squares
    # differently from the array square; keep the scalar's bits.
    gap_squared = np.array([gap ** 2 for gap in (mean_background - mean_foreground).tolist()])
    variance = weight_background * weight_foreground * gap_squared
    return float(_OTSU_BIN_SUMS[split][np.argmax(variance)] / 2.0)


def crop_patch(image: np.ndarray, center: tuple[float, float], size: int) -> np.ndarray:
    """Extract a square patch (zero-padded at the borders) centred on a pixel."""
    if size < 1:
        raise ValueError("patch size must be positive")
    h, w = image.shape
    half = size / 2.0
    patch = np.zeros((size, size), dtype=float)
    row0 = int(round(center[0] - half))
    col0 = int(round(center[1] - half))
    r_lo = max(0, -row0)
    r_hi = min(size, h - row0)
    c_lo = max(0, -col0)
    c_hi = min(size, w - col0)
    if r_hi > r_lo and c_hi > c_lo:
        patch[r_lo:r_hi, c_lo:c_hi] = image[
            row0 + r_lo:row0 + r_hi, col0 + c_lo:col0 + c_hi
        ]
    return patch


def resize_patch(patch: np.ndarray, target: int) -> np.ndarray:
    """Nearest-neighbour resize of a square patch to ``target x target``."""
    if target < 1:
        raise ValueError("target size must be positive")
    h, w = patch.shape
    return patch[_nearest_index(h, target)[:, None], _nearest_index(w, target)]


@lru_cache(maxsize=256)
def _nearest_index(size: int, target: int) -> np.ndarray:
    """The source index of each of ``target`` nearest-neighbour samples."""
    index = np.clip((np.arange(target) + 0.5) * size / target, 0, size - 1).astype(int)
    index.setflags(write=False)
    return index
