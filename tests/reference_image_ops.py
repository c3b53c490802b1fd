"""Earlier image kernels: the references for their current versions.

``connected_components`` and ``otsu_threshold`` are the versions
``repro.perception.image_ops`` used before they became whole-array passes,
and ``_im2col`` the patch loop ``repro.perception.neural.layers`` used
before ``sliding_window_view``, kept as they were so the tests can run any
input through both and demand identical results: the same list of
component masks, the same threshold bits, the same ``cols``.

``connected_components`` is union-find over horizontal pixel runs, swept
row pair by row pair in Python; ``otsu_threshold`` scores the 32 bins of
``np.histogram`` in a scalar loop; ``_im2col`` copies one output position's
patch at a time.

``box_filter`` (with ``np.pad``), ``component_geometry``,
``estimate_quad_corners``, ``sample_quad_grid`` and ``resize_patch`` are the
kernels as they were before their redundant passes went, and
``proposal_threshold`` is the learned detector's proposal cut as it was,
with ``np.median`` on every frame.  ``identify`` is
``ArucoDictionary.identify`` as it was, turning the observed grid with
``np.rot90`` three times and stacking the four rotations on every call.
"""

from __future__ import annotations

import numpy as np

from repro.perception.aruco import ArucoDictionary
from repro.perception.image_ops import ComponentGeometry


def connected_components(mask: np.ndarray, min_size: int = 12) -> list[np.ndarray]:
    """Label 4-connected components of a boolean mask.

    Returns one boolean mask per component with at least ``min_size`` pixels,
    ordered largest first (ties keep row-major discovery order, matching the
    flood-fill reference implementation).  Implemented as union-find over
    horizontal pixel runs: rows are decomposed into runs with one vectorised
    diff, and only run adjacencies — not pixels — are walked in Python.
    """
    h, w = mask.shape
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    delta = np.diff(padded, axis=1)
    start_rows, start_cols = np.nonzero(delta == 1)
    end_cols = np.nonzero(delta == -1)[1]
    run_count = len(start_rows)
    if run_count == 0:
        return []

    parent = list(range(run_count))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # Runs are emitted row-major; row_offsets[r] is the first run of row r.
    # Plain-int lists keep the union sweep out of numpy-scalar overhead.
    row_offsets = np.searchsorted(start_rows, np.arange(h + 1)).tolist()
    starts = start_cols.tolist()
    ends = end_cols.tolist()
    for row in range(h - 1):
        a, a_end = row_offsets[row], row_offsets[row + 1]
        b, b_end = row_offsets[row + 1], row_offsets[row + 2]
        while a < a_end and b < b_end:
            if starts[a] < ends[b] and starts[b] < ends[a]:
                root_a, root_b = find(a), find(b)
                if root_a != root_b:
                    parent[root_b] = root_a
            if ends[a] <= ends[b]:
                a += 1
            else:
                b += 1

    # Resolve every run to its root with vectorised pointer jumping; path
    # halving during the sweep keeps the trees shallow so this converges in
    # a couple of iterations.
    roots = np.asarray(parent, dtype=np.int64)
    while True:
        jumped = roots[roots]
        if np.array_equal(jumped, roots):
            break
        roots = jumped
    sizes = np.bincount(roots, weights=end_cols - start_cols).astype(np.int64)
    # First occurrence of each root in row-major run order is the component's
    # smallest flat pixel index — exactly where the reference flood fill
    # would seed it, so sorting first occurrences gives discovery order.
    unique_roots, first_runs = np.unique(roots, return_index=True)
    discovery = unique_roots[np.argsort(first_runs, kind="stable")]

    sized: list[tuple[int, np.ndarray]] = []
    for root in discovery:
        size = int(sizes[root])
        if size < min_size:
            continue
        component = np.zeros((h, w), dtype=bool)
        for i in np.nonzero(roots == root)[0]:
            component[start_rows[i], starts[i]:ends[i]] = True
        sized.append((size, component))
    sized.sort(key=lambda item: item[0], reverse=True)
    return [component for _, component in sized]


def otsu_threshold(values: np.ndarray) -> float:
    """Otsu's method on a flat array of intensities (used to binarise cells)."""
    flat = values.ravel()
    if flat.size == 0:
        return 0.5
    hist, edges = np.histogram(flat, bins=32, range=(0.0, 1.0))
    total = flat.size
    best_threshold = 0.5
    best_variance = -1.0
    cumulative = 0
    cumulative_mean = 0.0
    global_mean = float(flat.mean())
    for i in range(32):
        cumulative += hist[i]
        if cumulative == 0 or cumulative == total:
            continue
        cumulative_mean += hist[i] * (edges[i] + edges[i + 1]) / 2.0
        weight_background = cumulative / total
        weight_foreground = 1.0 - weight_background
        mean_background = cumulative_mean / cumulative
        mean_foreground = (global_mean * total - cumulative_mean) / (total - cumulative)
        variance = weight_background * weight_foreground * (mean_background - mean_foreground) ** 2
        if variance > best_variance:
            best_variance = variance
            best_threshold = (edges[i] + edges[i + 1]) / 2.0
    return best_threshold


def _im2col(x: np.ndarray, kernel: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into (N, out_h*out_w, C*kernel*kernel) patches."""
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols = np.empty((n, out_h * out_w, c * kernel * kernel))
    idx = 0
    for i in range(out_h):
        for j in range(out_w):
            patch = x[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            cols[:, idx, :] = patch.reshape(n, -1)
            idx += 1
    return cols, out_h, out_w


def box_filter(image: np.ndarray, radius: int) -> np.ndarray:
    """Mean filter with a square window of ``2*radius + 1`` pixels.

    Implemented with an integral image so it is O(1) per pixel; used by the
    adaptive threshold.
    """
    if radius < 1:
        return image.copy()
    padded = np.pad(image, radius + 1, mode="edge")
    integral = padded.cumsum(axis=0).cumsum(axis=1)
    size = 2 * radius + 1
    h, w = image.shape
    top_left = integral[:h, :w]
    top_right = integral[:h, size:size + w]
    bottom_left = integral[size:size + h, :w]
    bottom_right = integral[size:size + h, size:size + w]
    window_sum = bottom_right - bottom_left - top_right + top_left
    return window_sum / float(size * size)


def proposal_threshold(contrast: np.ndarray, contrast_threshold: float) -> float:
    """The learned detector's proposal cut, from the median on every frame."""
    # The threshold adapts to the image's noise floor: under heavy rain or
    # fog the whole frame is speckled, so "high contrast" must mean high
    # relative to the median local contrast, not an absolute constant.
    noise_floor = float(np.median(contrast))
    threshold = max(contrast_threshold, noise_floor * 2.2)
    return threshold


def component_geometry(component: np.ndarray) -> ComponentGeometry:
    """Centroid, bounding box, fill ratio and aspect ratio of a component."""
    rows, cols = np.nonzero(component)
    min_row, max_row = int(rows.min()), int(rows.max())
    min_col, max_col = int(cols.min()), int(cols.max())
    height = max_row - min_row + 1
    width = max_col - min_col + 1
    pixel_count = int(component.sum())
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
    rows, cols = np.nonzero(component)
    if len(rows) < 4:
        return None
    points = np.stack([rows, cols], axis=1).astype(float)
    sums = points[:, 0] + points[:, 1]
    diffs = points[:, 0] - points[:, 1]
    corners = np.array(
        [
            points[np.argmin(sums)],   # top-left-ish
            points[np.argmin(diffs)],  # top-right-ish
            points[np.argmax(sums)],   # bottom-right-ish
            points[np.argmax(diffs)],  # bottom-left-ish
        ]
    )
    # Degenerate (line-like) components produce nearly coincident corners.
    perimeter = 0.0
    for i in range(4):
        perimeter += np.linalg.norm(corners[i] - corners[(i + 1) % 4])
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
    v = (np.arange(cells) + 0.5) / cells
    u = (np.arange(cells) + 0.5) / cells
    left = top_left[None, :] + (bottom_left - top_left)[None, :] * v[:, None]
    right = top_right[None, :] + (bottom_right - top_right)[None, :] * v[:, None]
    points = left[:, None, :] + (right - left)[:, None, :] * u[None, :, None]
    rows = np.clip(np.rint(points[..., 0]).astype(int), 0, h - 1)
    cols = np.clip(np.rint(points[..., 1]).astype(int), 0, w - 1)
    return image[rows, cols].astype(float)


def resize_patch(patch: np.ndarray, target: int) -> np.ndarray:
    """Nearest-neighbour resize of a square patch to ``target x target``."""
    if target < 1:
        raise ValueError("target size must be positive")
    h, w = patch.shape
    rows = np.clip((np.arange(target) + 0.5) * h / target, 0, h - 1).astype(int)
    cols = np.clip((np.arange(target) + 0.5) * w / target, 0, w - 1).astype(int)
    return patch[np.ix_(rows, cols)]


def identify(
    dictionary: ArucoDictionary, observed: np.ndarray, max_errors: int = 1
) -> tuple[int, int] | None:
    """Match an observed inner bit grid against the dictionary.

    Tries all four rotations of the observation and returns the best
    ``(marker_id, rotation_index)`` whose Hamming distance is at most
    ``max_errors``; returns ``None`` if nothing matches.  Computed as one
    ``(size, 4)`` Hamming matrix; ``argmin``'s first-occurrence rule
    reproduces the reference scan order (lowest id, then lowest rotation,
    wins ties).
    """
    if observed.shape != (dictionary.bits, dictionary.bits):
        raise ValueError(
            f"observed grid has shape {observed.shape}, expected {(dictionary.bits, dictionary.bits)}"
        )
    observed = observed.astype(bool)
    ids = list(dictionary.codes.keys())
    stack = np.stack([dictionary.codes[i] for i in ids], axis=0).astype(bool)
    rotations = np.stack(
        [observed, np.rot90(observed, 1), np.rot90(observed, 2), np.rot90(observed, 3)], axis=0
    )
    distances = (stack[:, None, :, :] != rotations[None, :, :, :]).sum(axis=(2, 3))
    flat = int(np.argmin(distances))
    if int(distances.flat[flat]) > max_errors:
        return None
    return ids[flat // 4], flat % 4
