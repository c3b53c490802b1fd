"""Loop-based image kernels: the references for their whole-array versions.

``connected_components`` and ``otsu_threshold`` are the versions
``repro.perception.image_ops`` used before they became whole-array passes,
and ``_im2col`` the patch loop ``repro.perception.neural.layers`` used
before ``sliding_window_view``, kept as they were so the tests can run any
input through both and demand identical results: the same list of
component masks, the same threshold bits, the same ``cols``.

``connected_components`` is union-find over horizontal pixel runs, swept
row pair by row pair in Python; ``otsu_threshold`` scores the 32 bins in a
scalar loop; ``_im2col`` copies one output position's patch at a time.
"""

from __future__ import annotations

import numpy as np


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
