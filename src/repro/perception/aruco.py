"""A from-scratch ArUco-style fiducial marker dictionary.

Real ArUco dictionaries are generated by maximising inter-marker Hamming
distance over all rotations.  This module implements the same idea at a small
scale: a dictionary of N markers on a ``bits x bits`` inner grid, generated
deterministically so that every pair of codes (under all four rotations)
differs by at least ``min_distance`` bits.  The camera renderer draws markers
from these bit grids and the detectors decode them back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.perception import image_ops

#: Default inner-grid size (ArUco 4x4 family).
DEFAULT_BITS = 4
#: Default dictionary size (ArUco DICT_4X4_50 has 50 entries).
DEFAULT_SIZE = 50
#: Minimum pairwise Hamming distance enforced during generation.
DEFAULT_MIN_DISTANCE = 4


def _rotations(grid: np.ndarray) -> list[np.ndarray]:
    """The four 90-degree rotations of a bit grid."""
    return [grid, np.rot90(grid, 1), np.rot90(grid, 2), np.rot90(grid, 3)]


def _hamming(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.sum(a != b))


@dataclass
class ArucoDictionary:
    """A dictionary of square binary fiducial markers.

    Attributes:
        bits: inner grid dimension (excluding the black border).
        size: number of marker IDs in the dictionary.
        min_distance: minimum pairwise Hamming distance (over rotations)
            enforced at generation time.
        codes: mapping from marker ID to its ``bits x bits`` boolean grid.
    """

    bits: int = DEFAULT_BITS
    size: int = DEFAULT_SIZE
    min_distance: int = DEFAULT_MIN_DISTANCE
    seed: int = 42
    codes: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.bits < 3:
            raise ValueError("marker grid must be at least 3x3 bits")
        if self.size < 1:
            raise ValueError("dictionary must contain at least one marker")
        if not self.codes:
            self.codes = self._generate()

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #
    def _generate(self) -> dict[int, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        codes: dict[int, np.ndarray] = {}
        attempts = 0
        max_attempts = 50000
        while len(codes) < self.size and attempts < max_attempts:
            attempts += 1
            candidate = rng.integers(0, 2, size=(self.bits, self.bits)).astype(bool)
            # Reject codes that are rotationally ambiguous with themselves.
            if any(_hamming(candidate, rot) < 2 for rot in _rotations(candidate)[1:]):
                continue
            ok = True
            for existing in codes.values():
                for rot in _rotations(candidate):
                    if _hamming(existing, rot) < self.min_distance:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                codes[len(codes)] = candidate
        if len(codes) < self.size:
            raise RuntimeError(
                f"could only generate {len(codes)} of {self.size} markers; "
                "reduce size or min_distance"
            )
        return codes

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def bit_grid(self, marker_id: int) -> np.ndarray:
        """The inner bit grid for ``marker_id`` (True = white cell)."""
        if marker_id not in self.codes:
            raise KeyError(f"marker id {marker_id} not in dictionary (size {self.size})")
        return self.codes[marker_id]

    def bordered_grid(self, marker_id: int) -> np.ndarray:
        """The full marker pattern including the 1-cell black border.

        The returned array has shape ``(bits + 2, bits + 2)`` with False
        (black) around the border, matching the physical marker layout.
        Grids are cached read-only per marker id: the camera renderer samples
        them on every frame.
        """
        cache = self.__dict__.setdefault("_bordered_cache", {})
        full = cache.get(marker_id)
        if full is None:
            inner = self.bit_grid(marker_id)
            full = np.zeros((self.bits + 2, self.bits + 2), dtype=bool)
            full[1:-1, 1:-1] = inner
            full.setflags(write=False)
            cache[marker_id] = full
        return full

    def _code_table(self) -> tuple[np.ndarray, list[int]]:
        """The ``(size, 4, bits, bits)`` table of every code turned back 0-3
        quarter turns, plus ids, in insertion order."""
        cached = self.__dict__.get("_code_table_cache")
        if cached is not None and cached[0] == len(self.codes):
            return cached[1], cached[2]
        ids = list(self.codes.keys())
        table = np.array([[np.rot90(self.codes[i], -turns) for turns in range(4)] for i in ids], dtype=bool)
        self._code_table_cache = (len(self.codes), table, ids)
        return table, ids

    def identify(self, observed: np.ndarray, max_errors: int = 1) -> tuple[int, int] | None:
        """Match an observed inner bit grid against the dictionary.

        Tries all four rotations of the observation and returns the best
        ``(marker_id, rotation_index)`` whose Hamming distance is at most
        ``max_errors``; returns ``None`` if nothing matches.  Computed as one
        ``(size, 4)`` Hamming matrix against the codes turned back instead
        of the observation turned forward (a rotation only permutes cells,
        so the distances are the same); ``argmin``'s first-occurrence rule
        reproduces the reference scan order (lowest id, then lowest
        rotation, wins ties).
        """
        if observed.shape != (self.bits, self.bits):
            raise ValueError(
                f"observed grid has shape {observed.shape}, expected {(self.bits, self.bits)}"
            )
        table, ids = self._code_table()
        distances = (table != observed.astype(bool)).sum(axis=(2, 3))
        flat = int(np.argmin(distances))
        if int(distances.flat[flat]) > max_errors:
            return None
        return ids[flat // 4], flat % 4

    def decode_quad(
        self,
        image: np.ndarray,
        corners: np.ndarray,
        *,
        min_contrast: float,
        max_border_bits: int,
        max_errors: int,
    ) -> int | None:
        """The marker ID inside a quad of ``image``, or ``None``.

        Samples the quad's bordered bit grid, requires ``min_contrast``
        between its brightest and darkest cell (glare and fog collapse it),
        binarises it at the Otsu threshold, allows at most
        ``max_border_bits`` bright cells in the (black) border and looks the
        inner grid up with :meth:`identify` within ``max_errors`` bits.  Both
        detectors decode through here, each with its own three budgets.
        """
        grid = image_ops.sample_quad_grid(image, corners, self.bits + 2)
        if float(grid.max() - grid.min()) < min_contrast:
            return None
        bits = grid > image_ops.otsu_threshold(grid)
        border = np.concatenate([bits[0, :], bits[-1, :], bits[:, 0], bits[:, -1]])
        if border.sum() > max_border_bits:
            return None
        match = self.identify(bits[1:-1, 1:-1], max_errors=max_errors)
        return None if match is None else match[0]

    def render(self, marker_id: int, pixels_per_cell: int = 8) -> np.ndarray:
        """Render a marker as a grayscale image in [0, 1] (including border)."""
        if pixels_per_cell < 1:
            raise ValueError("pixels_per_cell must be at least 1")
        grid = self.bordered_grid(marker_id).astype(float)
        return np.kron(grid, np.ones((pixels_per_cell, pixels_per_cell)))

    def sample_at(self, marker_id: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Sample the marker pattern at normalised coordinates.

        Args:
            marker_id: which marker to sample.
            u, v: arrays of coordinates in [0, 1] across the full marker
                (border included); values outside [0, 1] sample as black.

        Returns:
            Array of intensities (1.0 for white cells, 0.0 for black) with the
            same shape as ``u``.
        """
        grid = self.bordered_grid(marker_id)
        cells = self.bits + 2
        col = np.clip((u * cells).astype(int), 0, cells - 1)
        row = np.clip((v * cells).astype(int), 0, cells - 1)
        values = grid[row, col].astype(float)
        outside = (u < 0) | (u > 1) | (v < 0) | (v > 1)
        values[outside] = 0.0
        return values


@lru_cache(maxsize=4)
def default_dictionary(bits: int = DEFAULT_BITS, size: int = DEFAULT_SIZE) -> ArucoDictionary:
    """The shared dictionary instance used across the simulator.

    Cached because generation does rejection sampling; every module that needs
    the dictionary (camera renderer, detectors, dataset builder) shares one.
    """
    return ArucoDictionary(bits=bits, size=size)
