"""The whole-array image kernels against the loops they replaced.

``reference_image_ops`` keeps the union-find ``connected_components``, the
scalar Otsu loop and the patch-by-patch ``_im2col``.  Every input must give
the same list of component masks, the same threshold bits and the same
``cols``, on random inputs and on the masks and cell grids one MLS-V1 and
one MLS-V3 mission fed their detectors.
"""

import numpy as np
import pytest
import reference_image_ops as reference
from hypothesis import given, settings, strategies as st

from repro.core.config import mls_v1, mls_v3
from repro.core.mission import MissionConfig, run_scenario
from repro.perception import image_ops
from repro.perception.neural.layers import _im2col
from repro.perception.neural.training import load_pretrained_detector_net
from repro.world.scenario_gen import generate_suite


def assert_same_components(mask: np.ndarray, min_size: int) -> list[np.ndarray]:
    components = image_ops.connected_components(mask, min_size)
    expected = reference.connected_components(mask, min_size)
    assert len(components) == len(expected)
    for component, want in zip(components, expected):
        assert component.dtype == bool and component.shape == mask.shape
        assert np.array_equal(component, want)
    return components


def assert_same_threshold(values: np.ndarray) -> None:
    assert float(image_ops.otsu_threshold(values)).hex() == float(
        reference.otsu_threshold(values)
    ).hex()


def spiral(size: int) -> np.ndarray:
    """A one-pixel-wide square spiral with one-pixel gaps: one component
    whose row runs alternate between arms, so labels settle over several
    hooking rounds."""
    mask = np.zeros((size, size), dtype=bool)
    row = col = 0
    moves = ((0, 1), (1, 0), (0, -1), (-1, 0))
    arms = [size - 1] + [length for length in range(size - 1, 0, -2) for _ in range(2)]
    for index, length in enumerate(arms):
        d_row, d_col = moves[index % 4]
        for _ in range(length):
            mask[row, col] = True
            row, col = row + d_row, col + d_col
    mask[row, col] = True
    return mask


def comb(teeth: int, length: int) -> np.ndarray:
    """Teeth hanging from a bar at the bottom: every tooth but the first
    joins the first only through the bar, the last run in row-major order."""
    mask = np.zeros((length + 1, 2 * teeth - 1), dtype=bool)
    mask[:length, ::2] = True
    mask[length, :] = True
    return mask


@given(
    height=st.integers(min_value=1, max_value=60),
    width=st.integers(min_value=1, max_value=60),
    density=st.floats(min_value=0.0, max_value=1.0),
    min_size=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_random_masks_give_the_same_components(height, width, density, min_size, seed):
    mask = np.random.default_rng(seed).random((height, width)) < density
    assert_same_components(mask, min_size)


def maze(cells: int, seed: int) -> np.ndarray:
    """A depth-first maze of one-pixel corridors: one tree-shaped component
    whose row runs alternate between far-apart corridors, so its labels
    settle over four or five hooking rounds."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((2 * cells - 1, 2 * cells - 1), dtype=bool)
    seen = np.zeros((cells, cells), dtype=bool)
    seen[0, 0] = mask[0, 0] = True
    stack = [(0, 0)]
    while stack:
        row, col = stack[-1]
        unseen = [
            (row + d_row, col + d_col)
            for d_row, d_col in ((0, 1), (1, 0), (0, -1), (-1, 0))
            if 0 <= row + d_row < cells and 0 <= col + d_col < cells
            and not seen[row + d_row, col + d_col]
        ]
        if not unseen:
            stack.pop()
            continue
        next_row, next_col = unseen[rng.integers(len(unseen))]
        seen[next_row, next_col] = True
        mask[2 * next_row, 2 * next_col] = mask[row + next_row, col + next_col] = True
        stack.append((next_row, next_col))
    return mask


@pytest.mark.parametrize(
    "mask",
    [spiral(41), spiral(40).T, comb(30, 20), comb(30, 20)[::-1], maze(30, 0), maze(30, 1), maze(20, 2)],
    ids=["spiral-41", "spiral-40-T", "comb", "comb-flipped", "maze-0", "maze-1", "maze-2"],
)
def test_masks_that_need_several_hooking_rounds(mask):
    (component,) = assert_same_components(mask, 1)
    assert np.array_equal(component, mask)


def test_many_equal_sized_components_keep_discovery_order():
    rng = np.random.default_rng(3)
    mask = np.zeros((60, 60), dtype=bool)
    mask[::3, ::3] = True  # 400 single pixels, then pairs and L shapes
    mask[1::6, ::3] = rng.random((10, 20)) < 0.5
    mask[::6, 1::6] = rng.random((10, 10)) < 0.5
    components = assert_same_components(mask, 1)
    sizes = [int(component.sum()) for component in components]
    assert len(set(sizes)) > 1 and len(sizes) > 100


def test_empty_and_full_masks():
    for shape in ((1, 1), (5, 1), (1, 7), (13, 9)):
        assert assert_same_components(np.zeros(shape, dtype=bool), 1) == []
        assert len(assert_same_components(np.ones(shape, dtype=bool), 1)) == 1


@given(
    values=st.lists(st.floats(min_value=-0.1, max_value=1.1), min_size=0, max_size=80),
)
@settings(max_examples=300, deadline=None)
def test_otsu_random_arrays(values):
    assert_same_threshold(np.array(values, dtype=float))


@given(
    levels=st.integers(min_value=1, max_value=40),
    count=st.integers(min_value=1, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_otsu_quantised_arrays(levels, count, seed):
    """Few distinct levels leave empty bins between them, so several splits
    score exactly the same variance and the first one must win."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, levels + 1, size=count) / levels
    assert_same_threshold(values)
    assert_same_threshold(values.reshape(1, -1))


@pytest.mark.parametrize("value", [0.0, 0.08, 0.45, 0.5, 0.92, 1.0, -0.3, 1.7])
@pytest.mark.parametrize("count", [0, 1, 36])
def test_otsu_constant_and_empty_arrays(value, count):
    assert_same_threshold(np.full(count, value))
    assert_same_threshold(np.full((count, 3), value))


@given(
    n=st.integers(min_value=1, max_value=3),
    c=st.integers(min_value=1, max_value=4),
    kernel=st.integers(min_value=1, max_value=5),
    stride=st.integers(min_value=1, max_value=3),
    extra_h=st.integers(min_value=0, max_value=9),
    extra_w=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_im2col_matches_the_patch_loop(n, c, kernel, stride, extra_h, extra_w, seed):
    x = np.random.default_rng(seed).standard_normal((n, c, kernel + extra_h, kernel + extra_w))
    cols, out_h, out_w = _im2col(x, kernel, stride)
    want, want_h, want_w = reference._im2col(x, kernel, stride)
    assert (out_h, out_w) == (want_h, want_w)
    assert cols.dtype == want.dtype and cols.shape == want.shape
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, want)


@pytest.fixture(scope="module")
def mission_inputs():
    """Every mask and cell grid one MLS-V1 and one MLS-V3 mission passed to
    ``connected_components`` and ``otsu_threshold``, in order."""
    scenario = generate_suite("smoke", count=1, seed=7).scenarios[0]
    inputs = {"masks": [], "grids": []}
    label, threshold = image_ops.connected_components, image_ops.otsu_threshold

    def recording_label(mask, min_size=12):
        inputs["masks"].append((mask.copy(), min_size))
        return label(mask, min_size)

    def recording_threshold(values):
        inputs["grids"].append(values.copy())
        return threshold(values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(image_ops, "connected_components", recording_label)
        patch.setattr(image_ops, "otsu_threshold", recording_threshold)
        for system in (mls_v1(), mls_v3()):
            run_scenario(
                scenario,
                system,
                MissionConfig(max_mission_time=30.0),
                detector_network=load_pretrained_detector_net(),
            )
    return inputs


def test_mission_masks_give_the_same_components(mission_inputs):
    masks = mission_inputs["masks"]
    assert len(masks) > 100
    found = sum(len(assert_same_components(mask, min_size)) for mask, min_size in masks)
    assert found > 0


def test_mission_grids_give_the_same_threshold(mission_inputs):
    grids = mission_inputs["grids"]
    assert len(grids) > 10
    for grid in grids:
        assert_same_threshold(grid)
