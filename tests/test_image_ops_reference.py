"""The image kernels against the versions they replaced.

``reference_image_ops`` keeps the union-find ``connected_components``, the
scalar Otsu loop, the patch-by-patch ``_im2col``, the ``np.pad`` box filter,
the median-on-every-frame proposal cut, the earlier geometry, quad-corner,
grid-sampling and resize kernels and the ``identify`` that turned the
observed grid on every call.  Every input must give the same list of
component masks, the same bits of every float and the same ``cols``, on
random inputs and on the inputs one MLS-V1 and two MLS-V3 missions fed
their detectors.
"""

import numpy as np
import pytest
import reference_image_ops as reference
from hypothesis import given, settings, strategies as st

from repro.core.config import mls_v1, mls_v3
from repro.core.mission import MissionConfig, run_scenario
from repro.perception import image_ops, learned
from repro.perception.aruco import default_dictionary
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


def assert_same_bits(got: np.ndarray | None, want: np.ndarray | None) -> None:
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_geometry(component: np.ndarray) -> None:
    got = image_ops.component_geometry(component)
    want = reference.component_geometry(component)
    assert got.pixel_count == want.pixel_count and got.bounding_box == want.bounding_box
    for value, expected in (
        (got.centroid[0], want.centroid[0]),
        (got.centroid[1], want.centroid[1]),
        (got.fill_ratio, want.fill_ratio),
        (got.aspect_ratio, want.aspect_ratio),
    ):
        assert type(value) is type(expected) and float(value).hex() == float(expected).hex()


def assert_same_proposal_threshold(contrast: np.ndarray, floor: float) -> bool:
    """Compare the proposal cut with the median reference; return whether
    the median was computed."""
    medians = []
    median = np.median

    def counting_median(values, *args, **kwargs):
        medians.append(values.size)
        return median(values, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "median", counting_median)
        got = learned.proposal_threshold(contrast, floor)
    want = reference.proposal_threshold(contrast, floor)
    assert type(got) is float and got.hex() == float(want).hex()
    return bool(medians)


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
    height=st.integers(min_value=1, max_value=140),
    width=st.integers(min_value=1, max_value=140),
    radius=st.integers(min_value=1, max_value=10),
    scale=st.sampled_from([1.0, 1e-3, 1e3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_box_filter_matches_the_padded_integral(height, width, radius, scale, seed):
    image = np.random.default_rng(seed).random((height, width)) * scale
    assert_same_bits(image_ops.box_filter(image, radius), reference.box_filter(image, radius))
    squared = image * image
    assert_same_bits(image_ops.box_filter(squared, radius), reference.box_filter(squared, radius))


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (3, 2), (9, 20)])
@pytest.mark.parametrize("radius", [0, 4, 10])
def test_box_filter_radius_beyond_the_image(shape, radius):
    image = np.random.default_rng(sum(shape) + radius).random(shape)
    assert_same_bits(image_ops.box_filter(image, radius), reference.box_filter(image, radius))


def cut_bounds(floor: float) -> tuple[float, float]:
    """The largest contrast whose 2.2-fold does not clear ``floor``, and the
    smallest whose 2.2-fold does."""
    below = floor / 2.2
    while below * 2.2 > floor:
        below = float(np.nextafter(below, -np.inf))
    while float(np.nextafter(below, np.inf)) * 2.2 <= floor:
        below = float(np.nextafter(below, np.inf))
    return below, float(np.nextafter(below, np.inf))


@given(
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
    median_rank_clears=st.booleans(),
    floor=st.sampled_from([0.055]) | st.floats(min_value=1e-3, max_value=0.4),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_proposal_threshold_at_the_shortcut_bound(rows, cols, median_rank_clears, floor, data):
    """Fields of odd and even size with exactly ``n - n//2 - 1`` values whose
    2.2-fold clears the floor (the shortcut's bound: no median) or exactly
    ``n - n//2`` (the upper middle rank clears: the median decides)."""
    n = rows * cols
    clearing = n - n // 2 - (0 if median_rank_clears else 1)
    below, above = cut_bounds(floor)
    lows = data.draw(st.lists(st.floats(0.0, below), min_size=n - clearing, max_size=n - clearing))
    highs = data.draw(st.lists(st.floats(above, 1.0), min_size=clearing, max_size=clearing))
    order = data.draw(st.permutations(range(n)))
    contrast = np.array(lows + highs)[order].reshape(rows, cols)
    assert np.count_nonzero(contrast * 2.2 > floor) == clearing
    assert assert_same_proposal_threshold(contrast, floor) == median_rank_clears


@pytest.mark.parametrize("n", [1, 2, 7, 8, 16384])
def test_proposal_threshold_on_flat_fields(n):
    for value in (0.0, *cut_bounds(0.055), 0.5):
        assert_same_proposal_threshold(np.full(n, value), 0.055)


#: Otsu's bin edges, each with its neighbouring floats.
OTSU_EDGES = np.linspace(0.0, 1.0, 33).tolist()
on_and_beside_edges = st.sampled_from(
    [float(np.nextafter(edge, side)) for edge in OTSU_EDGES for side in (-np.inf, np.inf)]
    + OTSU_EDGES + [-0.0]
)
otsu_values = (
    on_and_beside_edges
    | st.floats(min_value=0.0, max_value=1.0)
    | st.floats(min_value=-1.0, max_value=-1e-300)
    | st.floats(min_value=float(np.nextafter(1.0, 2.0)), max_value=2.0)
)


@given(values=st.lists(otsu_values, min_size=0, max_size=60))
@settings(max_examples=400, deadline=None)
def test_otsu_values_on_bin_edges_and_outside(values):
    assert_same_threshold(np.array(values, dtype=float))


@pytest.mark.parametrize("edge", OTSU_EDGES)
def test_otsu_each_edge_between_zero_and_one(edge):
    assert_same_threshold(np.array([0.0, edge, 1.0]))
    assert_same_threshold(np.array([edge, 1.0, 1.0, float(np.nextafter(1.0, 0.0))]))
    assert_same_threshold(np.array([-0.5, edge, edge, 1.5]))


def random_mask(height: int, width: int, density: float, seed: int) -> np.ndarray:
    mask = np.random.default_rng(seed).random((height, width)) < density
    if not mask.any():
        mask[height // 2, width // 2] = True
    return mask


@given(
    height=st.integers(min_value=1, max_value=140),
    width=st.integers(min_value=1, max_value=140),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_component_geometry_and_quad_corners(height, width, density, seed):
    mask = random_mask(height, width, density, seed)
    assert_same_geometry(mask)
    assert_same_bits(image_ops.estimate_quad_corners(mask), reference.estimate_quad_corners(mask))


@pytest.mark.parametrize(
    "mask",
    [np.ones((128, 128), dtype=bool), np.ones((91, 140), dtype=bool), spiral(41), comb(30, 20)],
    ids=["full-128", "full-91x140", "spiral", "comb"],
)
def test_geometry_of_large_components(mask):
    assert_same_geometry(mask)
    assert_same_bits(image_ops.estimate_quad_corners(mask), reference.estimate_quad_corners(mask))


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 8])
def test_quad_corners_of_lines_and_dots(length):
    for mask in (np.ones((1, length), dtype=bool), np.ones((length, 1), dtype=bool), np.eye(length, dtype=bool)):
        assert_same_bits(image_ops.estimate_quad_corners(mask), reference.estimate_quad_corners(mask))


@given(
    height=st.integers(min_value=1, max_value=40),
    width=st.integers(min_value=1, max_value=40),
    corners=st.lists(st.floats(min_value=-10.0, max_value=50.0), min_size=8, max_size=8),
    cells=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_sample_quad_grid(height, width, corners, cells, seed):
    image = np.random.default_rng(seed).random((height, width))
    quad = np.array(corners).reshape(4, 2)
    assert_same_bits(
        image_ops.sample_quad_grid(image, quad, cells), reference.sample_quad_grid(image, quad, cells)
    )


@given(
    height=st.integers(min_value=1, max_value=60),
    width=st.integers(min_value=1, max_value=60),
    target=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_resize_patch(height, width, target, seed):
    patch = np.random.default_rng(seed).random((height, width))
    # Twice: the second call reads the cached sample indices.
    for _ in range(2):
        assert_same_bits(image_ops.resize_patch(patch, target), reference.resize_patch(patch, target))


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


DICTIONARY = default_dictionary()


def grid_of(bits: int) -> np.ndarray:
    """The ``4 x 4`` bit grid whose row-major cells are the bits of ``bits``."""
    return ((bits >> np.arange(16)) & 1).astype(bool).reshape(4, 4)


def assert_same_match(grid: np.ndarray, max_errors: int) -> None:
    assert DICTIONARY.identify(grid, max_errors) == reference.identify(DICTIONARY, grid, max_errors)


@given(
    code=st.integers(min_value=0, max_value=DICTIONARY.size - 1),
    turns=st.integers(min_value=0, max_value=3),
    flips=st.lists(st.integers(min_value=0, max_value=15), max_size=6),
    max_errors=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=300, deadline=None)
def test_identify_rotated_codes_with_flipped_bits(code, turns, flips, max_errors):
    grid = np.rot90(DICTIONARY.bit_grid(code), turns).copy()
    for cell in flips:
        grid.flat[cell] = not grid.flat[cell]
    assert_same_match(grid, max_errors)
    assert_same_match(grid.astype(np.uint8), max_errors)


@given(bits=st.integers(min_value=0, max_value=2**16 - 1), max_errors=st.integers(min_value=0, max_value=3))
@settings(max_examples=300, deadline=None)
def test_identify_any_grid(bits, max_errors):
    assert_same_match(grid_of(bits), max_errors)


def test_identify_ties_keep_the_scan_order():
    """Grids whose best distance, within ``max_errors``, is reached by
    several ``(id, rotation)`` pairs: the lowest id, then the lowest
    rotation, must win in both versions."""
    grids = np.array([grid_of(bits) for bits in range(0, 2**16, 16)])
    rotations = np.stack([np.rot90(grids, turns, axes=(1, 2)) for turns in range(4)], axis=1)
    codes = np.array([DICTIONARY.bit_grid(i) for i in DICTIONARY.codes])
    distances = (codes[None, :, None] != rotations[:, None]).sum(axis=(3, 4))
    best = distances.min(axis=(1, 2))
    tied = ((distances == best[:, None, None]).sum(axis=(1, 2)) > 1) & (best <= 3)
    assert tied.sum() > 100 and set(best[tied].tolist()) == {2, 3}
    for grid, distance in zip(grids[tied], best[tied]):
        for max_errors in range(4):
            assert_same_match(grid, max_errors)
        assert DICTIONARY.identify(grid, int(distance)) is not None


@pytest.fixture(scope="module")
def mission_inputs():
    """The inputs one MLS-V1 and two MLS-V3 missions passed to the kernels,
    in order: every mask ``connected_components`` labelled, cell grid
    ``otsu_threshold`` binarised, image ``box_filter`` smoothed, contrast
    field ``proposal_threshold`` cut, component measured or cornered and quad
    sampled.  The second MLS-V3 mission flies in glare without rain, where
    fewer than half the pixels are speckled and the cut skips the median."""
    rain, glare = generate_suite("smoke", count=2, seed=7).scenarios
    inputs = {name: [] for name in ("masks", "grids", "filters", "contrasts", "components", "quads")}

    def recording(module, name, key, copy):
        kernel = getattr(module, name)

        def record(*args, **kwargs):
            inputs[key].append(copy(*args, **kwargs))
            return kernel(*args, **kwargs)

        return record

    recorders = [
        (image_ops, "connected_components", "masks", lambda mask, min_size=12: (mask.copy(), min_size)),
        (image_ops, "otsu_threshold", "grids", lambda values: values.copy()),
        (image_ops, "box_filter", "filters", lambda image, radius: (image.copy(), radius)),
        (learned, "proposal_threshold", "contrasts", lambda contrast, floor: (contrast.copy(), floor)),
        (image_ops, "component_geometry", "components", lambda component: component.copy()),
        (image_ops, "estimate_quad_corners", "components", lambda component: component.copy()),
        (
            image_ops, "sample_quad_grid", "quads",
            lambda image, corners, cells: (image.copy(), corners.copy(), cells),
        ),
    ]
    with pytest.MonkeyPatch.context() as patch:
        for module, name, key, copy in recorders:
            patch.setattr(module, name, recording(module, name, key, copy))
        for scenario, system in ((rain, mls_v1()), (rain, mls_v3()), (glare, mls_v3())):
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


def test_mission_images_give_the_same_box_filter(mission_inputs):
    filters = mission_inputs["filters"]
    assert len(filters) > 100
    assert {radius for _, radius in filters} >= {3, 4, 8}
    for image, radius in filters:
        assert_same_bits(image_ops.box_filter(image, radius), reference.box_filter(image, radius))


def test_mission_contrast_fields_take_both_threshold_branches(mission_inputs):
    contrasts = mission_inputs["contrasts"]
    assert len(contrasts) > 10
    medians = [assert_same_proposal_threshold(contrast, floor) for contrast, floor in contrasts]
    assert any(medians) and not all(medians)


def test_mission_components_and_quads(mission_inputs):
    components, quads = mission_inputs["components"], mission_inputs["quads"]
    assert len(components) > 10 and len(quads) > 10
    for component in components:
        assert_same_geometry(component)
        assert_same_bits(
            image_ops.estimate_quad_corners(component), reference.estimate_quad_corners(component)
        )
    for image, corners, cells in quads:
        assert_same_bits(
            image_ops.sample_quad_grid(image, corners, cells),
            reference.sample_quad_grid(image, corners, cells),
        )
