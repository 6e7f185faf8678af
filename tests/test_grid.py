import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from fatoulab import grid as grid_module
from fatoulab.catalog import exp_lambda, fatou_minus, fatou_plus, z_exp, z_plus_exp
from fatoulab.errors import OutOfWindow
from fatoulab.grid import ClassificationGrid, classify_grid, label_components
from fatoulab.measure import disk_grid
from fatoulab.orbits import (
    CLASS_ATTRACTING,
    CLASS_DRIFT,
    CLASS_PARABOLIC,
    Kind,
    classify_orbits_array,
    default_attractors,
)
from fatoulab.raster import label_by_class, outer_ring

from conftest import THREE_PI

TWO_PI = 2 * np.pi


def test_degenerate_two_by_two():
    g = classify_grid(exp_lambda(0.25), (-1, 1, -1, 1), (2, 2), 50)
    assert g.kinds.shape == (2, 2)
    with pytest.raises(ValueError):
        classify_grid(exp_lambda(0.25), (-1, 1, -1, 1), (1, 2), 50)


def test_exp_lambda_grid_cells(exp_grid):
    # cell containing the attracting fixed point is bounded, 3.0 escapes
    for z, kind in ((0.357 + 0j, Kind.ATTRACTING), (3.0 + 0j, Kind.ESCAPING)):
        ix, iy = exp_grid.cell_of(z)
        assert exp_grid.kinds[iy, ix] == kind


def test_zplus_strip_components(zplus_grid):
    """Three Baker strips, each containing its critical point 2 pi i k."""
    labels, counts = np.unique(zplus_grid.labels[zplus_grid.labels > 0], return_counts=True)
    major = set(labels[counts >= 0.01 * zplus_grid.nx * zplus_grid.ny].tolist())
    assert len(major) == 3
    strip_labels = {zplus_grid.label_at(2j * np.pi * k) for k in (-1, 0, 1)}
    assert strip_labels == major


def test_zplus_strip_escaping_fraction(zplus_grid):
    """>= 95% of cells with |Im z - 2 pi k| < 2 and 0 < Re z < 8 drift-escape."""
    centers = zplus_grid.cell_centers()
    core = np.zeros(centers.shape, bool)
    for k in (-1, 0, 1):
        core |= np.abs(centers.imag - TWO_PI * k) < 2.0
    core &= (centers.real > 0) & (centers.real < 8)
    drift = (zplus_grid.kinds == Kind.ESCAPING) & (zplus_grid.classes != 0)
    assert drift[core].mean() >= 0.95


def test_fatou_plus_baker_domain_is_one_major_label():
    """fatou_plus at 300 x 300 on [-2, 10] x [-3 pi, 3 pi], budget 400: every
    cell with Re z > 1 lies in one major label, the drift class of the
    half-plane Re z > 0, which f maps into itself with Re rising."""
    g = label_components(
        classify_grid(fatou_plus(), (-2.0, 10.0, -THREE_PI, THREE_PI), (300, 300), 400)
    )
    labels, counts = np.unique(g.labels[g.labels > 0], return_counts=True)
    major = labels[counts >= 0.01 * g.nx * g.ny]
    assert major.size == 1
    right = g.cell_centers().real > 1.0
    assert np.all(g.labels[right] == major[0])
    assert np.all(g.classes[right] == CLASS_DRIFT)


def test_label_partition_and_stability(zplus_grid):
    relabeled = label_components(zplus_grid)
    assert np.array_equal(relabeled.labels, zplus_grid.labels)


def test_labeled_cells_are_the_nonzero_classes(exp_grid, zplus_grid, zexp_grid):
    """Every rendered grid labels exactly the cells the kernel gave a class."""
    for g in (exp_grid, zplus_grid, zexp_grid):
        assert np.array_equal(g.labels > 0, g.classes != 0)
        assert (g.labels > 0).any()


def _synthetic_grid(kinds, classes=None):
    """A labeled grid of the given kinds; attracting cells get attractor 0's
    class unless `classes` is given."""
    ny, nx = kinds.shape
    if classes is None:
        classes = np.where(kinds == Kind.ATTRACTING, CLASS_ATTRACTING, 0)
    g = ClassificationGrid(
        window=(0.0, float(nx), 0.0, float(ny)),
        nx=nx, ny=ny,
        kinds=kinds.astype(np.int8),
        labels=np.zeros((ny, nx), np.int32),
        iterations=np.zeros((ny, nx), np.int32),
        classes=np.asarray(classes, dtype=np.int32),
        attractors=((0j, 1),),
        budget=1, escape_radius=50.0,
    )
    return label_components(g)


def test_two_disjoint_strips_get_two_labels():
    kinds = np.zeros((9, 9), int)
    kinds[1:3, :] = Kind.ATTRACTING
    kinds[6:8, :] = Kind.ATTRACTING
    g = _synthetic_grid(kinds)
    labels = set(np.unique(g.labels)) - {0}
    assert len(labels) == 2


def test_uniform_drift_grid_one_label():
    kinds = np.full((6, 6), int(Kind.ESCAPING))
    g = _synthetic_grid(kinds, classes=np.full((6, 6), CLASS_DRIFT))
    assert set(np.unique(g.labels)) == {1}


def test_ambiguous_escape_not_labeled():
    kinds = np.full((6, 6), int(Kind.ESCAPING))
    g = _synthetic_grid(kinds, classes=np.zeros((6, 6)))
    assert set(np.unique(g.labels)) == {0}


def test_labels_follow_class_order():
    """Labels run over attractor j, then parabolic, then drift strips ascending,
    whatever the raster order of the cells."""
    rows = [
        (Kind.ESCAPING, CLASS_DRIFT + 1),
        (Kind.ATTRACTING, CLASS_ATTRACTING + 1),
        (Kind.ESCAPING, CLASS_DRIFT - 1),
        (Kind.PARABOLIC, CLASS_PARABOLIC),
        (Kind.ESCAPING, 0),
        (Kind.ATTRACTING, CLASS_ATTRACTING + 0),
    ]
    kinds = np.zeros((2 * len(rows), 4), int)
    classes = np.zeros_like(kinds)
    for i, (kind, cls) in enumerate(rows):
        kinds[2 * i] = kind
        classes[2 * i] = cls
    g = _synthetic_grid(kinds, classes)
    assert [int(g.labels[2 * i, 0]) for i in range(len(rows))] == [5, 2, 4, 3, 0, 1]
    assert np.array_equal(g.labels > 0, classes != 0)


# ---------------------------------------------------------------------------
# label_by_class and outer_ring against scipy.ndimage
# ---------------------------------------------------------------------------

_CROSS = np.array([[False, True, False], [True, True, True], [False, True, False]])


def _ndimage_label_by_class(classes):
    """Reference: `ndimage.label` of each nonzero class in ascending class order."""
    labels = np.zeros(classes.shape, dtype=np.int32)
    next_label = 1
    for cls in np.unique(classes[classes != 0]):
        mask = classes == cls
        lab, n = ndimage.label(mask, structure=_CROSS)
        labels[mask] = lab[mask] + (next_label - 1)
        next_label += n
    return labels


def _assert_raster_primitives_equal_ndimage(classes):
    assert np.array_equal(label_by_class(classes), _ndimage_label_by_class(classes))
    mask = classes != 0
    assert np.array_equal(outer_ring(mask), ndimage.binary_dilation(mask, _CROSS) & ~mask)


def _spiral(n):
    """A one-cell-wide square spiral path: one component made of many short runs."""
    m = np.zeros((n, n), dtype=bool)
    y = x = 0
    m[0, 0] = True
    lengths = [n - 1] * 3 + [k for k in range(n - 3, 0, -2) for _ in (0, 1)]
    for i, length in enumerate(lengths):
        dy, dx = ((0, 1), (1, 0), (0, -1), (-1, 0))[i % 4]
        for _ in range(length):
            y, x = y + dy, x + dx
            m[y, x] = True
    return m


def _comb(n):
    """Teeth on every other column, joined only along the top row."""
    m = np.zeros((n, n), dtype=bool)
    m[0] = True
    m[:, ::2] = True
    return m


_WORST_CASES = {
    "empty": np.zeros((7, 9), dtype=bool),
    "full": np.ones((7, 9), dtype=bool),
    "1xn": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]], dtype=bool),
    "nx1": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]], dtype=bool).T,
    "comb": _comb(31),
    "comb_transposed": _comb(31).T,
    "spiral": _spiral(31),
    "spiral_even": _spiral(32),
}


@pytest.mark.parametrize("name", sorted(_WORST_CASES))
def test_raster_primitives_equal_ndimage_on_worst_cases(name):
    """The shapes that need the most propagation rounds, one class each."""
    mask = _WORST_CASES[name]
    if name.startswith("spiral"):
        assert ndimage.label(mask, structure=_CROSS)[1] == 1
    _assert_raster_primitives_equal_ndimage(mask.astype(np.int32) * CLASS_PARABOLIC)


class_rasters = hnp.arrays(
    np.int32,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
    elements=st.sampled_from(
        [0, 0, CLASS_ATTRACTING, CLASS_ATTRACTING + 1, CLASS_PARABOLIC, CLASS_DRIFT - 1]
    ),
)


@settings(max_examples=200, deadline=None)
@given(class_rasters)
def test_raster_primitives_equal_ndimage(classes):
    """Per-class labels and the 4-neighbour ring equal scipy.ndimage's."""
    _assert_raster_primitives_equal_ndimage(classes)


# ---------------------------------------------------------------------------
# nearest_other_label
# ---------------------------------------------------------------------------


def _distance(g, z):
    return float(g.nearest_other_label(g.label_at(z), (z.real, z.imag))[0])


def test_distance_in_disk_grid():
    g = disk_grid(resolution=100)
    assert _distance(g, 0j) >= 1.0 - 2 * g.cell_diagonal
    with pytest.raises(OutOfWindow):
        g.label_at(10 + 0j)
    # outside the window is label 0, whose nearest other label is the disk
    d = float(g.nearest_other_label(0, (10.0, 0.0))[0])
    assert 9.0 < d <= 9.0 + g.cell_diagonal


def test_distance_zero_at_boundary_adjacent_center():
    """A cell center 4-adjacent to an other-label cell is within one diagonal of it."""
    g = disk_grid(resolution=100)
    centers = g.cell_centers()
    inside = g.labels > 0
    adjacent = inside & ~np.roll(inside, 1, axis=1)
    adjacent[:, 0] = False
    z = complex(centers[adjacent][0])
    assert _distance(g, z) <= g.cell_diagonal


def test_distance_refinement_under_doubling():
    """Doubling resolution never decreases the lower bound (distance minus one
    cell diagonal, clamped at 0) by more than one new diagonal."""
    rng = np.random.default_rng(5)
    kinds = (rng.uniform(size=(20, 20)) < 0.7).astype(int) * int(Kind.ATTRACTING)
    coarse = _synthetic_grid(np.array(kinds))
    fine = _synthetic_grid(np.repeat(np.repeat(kinds, 2, axis=0), 2, axis=1))
    fine = dataclasses.replace(fine, window=coarse.window, labeled=True)
    for _ in range(40):
        z = complex(rng.uniform(0.5, 19.5), rng.uniform(0.5, 19.5))
        lo_c = max(0.0, _distance(coarse, z) - coarse.cell_diagonal)
        lo_f = max(0.0, _distance(fine, z) - fine.cell_diagonal)
        assert lo_f >= lo_c - fine.cell_diagonal - 1e-12


def _assert_nearest_equals_brute_force(g, points):
    """For every point: the scan's distance is the minimum over every
    other-label cell center, and its index the lowest among the equally near
    candidates; the array path, one array per label, gives the same bits and
    indices. Returns how many points had equally near candidates."""
    centers = g.cell_centers()
    labels = np.array([g.label_at(z) for z in points.tolist()])
    ties = 0
    for label in np.unique(labels).tolist():
        zs = points[labels == label]
        d_arr, i_arr = g.nearest_other_label(label, np.stack((zs.real, zs.imag), -1))
        others = centers[g.labels != label]
        candidates = g.other_label_center(label, np.arange(len(g._other_label_centers(label))))
        for z, da, ia in zip(zs.tolist(), d_arr, i_arr):
            d, i = g.nearest_other_label(label, (z.real, z.imag))
            assert d == np.sqrt((others.real - z.real) ** 2 + (others.imag - z.imag) ** 2).min()
            dx, dy = candidates.real - z.real, candidates.imag - z.imag
            equal = np.flatnonzero(np.sqrt(dx * dx + dy * dy) == d)
            assert i == equal[0]
            ties += len(equal) > 1
            assert (np.float64(da).tobytes(), ia) == (np.float64(d).tobytes(), i)
    return ties


def test_distance_equals_brute_force_over_all_other_label_cells():
    """Only other-label cells next to the label are searched, yet the nearest
    distance equals the minimum over every other-label cell center. One point
    is answered by the scan, an array by the bucket index, with the same bits
    and, among equally near centers, the lowest index. Checked at random
    points and at every cell corner, which takes in points equally near to
    two or more centers, the edges of the 8 x 8-cell buckets and the window's
    corners; also on a window whose cells are not unit squares. A point
    outside the window counts as label 0, and an empty array gets empty
    answers."""
    rng = np.random.default_rng(11)
    kinds = (rng.uniform(size=(30, 40)) < 0.6).astype(int) * int(Kind.ATTRACTING)
    g = _synthetic_grid(np.array(kinds))
    corners = (np.arange(41.0)[None, :] + 1j * np.arange(31.0)[:, None]).ravel()
    random = rng.uniform(0.0, 40.0, 300) + 1j * rng.uniform(0.0, 30.0, 300)
    assert _assert_nearest_equals_brute_force(g, np.concatenate((corners, random))) > 100
    skew = dataclasses.replace(g, window=(-3.7, 2.1, -1.3, 3.3))
    hx, hy = skew.cell_size
    corners = (-3.7 + np.arange(41)[None, :] * hx + 1j * (-1.3 + np.arange(31)[:, None] * hy)).ravel()
    random = rng.uniform(-3.7, 2.1, 300) + 1j * rng.uniform(-1.3, 3.3, 300)
    _assert_nearest_equals_brute_force(skew, np.concatenate((corners[skew.contains(corners)], random)))

    centers = g.cell_centers()
    outside = rng.uniform(-15.0, 55.0, 600) + 1j * rng.uniform(-15.0, 45.0, 600)
    outside = outside[~g.contains(outside)]
    assert outside.size > 300
    d, i = g.nearest_other_label(0, np.stack((outside.real, outside.imag), -1))
    nearest = g.other_label_center(0, i)
    others = centers[g.labels != 0]
    assert d.tolist() == [
        np.sqrt((others.real - z.real) ** 2 + (others.imag - z.imag) ** 2).min() for z in outside
    ]
    assert all(g.label_at(c) > 0 for c in nearest.tolist())
    assert np.allclose(np.abs(nearest - outside), d, rtol=1e-14, atol=0.0)
    d, i = g.nearest_other_label(g.labels.max(), np.empty((0, 2)))
    assert d.shape == i.shape == (0,)


def _all_pairs_lists(g, centers):
    """The bucket lists as the index build first made them, comparing every
    bucket with every center: the reference for the tile-split build."""
    re_min, re_max, im_min, im_max = g.window
    hx, hy = g.cell_size
    k = grid_module._BUCKET_CELLS
    sx, sy = k * hx, k * hy
    nbx, nby = -(-g.nx // k), -(-g.ny // k)
    slack = 1e-12 * max(abs(re_min), abs(re_max), abs(im_min), abs(im_max))

    def axis(c, lo, width):
        below, above = c - lo, lo + width - c
        far = np.maximum(np.abs(below), np.abs(above))
        near = np.maximum(np.maximum(-below, -above), 0.0)
        return far * far, near * near

    far_x, near_x = axis(centers[:, 0], re_min + np.arange(nbx)[:, None] * sx, sx)
    far_y, near_y = axis(centers[:, 1], im_min + np.arange(nby)[:, None] * sy, sy)
    u = np.sqrt((far_x + far_y[:, None]).min(axis=2))
    limit = (1.0 + 1e-9) * u + slack
    near = (near_x + near_y[:, None]).reshape(-1, len(centers))
    bucket, center = np.nonzero(near <= (limit * limit).reshape(-1, 1))
    starts = np.concatenate(([0], np.cumsum(np.bincount(bucket, minlength=nbx * nby))))
    return starts, center


def _assert_lists_equal_all_pairs(g, label):
    centers = g._other_label_centers(label)
    index = grid_module._BucketIndex.build(g, centers)
    starts, items = _all_pairs_lists(g, centers)
    assert index.starts.tolist() == starts.tolist()
    assert index.items.tolist() == items.tolist()
    return len(centers)


@pytest.mark.parametrize("shape, density, window", [
    ((30, 40), 0.6, None),
    ((57, 23), 0.5, None),
    ((97, 130), 0.8, None),
    ((64, 64), 0.3, (-3.7, 2.1, -1.3, 3.3)),
    ((41, 170), 0.7, (10.0, 10.5, -250.0, -180.0)),
    ((30, 40), 0.6, (0.0, 40.0, 0.0, 30.000007575)),
])
def test_tile_split_lists_equal_the_all_pairs_lists(shape, density, window):
    """The tile-split build gives every bucket the list, in the order, that
    comparing every bucket with every center gives: on random rasters with
    several labels, for label 0 with its frame and for each other label,
    with resolutions that 8 does not divide, on non-square cells and on a
    window far from the origin. The last window stretches the first raster's
    cells by 2.525e-7 in height, which puts centers 4.2e-8 inside and 4.2e-8
    and 5e-8 outside a bucket's U (relative): a build that scaled U by
    1 - 1e-7 or by 1 + 1e-7 would list other centers there."""
    rng = np.random.default_rng(shape[0] * shape[1])
    kinds = (rng.uniform(size=shape) < density).astype(int) * int(Kind.ATTRACTING)
    g = _synthetic_grid(kinds)
    if window is not None:
        g = dataclasses.replace(g, window=window, labeled=True)
    labels = np.unique(g.labels).tolist()
    assert 0 in labels and len(labels) > 2
    for label in labels[:6]:
        _assert_lists_equal_all_pairs(g, label)


def test_tile_split_lists_on_the_calibration_disk_and_with_one_center():
    g = disk_grid(resolution=203)
    assert _assert_lists_equal_all_pairs(g, g.label_at(0j)) > 400
    assert _assert_lists_equal_all_pairs(g, 0) > 400
    kinds = np.full((45, 70), int(Kind.ATTRACTING))
    kinds[17, 33] = 0
    g = _synthetic_grid(kinds)
    assert _assert_lists_equal_all_pairs(g, g.label_at(3 + 3j)) == 1


def test_tile_split_build_without_centers_lists_nothing():
    g = _synthetic_grid(np.full((20, 30), int(Kind.ATTRACTING)))
    index = grid_module._BucketIndex.build(g, np.empty((0, 2)))
    assert (index.nbx, index.nby) == (4, 3)
    assert index.starts.tolist() == [0] * 13 and index.items.size == 0


def test_no_other_label_gives_inf_and_minus_one_on_both_paths():
    g = _synthetic_grid(np.full((6, 8), int(Kind.ATTRACTING)))
    label = g.label_at(3 + 3j)
    d, i = g.nearest_other_label(label, (3.0, 3.0))
    assert (float(d), int(i)) == (np.inf, -1)
    d, i = g.nearest_other_label(label, [(3.0, 3.0), (5.5, 1.5)])
    assert d.tolist() == [np.inf, np.inf] and i.tolist() == [-1, -1]


# -- the conjugation fold ------------------------------------------------------

# One window per family, symmetric about the real axis, with a budget that
# decides most cells: strips -1, 0 and 1 of z_plus_exp, and the fatou_minus
# attractors 2 pi i k for |k| <= 2, lie inside.
FOLD_CASES = [
    (exp_lambda(0.25), (-2.0, 4.0, -3.0, 3.0), 300),
    (fatou_plus(), (-2.0, 10.0, -THREE_PI, THREE_PI), 400),
    (fatou_minus(), (-6.0, 14.0, -15.0, 15.0), 300),
    (z_plus_exp(), (-2.0, 10.0, -THREE_PI, THREE_PI), 400),
    (z_exp(), (-2.0, 2.0, -2.0, 2.0), 1500),
]


def _kernel_points(monkeypatch) -> list[int]:
    """The sizes of the point arrays classify_grid hands to the orbit kernel."""
    sizes = []
    kernel = grid_module.classify_orbits_array

    def counted(m, z, *args):
        sizes.append(z.size)
        return kernel(m, z, *args)

    monkeypatch.setattr(grid_module, "classify_orbits_array", counted)
    return sizes


def _assert_kernel_verdicts(g, m, points, budget, attractors):
    res = classify_orbits_array(m, points.ravel(), budget, attractors=attractors)
    for name in ("kinds", "iterations", "classes"):
        assert np.array_equal(getattr(g, name), getattr(res, name).reshape(points.shape)), name


@pytest.mark.parametrize("calls", [1, 3])
@pytest.mark.parametrize("ny", [24, 25])
@pytest.mark.parametrize("m, window, budget", FOLD_CASES, ids=[c[0].family for c in FOLD_CASES])
def test_folded_grid_is_the_kernel_at_its_sample_points(monkeypatch, m, window, budget, ny, calls):
    """On a window symmetric about the real axis, with the auto attractors,
    the kernel runs once per grid, on rows 0 ... ny - ny//2 - 1 only, and
    classifying the grid again gives the same grid. Every cell holds the
    kernel's kinds, iterations and classes at its sample point, bit for bit:
    its center, or conj(center of row k) for the mirrored row ny-1-k."""
    att = default_attractors(m)
    sizes = _kernel_points(monkeypatch)
    grids = [classify_grid(m, window, (30, ny), budget, attractors=att) for _ in range(calls)]
    assert sizes == [30 * (ny - ny // 2)] * calls
    g = grids[0]
    for other in grids[1:]:
        for name in ("kinds", "iterations", "classes"):
            assert np.array_equal(getattr(other, name), getattr(g, name)), name
    points = g.cell_centers()
    points[ny - ny // 2:] = np.conj(points[:ny // 2][::-1])
    _assert_kernel_verdicts(g, m, points, budget, att)
    assert (g.classes != 0).any()


@pytest.mark.parametrize("m, window, resolution, budget", [
    (z_exp(), (-2.0, 2.0, -2.0, 2.0), (150, 150), 1500),
    (z_plus_exp(), (-2.0, 10.0, -THREE_PI, THREE_PI), (300, 300), 400),
    (fatou_plus(), (-2.0, 10.0, -THREE_PI, THREE_PI), (300, 300), 400),
    (fatou_minus(), (-6.0, 14.0, -15.0, 15.0), (100, 151), 300),
    (exp_lambda(0.25), (-10.0, 4.0, -THREE_PI, THREE_PI), (175, 235), 300),
    (exp_lambda(0.25), (-2.0, 4.0, -3.0, 3.0), (250, 250), 300),
], ids=["z_exp", "z_plus_exp", "fatou_plus", "fatou_minus", "exp_lambda-measure", "exp_lambda-fine"])
def test_folded_grids_equal_the_kernel_at_the_cell_centers(m, window, resolution, budget):
    """The benchmark's grids (z_plus_exp at full size, the others at reduced
    size): mirrored rows sample conj(center of row k), within 2 ulps of the
    cell centers, and no cell's verdict moves from the unfolded kernel's at
    cell_centers()."""
    att = default_attractors(m)
    g = classify_grid(m, window, resolution, budget, attractors=att)
    _assert_kernel_verdicts(g, m, g.cell_centers(), budget, att)


@pytest.mark.parametrize("m, moved", [(z_plus_exp(), 63), (fatou_plus(), 3)], ids=["z_plus_exp", "fatou_plus"])
def test_fold_moves_only_cells_centered_on_a_strip_edge(m, moved):
    """At 150 rows on [-3 pi, 3 pi], rows 87, 112 and 137 are centered on
    y = pi/2, 3 pi/2 and 5 pi/2 in exact arithmetic, where cos y, and with
    it a drift rise from the first step, changes sign. Their computed
    centers lie about 1e-15 above those edges, within 2 ulps of 3 pi, and
    the mirror images of rows 62, 37 and 12 lie about 1e-15 below, so the
    two sample points of a cell can get different verdict steps. The
    folded grid gives both rows of each pair the verdicts of the lower one;
    the unfolded kernel gave the grid no such symmetry."""
    g = classify_grid(m, (-2.0, 10.0, -THREE_PI, THREE_PI), (150, 150), 400)
    centers = g.cell_centers()
    res = classify_orbits_array(m, centers.ravel(), 400)
    kinds, iterations = res.kinds.reshape(centers.shape), res.iterations.reshape(centers.shape)
    moved_cells = (g.kinds != kinds) | (g.iterations != iterations)
    assert moved_cells.sum() == moved
    assert np.flatnonzero(moved_cells.any(axis=1)).tolist() == [87, 112, 137]
    assert np.array_equal(g.kinds, g.kinds[::-1]) and np.array_equal(g.iterations, g.iterations[::-1])
    assert not np.array_equal(iterations, iterations[::-1])


@pytest.mark.parametrize("m, window, attractors", [
    (z_plus_exp(), (-2.0, 10.0, -THREE_PI, 2.0 * np.pi), ()),
    (fatou_minus(), (-6.0, 14.0, -15.0, 15.0), ((complex(0.0, 2.0 * np.pi), 1),)),
    (exp_lambda(0.25), (-2.0, 4.0, -3.0, 3.0), ((0.3574 + 0.001j, 1), (0.3574 - 0.001j, 1))),
], ids=["asymmetric window", "attractors not closed under conjugation", "overlapping conjugate disks"])
def test_grids_without_the_symmetry_classify_every_row(monkeypatch, m, window, attractors):
    """No fold on a window asymmetric about the real axis, nor when conj p of
    a listed attractor p is missing, nor when p and conj p have overlapping
    capture disks (a point in both is captured by p, and so is its
    conjugate): every cell is the kernel at its center."""
    sizes = _kernel_points(monkeypatch)
    g = classify_grid(m, window, (40, 31), 300, attractors=attractors)
    assert sum(sizes) == 40 * 31
    _assert_kernel_verdicts(g, m, g.cell_centers(), 300, attractors)
    assert (g.classes != 0).any()


def _mirror_gap_ulps(window, resolution) -> float:
    """The largest gap, in ulps of im_max, between a mirrored row's sample
    point conj(center of row k) and the center of row ny-1-k."""
    g = classify_grid(exp_lambda(0.25), window, resolution, 1)
    centers, h = g.cell_centers(), g.ny // 2
    mirrored, own = np.conj(centers[:h][::-1]), centers[g.ny - h:]
    assert np.array_equal(mirrored.real, own.real)
    assert np.array_equal(g.cell_centers(h), centers[:h])
    return float(np.abs(mirrored.imag - own.imag).max() / np.spacing(window[3]))


@pytest.mark.parametrize("window, resolution", [
    ((-2.0, 2.0, -2.0, 2.0), (300, 300)),
    ((-2.0, 10.0, -THREE_PI, THREE_PI), (300, 300)),
    ((-2.0, 4.0, -3.0, 3.0), (1000, 1000)),
    ((-10.0, 4.0, -THREE_PI, THREE_PI), (350, 470)),
    ((-2.0, 4.0, -3.0, 3.0), (200, 200)),
], ids=["basins-deep z_exp", "basins-deep z_plus_exp", "basins-fine", "harmonic-measure",
        "boundary-tools"])
def test_benchmark_grids_sample_within_two_ulps_of_the_centers(window, resolution):
    assert _mirror_gap_ulps(window, resolution) <= 2.0


def test_mirrored_sample_points_lie_within_four_ulps_of_the_centers():
    """With a = im_max and h the rounded 2a/ny, the centers of rows k and
    ny-1-k sum to n h - 2a (under 2 ulps of a) plus the roundings of
    (k + 1/2) h, of (ny - k - 1/2) h and of -a + (k + 1/2) h (at most
    1/2, 1 and 1/2 ulp); -a + (ny - k - 1/2) h is exact by Sterbenz's
    lemma. So the gap is under 4 ulps of im_max; random windows reach 3."""
    rng = np.random.default_rng(11)
    gaps = [
        _mirror_gap_ulps((-1.0, 1.0, -a, a), (2, int(ny)))
        for a, ny in zip(np.exp(rng.uniform(-8.0, 8.0, 400)), rng.integers(2, 3000, 400))
    ]
    assert max(gaps) < 4.0
