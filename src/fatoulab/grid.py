"""Grid rendering of Fatou components: classification, labeling, distances.

Cells are classified at their centers, labeled by 4-connectivity within
the label class the orbit kernel assigns, and queried for exact distances to
the nearest cell of another label. Label 0 always means "Julia / undecided /
ambiguous escape"; only cells of a nonzero class (attracting, parabolic,
drift-certified Baker escape) are labeled.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .catalog import EntireMap
from .errors import OutOfWindow
from .orbits import DEFAULT_ESCAPE_RADIUS, DEFAULT_TOL, classify_orbits_array
from .raster import label_by_class, outer_ring

if TYPE_CHECKING:
    from scipy.spatial import cKDTree


@dataclass
class ClassificationGrid:
    """Rectangular raster of orbit verdicts with component labels.

    Arrays are indexed [iy, ix] with iy increasing along +Im and ix along +Re.
    Frozen by convention after construction; all reads are thread-safe.
    """

    window: tuple[float, float, float, float]  # re_min, re_max, im_min, im_max
    nx: int
    ny: int
    kinds: np.ndarray        # int8 Kind per cell
    labels: np.ndarray       # int32 component ids, 0 = Julia/undecided
    iterations: np.ndarray   # int32
    classes: np.ndarray      # int32 label class from the orbit kernel, 0 = not Fatou evidence
    attractors: tuple[tuple[complex, int], ...]
    budget: int
    escape_radius: float
    tol: float
    labeled: bool = False
    # Per-label caches of the distance layer. Not init fields, so every
    # dataclasses.replace starts them empty.
    _centers: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    _trees: dict[int, cKDTree] = field(default_factory=dict, init=False, repr=False)

    # -- geometry ----------------------------------------------------------

    @property
    def cell_size(self) -> tuple[float, float]:
        re_min, re_max, im_min, im_max = self.window
        return (re_max - re_min) / self.nx, (im_max - im_min) / self.ny

    @property
    def cell_diagonal(self) -> float:
        hx, hy = self.cell_size
        return float(np.hypot(hx, hy))

    def cell_centers(self) -> np.ndarray:
        re_min, _, im_min, _ = self.window
        hx, hy = self.cell_size
        xs = re_min + (np.arange(self.nx) + 0.5) * hx
        ys = im_min + (np.arange(self.ny) + 0.5) * hy
        return xs[None, :] + 1j * ys[:, None]

    def contains(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        re_min, re_max, im_min, im_max = self.window
        return (
            (z.real >= re_min) & (z.real <= re_max)
            & (z.imag >= im_min) & (z.imag <= im_max)
        )

    def cell_of(self, z: complex) -> tuple[int, int]:
        if not bool(self.contains(z)):
            raise OutOfWindow(f"{z} outside window {self.window}")
        re_min, _, im_min, _ = self.window
        hx, hy = self.cell_size
        ix = min(int((z.real - re_min) / hx), self.nx - 1)
        iy = min(int((z.imag - im_min) / hy), self.ny - 1)
        return ix, iy

    def label_at(self, z: complex) -> int:
        ix, iy = self.cell_of(z)
        return int(self.labels[iy, ix])

    # -- distance queries ----------------------------------------------------

    def nearest_other_label(self, label: int, xy) -> tuple[np.ndarray, np.ndarray]:
        """Distances from the points `xy` (real coordinates along a last axis
        of length 2) to the nearest center of a cell not labelled `label`, and
        the indices of those centers for `other_label_center` (inf and -1 when
        no cell carries another label).

        Exact for points whose cell carries `label`; a point outside the
        window counts as label 0. One point (`xy` of shape (2,)) is answered
        by a numpy scan of the candidate centers, so it loads no SciPy; an
        array of points by a KD-tree built once per label. Both paths give
        sqrt(dx*dx + dy*dy), the same bits. Among equally near centers the
        scan returns the lowest index, the tree any one of them.
        """
        xy = np.asarray(xy, dtype=float)
        centers = self._other_label_centers(label)
        if not len(centers):
            return np.full(xy.shape[:-1], np.inf), np.full(xy.shape[:-1], -1)
        if xy.shape == (2,):
            dx, dy = centers[:, 0] - xy[0], centers[:, 1] - xy[1]
            d2 = dx * dx + dy * dy
            i = np.argmin(d2)  # the first of equal minima
            return np.sqrt(d2[i]), i
        return self._other_label_tree(label).query(xy)

    def other_label_center(self, label: int, index) -> np.ndarray:
        """The centers, as complex numbers, that `nearest_other_label(label, ...)`
        returned as `index` (with finite distance)."""
        c = self._other_label_centers(label)[index]
        return c[..., 0] + 1j * c[..., 1]

    def _other_label_centers(self, label: int) -> np.ndarray:
        """(x, y) rows of the other-label cell centers that are 4-adjacent to `label`.

        For a point outside every other-label cell, the nearest other-label
        center has a 4-neighbour closer to the point, which is then not
        other-label; so these centers give the same nearest distance as all
        other-label centers, from a much smaller set. The raster is padded
        with label 0, so for label 0 the labelled frame cells join the set
        and points outside the window get exact distances too.
        """
        if label not in self._centers:
            own = np.pad(self.labels == label, 1, constant_values=label == 0)
            pts = self.cell_centers()[outer_ring(own)[1:-1, 1:-1]]
            self._centers[label] = np.column_stack([pts.real, pts.imag])
        return self._centers[label]

    def _other_label_tree(self, label: int) -> cKDTree:
        """KD-tree over the nonempty `_other_label_centers(label)`."""
        if label not in self._trees:
            from scipy.spatial import cKDTree

            self._trees[label] = cKDTree(self._other_label_centers(label))
        return self._trees[label]


def classify_grid(
    m: EntireMap,
    window: tuple[float, float, float, float],
    resolution: tuple[int, int],
    budget: int,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
    attractors: tuple[tuple[complex, int], ...] = (),
    tol: float = DEFAULT_TOL,
    threads: int = 1,
) -> ClassificationGrid:
    """The orbit kernel at every cell center; deterministic for any thread count."""
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution components must be >= 2")
    grid = ClassificationGrid(
        window=tuple(float(v) for v in window),
        nx=nx,
        ny=ny,
        kinds=np.zeros((ny, nx), dtype=np.int8),
        labels=np.zeros((ny, nx), dtype=np.int32),
        iterations=np.zeros((ny, nx), dtype=np.int32),
        classes=np.zeros((ny, nx), dtype=np.int32),
        attractors=tuple((complex(p), int(q)) for p, q in attractors),
        budget=budget,
        escape_radius=float(escape_radius),
        tol=float(tol),
    )
    centers = grid.cell_centers()

    def work(row_range):
        lo, hi = row_range
        res = classify_orbits_array(
            m, centers[lo:hi].ravel(), budget, escape_radius, grid.attractors, tol
        )
        shape = (hi - lo, nx)
        grid.kinds[lo:hi] = res.kinds.reshape(shape)
        grid.iterations[lo:hi] = res.iterations.reshape(shape)
        grid.classes[lo:hi] = res.classes.reshape(shape)

    if threads > 1:
        chunk = max(1, ny // (threads * 4))
        ranges = [(i, min(i + chunk, ny)) for i in range(0, ny, chunk)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, ranges))
    else:
        work((0, ny))
    return grid


def label_components(grid: ClassificationGrid) -> ClassificationGrid:
    """4-connectivity flood labeling within each nonzero label class; stable across runs."""
    labels = label_by_class(grid.classes)
    return dataclasses.replace(grid, labels=labels, labeled=True)
