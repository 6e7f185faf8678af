"""Grid rendering of Fatou components: classification, labeling, distances.

Cells are classified at their centers (on a window symmetric about the real
axis, half of them at the conjugates of their mirror cells' centers),
labeled by 4-connectivity within the label class the orbit kernel assigns,
and queried for exact distances to the nearest cell of another label.
Label 0 always means "Julia / undecided / ambiguous escape"; only cells of a
nonzero class (attracting, parabolic, drift-certified Baker escape) are
labeled.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .catalog import EntireMap
from .errors import OutOfWindow
from .orbits import (
    DEFAULT_ESCAPE_RADIUS,
    DEFAULT_TOL,
    attractor_conjugation,
    classify_orbits_array,
    conjugate_classes,
)
from .raster import label_by_class, outer_ring

# Raster cells along each side of a bucket of the distance index.
_BUCKET_CELLS = 8
# Centers the index build compares at once, (buckets in a chunk) x (centers).
_BUILD_CHUNK = 2**18


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
    _indexes: dict[int, _BucketIndex] = field(default_factory=dict, init=False, repr=False)

    # -- geometry ----------------------------------------------------------

    @property
    def cell_size(self) -> tuple[float, float]:
        re_min, re_max, im_min, im_max = self.window
        return (re_max - re_min) / self.nx, (im_max - im_min) / self.ny

    @property
    def cell_diagonal(self) -> float:
        hx, hy = self.cell_size
        return float(np.hypot(hx, hy))

    def cell_centers(self, rows: int | None = None) -> np.ndarray:
        """Centers of the rows 0 ... rows - 1, all rows by default."""
        re_min, _, im_min, _ = self.window
        hx, hy = self.cell_size
        xs = re_min + (np.arange(self.nx) + 0.5) * hx
        ys = im_min + (np.arange(self.ny if rows is None else rows) + 0.5) * hy
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
        window counts as label 0. Every answer is sqrt(dx*dx + dy*dy) of the
        nearest center, and among equally near centers the one of lowest
        index. One point (`xy` of shape (2,)) is answered by a numpy scan of
        the candidate centers; an array of points by a bucket index built
        once per label, and its points outside the window by the scan.
        """
        xy = np.asarray(xy, dtype=float)
        centers = self._other_label_centers(label)
        if not len(centers):
            return np.full(xy.shape[:-1], np.inf), np.full(xy.shape[:-1], -1)
        if xy.shape == (2,):
            return _scan(centers, xy)
        pts = xy.reshape(-1, 2)
        inside = self.contains(pts[:, 0] + 1j * pts[:, 1])
        d = np.empty(len(pts))
        i = np.empty(len(pts), dtype=np.intp)
        if inside.any():
            d[inside], i[inside] = self._other_label_index(label).query(centers, pts[inside])
        for k in np.flatnonzero(~inside):
            d[k], i[k] = _scan(centers, pts[k])
        return d.reshape(xy.shape[:-1]), i.reshape(xy.shape[:-1])

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

    def _other_label_index(self, label: int) -> _BucketIndex:
        """Bucket index over the nonempty `_other_label_centers(label)`."""
        if label not in self._indexes:
            self._indexes[label] = _BucketIndex.build(self, self._other_label_centers(label))
        return self._indexes[label]


def _scan(centers: np.ndarray, xy: np.ndarray) -> tuple[np.floating, np.intp]:
    """Distance from the point `xy` to the nearest of `centers`, and its index."""
    dx, dy = centers[:, 0] - xy[0], centers[:, 1] - xy[1]
    d2 = dx * dx + dy * dy
    i = np.argmin(d2)  # the first of equal minima
    return np.sqrt(d2[i]), i


def _axis_distances(c: np.ndarray, lo: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances from the coordinates `c` to the farthest and to the
    nearest point of each interval [lo, lo + width], one row per interval."""
    below, above = c - lo, lo + width - c
    far = np.maximum(np.abs(below), np.abs(above))
    near = np.maximum(np.maximum(-below, -above), 0.0)
    return far * far, near * near


@dataclass(frozen=True)
class _BucketIndex:
    """Candidate lists of nearest centers over a grid of k x k cell buckets.

    For a bucket rectangle R, let U be the least distance from any center to
    R's farthest corner: every point of R has a center within U. The list of
    R holds, in ascending index order, every center within U of R (with a
    small margin for rounding), so it holds the nearest center of every point
    of R. Buckets extend past the window's upper edges when k does not divide
    the resolution; only points inside the window may be queried.
    """

    origin: tuple[float, float]
    size: tuple[float, float]
    nbx: int
    nby: int
    starts: np.ndarray  # bucket b lists items[starts[b]:starts[b + 1]]
    items: np.ndarray

    @classmethod
    def build(cls, grid: ClassificationGrid, centers: np.ndarray) -> _BucketIndex:
        re_min, re_max, im_min, im_max = grid.window
        hx, hy = grid.cell_size
        sx, sy = _BUCKET_CELLS * hx, _BUCKET_CELLS * hy
        nbx, nby = -(-grid.nx // _BUCKET_CELLS), -(-grid.ny // _BUCKET_CELLS)
        # Absolute slack for a point that rounding puts in a bucket it misses
        # by a few ulps of its coordinates.
        slack = 1e-12 * max(abs(re_min), abs(re_max), abs(im_min), abs(im_max))
        # Squared farthest and nearest distances along each axis from every
        # center to every bucket column and bucket row; a bucket's squared
        # distances are the sums of its column's and its row's.
        far_x, near_x = _axis_distances(centers[:, 0], re_min + np.arange(nbx)[:, None] * sx, sx)
        far_y, near_y = _axis_distances(centers[:, 1], im_min + np.arange(nby)[:, None] * sy, sy)
        counts, items = [], []
        step = max(1, _BUILD_CHUNK // (nbx * len(centers)))
        for lo in range(0, nby, step):
            rows = slice(lo, min(lo + step, nby))
            u = np.sqrt((far_x + far_y[rows, None]).min(axis=2))
            limit = (1.0 + 1e-9) * u + slack
            near = (near_x + near_y[rows, None]).reshape(-1, len(centers))
            bucket, center = np.nonzero(near <= (limit * limit).reshape(-1, 1))
            counts.append(np.bincount(bucket, minlength=near.shape[0]))
            items.append(center)
        starts = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
        return cls((re_min, im_min), (sx, sy), nbx, nby, starts, np.concatenate(items))

    def query(self, centers: np.ndarray, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances and indices of the nearest of `centers` for (n, 2) points
        `xy` inside the window, as the scan computes and breaks ties."""
        bx = np.minimum(((xy[:, 0] - self.origin[0]) / self.size[0]).astype(np.intp), self.nbx - 1)
        by = np.minimum(((xy[:, 1] - self.origin[1]) / self.size[1]).astype(np.intp), self.nby - 1)
        b = by * self.nbx + bx
        first, lens = self.starts[b], self.starts[b + 1] - self.starts[b]
        # Point j's candidates fill flat[offsets[j]:offsets[j] + lens[j]].
        offsets = np.cumsum(lens) - lens
        flat = self.items[np.arange(lens.sum()) + np.repeat(first - offsets, lens)]
        dx = centers[flat, 0] - np.repeat(xy[:, 0], lens)
        dy = centers[flat, 1] - np.repeat(xy[:, 1], lens)
        d2 = dx * dx + dy * dy
        least = np.minimum.reduceat(d2, offsets)
        # Lists ascend by index, so a point's first minimum has the lowest index.
        hits = np.flatnonzero(d2 == np.repeat(least, lens))
        return np.sqrt(least), flat[hits[np.searchsorted(hits, offsets)]]


def classify_grid(
    m: EntireMap,
    window: tuple[float, float, float, float],
    resolution: tuple[int, int],
    budget: int,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
    attractors: tuple[tuple[complex, int], ...] = (),
    tol: float = DEFAULT_TOL,
) -> ClassificationGrid:
    """The orbit kernel at every cell, in one `classify_orbits_array` call.

    On a window symmetric about the real axis (im_min == -im_max) whose
    attractor list is closed under conjugation (`attractor_conjugation`),
    the kernel runs on rows 0 ... ny - ny//2 - 1 only. Each row ny-1-k then
    takes row k's kinds and iterations and its conjugate classes
    (`conjugate_classes`): every catalog map has real coefficients, so these
    are the kernel's verdicts at conj(center of row k), bit for bit. That
    sample point lies less than 4 ulps of im_max from `cell_centers()`'
    value for row ny-1-k, so a cell whose center lies that close to where a
    verdict changes can get the verdict of its mirror cell. Any other window
    or list classifies every row.
    """
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
    _, _, im_min, im_max = grid.window
    sigma = attractor_conjugation(grid.attractors, grid.tol) if im_min == -im_max else None
    # Rows 0 ... mirrored - 1 are mirrored onto rows ny - 1 ... ny - mirrored.
    mirrored = 0 if sigma is None else ny // 2
    rows = ny - mirrored
    res = classify_orbits_array(
        m, grid.cell_centers(rows).ravel(), budget, escape_radius, grid.attractors, tol
    )
    grid.kinds[:rows] = res.kinds.reshape(rows, nx)
    grid.iterations[:rows] = res.iterations.reshape(rows, nx)
    grid.classes[:rows] = res.classes.reshape(rows, nx)
    if mirrored:
        grid.kinds[rows:] = grid.kinds[mirrored - 1::-1]
        grid.iterations[rows:] = grid.iterations[mirrored - 1::-1]
        conjugate_classes(res, sigma)
        grid.classes[rows:] = res.classes.reshape(rows, nx)[mirrored - 1::-1]
    return grid


def label_components(grid: ClassificationGrid) -> ClassificationGrid:
    """4-connectivity flood labeling within each nonzero label class; stable across runs."""
    labels = label_by_class(grid.classes)
    return dataclasses.replace(grid, labels=labels, labeled=True)
