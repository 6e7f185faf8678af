"""Grid rendering of Fatou components: classification, labeling, distances.

Cells are classified at their centers (on a window symmetric about the real
axis, half of them at the conjugates of their mirror cells' centers),
labeled by 4-connectivity within the label class the orbit kernel assigns,
and queried for exact distances to the nearest cell of another label: one
point by a scan of the candidate centers, an array of points by a bucket
index (`_BucketIndex`) that a coarse-to-fine split of tiles builds once per
label.
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
    attractor_conjugation,
    classify_orbits_array,
    conjugate_classes,
)
from .raster import label_by_class, outer_ring

# Raster cells along each side of a bucket of the distance index.
_BUCKET_CELLS = 8
# Each level of the index build splits a tile into _SPLIT x _SPLIT tiles.
_SPLIT = 4


@dataclass
class ClassificationGrid:
    """Rectangular raster of orbit verdicts with component labels.

    Arrays are indexed [iy, ix] with iy increasing along +Im and ix along +Re.
    Frozen by convention after construction. Reads fill the per-label caches
    `_centers` and `_indexes` on first use, so a grid is not for sharing
    between threads; the orbit kernel's helper threads never touch one.
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
        pts = np.ascontiguousarray(xy.reshape(-1, 2))
        x, y = pts[:, 0], pts[:, 1]
        re_min, re_max, im_min, im_max = self.window
        inside = (x >= re_min) & (x <= re_max) & (y >= im_min) & (y <= im_max)
        index = self._other_label_index(label)
        cz = centers.view(complex)[:, 0]
        if inside.all():
            d, i = index.query(cz, pts.view(complex)[:, 0])
            return d.reshape(xy.shape[:-1]), i.reshape(xy.shape[:-1])
        d = np.empty(len(pts))
        i = np.empty(len(pts), dtype=np.intp)
        if inside.any():
            d[inside], i[inside] = index.query(cz, pts[inside].view(complex)[:, 0])
        for k in np.flatnonzero(~inside):
            d[k], i[k] = _scan(centers, pts[k])
        return d.reshape(xy.shape[:-1]), i.reshape(xy.shape[:-1])

    def other_label_center(self, label: int, index) -> np.ndarray:
        """The centers, as complex numbers, that `nearest_other_label(label, ...)`
        returned as `index` (with finite distance)."""
        return self._other_label_centers(label).view(complex)[:, 0][index]

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
            # C-ordered (x, y) rows, so that .view(complex) reads them as points.
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


def _axis_distances(c: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances from the coordinates `c` to the farthest and to the
    nearest point of the intervals [lo, hi], elementwise.

    With below = c - lo and above = hi - c, these are max(|below|, |above|)**2
    and max(-below, -above, 0)**2, bit for bit: under = lo - c and
    over = c - hi are -below and -above exactly, and the one of them that is
    positive, if any, is the smaller in magnitude, since hi - lo > 0.
    """
    under, over = lo - c, c - hi
    far = np.minimum(under, over)
    far *= far
    near = np.maximum(under, over, out=under)
    np.maximum(near, 0.0, out=near)
    near *= near
    return far, near


@dataclass(frozen=True)
class _BucketIndex:
    """Candidate lists of nearest centers over a grid of k x k cell buckets.

    For a bucket rectangle R, let U be the least distance from any center to
    R's farthest corner: every point of R has a center within U. The list of
    R holds, in ascending index order, every center within U of R (with a
    small margin for rounding), so it holds the nearest center of every point
    of R. Buckets extend past the window's upper edges when k does not divide
    the resolution; only points inside the window may be queried.

    The build searches only the centers a bucket can reach. It starts from
    one tile over the whole bucket grid, listing every center, and splits
    each tile into _SPLIT x _SPLIT tiles until the tiles are the buckets. A
    tile T lists the centers of its parent's list that lie within U of T,
    where U is T's own least farthest-corner distance over that list, with a
    margin (relative 1e-6, absolute 1e-9 of the window's extent) far wider
    than the rounding. A bucket R inside T has the smaller U and lies inside
    T, so every center its list needs, and the center that sets its U, are
    in T's list. The work of a split is (children) x (parent's list), so the
    build takes time and memory bounded by a few times the lists' length,
    where comparing every bucket with every center grows as their product.
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
        if not len(centers):
            return cls((re_min, im_min), (sx, sy), nbx, nby,
                       np.zeros(nbx * nby + 1, dtype=np.intp), np.empty(0, dtype=np.intp))
        extent = max(abs(re_min), abs(re_max), abs(im_min), abs(im_max))
        # Tile sides in buckets, from the buckets up to one tile over the grid.
        sides = [1, _SPLIT]
        while sides[-1] < max(nbx, nby):
            sides.append(sides[-1] * _SPLIT)
        starts, items = np.array([0, len(centers)]), np.arange(len(centers))
        cx, cy = centers[:, 0].copy(), centers[:, 1].copy()
        for side in reversed(sides[:-1]):
            # The buckets take the exact rule; their absolute slack covers a
            # point that rounding puts in a bucket it misses by a few ulps.
            margin = (1e-9, 1e-12 * extent) if side == 1 else (1e-6, 1e-9 * extent)
            starts, items = _split_tiles(
                starts, items, cx, cy, (re_min, im_min), (side * sx, side * sy),
                (-(-nbx // side), -(-nby // side)), margin,
            )
        return cls((re_min, im_min), (sx, sy), nbx, nby, starts, items)

    def query(self, cz: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances and indices of the nearest of the centers `cz` for the
        points `z` inside the window, both complex, as the scan computes and
        breaks ties."""
        bx = np.minimum(((z.real - self.origin[0]) / self.size[0]).astype(np.intp), self.nbx - 1)
        by = np.minimum(((z.imag - self.origin[1]) / self.size[1]).astype(np.intp), self.nby - 1)
        b = by * self.nbx + bx
        first, lens = self.starts[b], self.starts[b + 1] - self.starts[b]
        # Point j's candidates fill flat[offsets[j]:offsets[j] + lens[j]].
        offsets = np.cumsum(lens) - lens
        flat = self.items[np.arange(lens.sum()) + np.repeat(first - offsets, lens)]
        # Complex subtraction is the two float subtractions of the scan.
        diff = cz[flat] - np.repeat(z, lens)
        dx, dy = diff.real, diff.imag
        d2 = dx * dx + dy * dy
        least = np.minimum.reduceat(d2, offsets)
        # Lists ascend by index, so a point's first minimum has the lowest index.
        hits = np.flatnonzero(d2 == np.repeat(least, lens))
        return np.sqrt(least), flat[hits[np.searchsorted(hits, offsets)]]


def _split_tiles(pstarts, pitems, cx, cy, origin, size, shape, margin):
    """The lists of the tiles of `size` on a grid of `shape` (columns, rows)
    from `origin`, from the lists pitems[pstarts[p]:pstarts[p + 1]] of the
    tiles _SPLIT times larger; a list keeps the candidates within
    (1 + margin[0]) U + margin[1] of its tile, in their order."""
    f, (w, h), (ncx, ncy) = _SPLIT, size, shape
    npx, npy = -(-ncx // f), -(-ncy // f)
    plens = np.diff(pstarts)
    lo_x = origin[0] + np.arange(ncx) * w
    lo_y = origin[1] + np.arange(ncy) * h
    # Row dx of the (f, npx) tables: child column f*px + dx of parent column px.
    col = f * np.arange(npx) + np.arange(f)[:, None]
    lox = lo_x[np.minimum(col, ncx - 1)]
    hix = lox + w
    on_grid = (col < ncx).T.ravel()  # the last parent column may overhang the grid
    counts, items = [], []
    for py in range(npy):
        p0, p1 = py * npx, (py + 1) * npx
        e0, lens = pstarts[p0], plens[p0:p1]
        n = pstarts[p1] - e0
        offs = pstarts[p0:p1] - e0
        pl = pitems[e0:e0 + n]
        far_x, near_x = _axis_distances(cx[pl], np.repeat(lox, lens, 1), np.repeat(hix, lens, 1))
        near_x[ncx - f * (npx - 1):, n - lens[-1]:] = np.inf  # off-grid children keep nothing
        # The (dx, parent, item) flat order -> the row's (parent, dx, item) order.
        seg = np.repeat(lens, f)
        order = np.arange(f * n) + np.repeat(
            (np.arange(f)[:, None] * n + offs).T.ravel() - (np.cumsum(seg) - seg), seg
        )
        row_items = np.tile(pl, f)[order]
        y = cy[pl]
        for row in range(f * py, min(f * py + f, ncy)):
            far_y, near_y = _axis_distances(y, lo_y[row], lo_y[row] + h)
            u = np.sqrt(np.minimum.reduceat(far_x + far_y, offs, axis=1))
            limit = (1.0 + margin[0]) * u + margin[1]
            keep = near_x + near_y <= np.repeat(limit * limit, lens, 1)
            kept = np.add.reduceat(keep.view(np.uint8), offs, axis=1, dtype=np.intp)
            counts.append(kept.T.ravel()[on_grid])
            items.append(row_items[keep.ravel()[order]])
    return np.concatenate(([0], np.cumsum(np.concatenate(counts)))), np.concatenate(items)


def classify_grid(
    m: EntireMap,
    window: tuple[float, float, float, float],
    resolution: tuple[int, int],
    budget: int,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
    attractors: tuple[tuple[complex, int], ...] = (),
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
    )
    _, _, im_min, im_max = grid.window
    sigma = attractor_conjugation(grid.attractors) if im_min == -im_max else None
    # Rows 0 ... mirrored - 1 are mirrored onto rows ny - 1 ... ny - mirrored.
    mirrored = 0 if sigma is None else ny // 2
    rows = ny - mirrored
    res = classify_orbits_array(
        m, grid.cell_centers(rows).ravel(), budget, escape_radius, grid.attractors
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
