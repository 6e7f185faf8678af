"""Walk-on-spheres sampling of harmonic measure on the raster boundary.

Walks step by the conservative lower distance estimate, so they can never
jump across Julia filaments; the reported numbers are budgeted estimates on
the raster approximation of the boundary, at smoothing scale walk_eps.
Walkers advance in lockstep, one KD-tree query per step for a whole block.
Each walker draws from its own counter-based Philox stream keyed by (seed,
sample_index), so every hit is independent of the block size and of the
order in which walkers are processed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from scipy import stats

from .catalog import EntireMap
from .errors import LeftWindow, NotFatouClassified, TooManyWindowExits
from .grid import ClassificationGrid, label_components
from .orbits import CLASS_ATTRACTING, Kind, classify_orbits_array

TWO_PI = 2.0 * math.pi
_MAX_WALK_STEPS = 100_000
_BLOCK = 1024  # walkers advanced together; bounds the per-block arrays
# Uniforms a walker takes from its stream per refill. A multiple of 4, since
# one Philox4x64 counter block yields four doubles: a refill then starts on a
# fresh counter block and can be addressed by (key, counter) alone.
_DRAW_CHUNK = 32


def _sample_rng(seed: int, sample_index: int) -> np.random.Generator:
    key = np.array([seed, sample_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _keyed_chunks(seed: int) -> Callable[[int, int], np.ndarray]:
    """draw(i, r): the r-th chunk of _DRAW_CHUNK uniforms of stream _sample_rng(seed, i).

    Philox is counter-based, so one generator re-keyed per chunk reproduces
    every stream without keeping a generator per walker.
    """
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    blocks_per_chunk = _DRAW_CHUNK // 4

    def draw(i: int, r: int) -> np.ndarray:
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array([r * blocks_per_chunk, 0, 0, 0], dtype=np.uint64),
                "key": np.array([seed, i], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen.uniform(size=_DRAW_CHUNK)

    return draw


def _walk_lockstep(
    grid: ClassificationGrid,
    basepoint: complex,
    walk_eps: float,
    n: int,
    draw: Callable[[int, int], np.ndarray],
    max_steps: int,
) -> np.ndarray:
    """Walk-on-spheres from `basepoint` for walkers 0..n-1, in lockstep.

    Each step queries the KD-tree once for all live walkers. A walker whose
    lower distance estimate drops below walk_eps records the nearest
    boundary-raster cell center; otherwise it jumps to a uniform point on the
    circle of radius lower (capped at a quarter of the window diagonal). A
    walker that leaves the window or exceeds max_steps records NaN. Walker j
    takes one uniform per jump from its own stream, refilled in chunks by
    draw(j, r) for r = 0, 1, ..., so its hit does not depend on the others.
    """
    hx, hy = grid.cell_size
    if walk_eps < 2.0 * max(hx, hy) - 1e-12:
        raise ValueError("walk_eps must be at least two grid cells")
    label = grid.label_at(basepoint)
    if label == 0:
        raise NotFatouClassified(f"basepoint {basepoint} is not Fatou-classified")
    hits = np.full(n, complex(math.nan, math.nan))
    if math.isinf(grid.nearest_other_label(label, basepoint)[0]):
        # No boundary raster inside the window; every walk is an exit.
        return hits
    re_min, re_max, im_min, im_max = grid.window
    cap = 0.25 * math.hypot(re_max - re_min, im_max - im_min)
    diag = grid.cell_diagonal

    live = np.arange(n)
    x = np.full(n, float(basepoint.real))
    y = np.full(n, float(basepoint.imag))
    draws = np.empty((n, _DRAW_CHUNK))
    for step in range(max_steps):
        d, nearest = grid.nearest_other_label(label, x + 1j * y)
        lower = np.maximum(d - diag, 0.0)
        done = lower < walk_eps
        if done.any():
            hits[live[done]] = nearest[done]
            walking = ~done
            live, x, y, lower = live[walking], x[walking], y[walking], lower[walking]
        if live.size == 0:
            break
        refill, col = divmod(step, _DRAW_CHUNK)
        if col == 0:
            for j in live.tolist():
                draws[j] = draw(j, refill)
        radius = np.minimum(lower, cap)
        theta = TWO_PI * draws[live, col]
        x = x + radius * np.cos(theta)
        y = y + radius * np.sin(theta)
        inside = (re_min <= x) & (x <= re_max) & (im_min <= y) & (y <= im_max)
        live, x, y = live[inside], x[inside], y[inside]
    return hits


def _walk_hits(
    grid: ClassificationGrid,
    basepoint: complex,
    walk_eps: float,
    seed: int,
    n_walks: int,
    max_steps: int = _MAX_WALK_STEPS,
) -> np.ndarray:
    """Hits of walks 0..n_walks-1 on the streams (seed, i); NaN marks an exit."""
    draw = _keyed_chunks(seed)
    hits = np.empty(n_walks, dtype=complex)
    for lo in range(0, n_walks, _BLOCK):
        hi = min(lo + _BLOCK, n_walks)
        hits[lo:hi] = _walk_lockstep(
            grid, basepoint, walk_eps, hi - lo, lambda j, r, lo=lo: draw(lo + j, r), max_steps
        )
    return hits


# ---------------------------------------------------------------------------
# Measure report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HitRecord:
    sample_id: int
    hit: complex
    verdict: str
    orbit_iterations: int


@dataclass(frozen=True)
class MeasureReport:
    basepoint: complex
    samples: int
    fractions: dict[str, float]
    counts: dict[str, int]
    left_window: int
    dense_orbit_stat: float
    rng_seed: int
    budgets: dict[str, float]
    hits: tuple[HitRecord, ...]

    def to_json(self) -> dict:
        """Every field but the hits, which hits.csv holds."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "hits"}


def measure_report(
    m: EntireMap,
    grid: ClassificationGrid,
    basepoint: complex,
    n_samples: int,
    walk_eps: float,
    orbit_budget: int,
    targets: tuple[complex, ...] = (),
    rng_seed: int = 0,
    walk_budget: int = _MAX_WALK_STEPS,
) -> MeasureReport:
    """Draw boundary hits, classify each hit's forward orbit, aggregate fractions.

    The escaping/bounded/undecided fractions are integer-ratio bookkeeping
    over the non-exited samples and sum to one exactly; dense_orbit_stat is
    the worst-case over `targets` of how closely any sampled-hit orbit
    approaches that target.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")

    raw = _walk_hits(grid, basepoint, walk_eps, rng_seed, n_samples, walk_budget)
    ok = ~np.isnan(raw.real)
    ids = np.flatnonzero(ok).tolist()
    hits = raw[ok]
    left = n_samples - len(ids)
    if left > 0.5 * n_samples:
        raise TooManyWindowExits(f"{left}/{n_samples} walks exited the window")

    res = classify_orbits_array(
        m, hits, orbit_budget, grid.escape_radius, grid.attractors, grid.tol
    )
    n_ok = len(ids)
    n_esc = int(np.count_nonzero(res.kinds == Kind.ESCAPING))
    n_bnd = int(
        np.count_nonzero((res.kinds == Kind.ATTRACTING) | (res.kinds == Kind.PARABOLIC))
    )
    frac_esc = n_esc / n_ok
    frac_bnd = n_bnd / n_ok
    fractions = {
        "escaping": frac_esc,
        "bounded": frac_bnd,
        "undecided": 1.0 - frac_esc - frac_bnd,
    }
    counts = {"escaping": n_esc, "bounded": n_bnd, "undecided": n_ok - n_esc - n_bnd}

    stat = _dense_orbit_stat(m, hits, orbit_budget, grid.escape_radius, targets)

    records = tuple(
        HitRecord(i, complex(h), Kind(int(k)).name, int(it))
        for i, h, k, it in zip(ids, hits, res.kinds, res.iterations)
    )
    return MeasureReport(
        basepoint=complex(basepoint),
        samples=n_samples,
        fractions=fractions,
        counts=counts,
        left_window=left,
        dense_orbit_stat=float(stat),
        rng_seed=rng_seed,
        budgets={"walk_eps": walk_eps, "orbit_budget": orbit_budget},
        hits=records,
    )


def _dense_orbit_stat(
    m: EntireMap,
    hits: np.ndarray,
    budget: int,
    escape_radius: float,
    targets: tuple[complex, ...],
) -> float:
    """max over targets of the min distance from any sampled-hit orbit point."""
    if len(targets) == 0 or hits.size == 0:
        return math.nan
    t = np.asarray(targets, dtype=complex)
    best = np.full(t.shape, np.inf)
    z = hits.copy()
    alive = np.ones(z.shape, dtype=bool)
    for _ in range(budget + 1):
        za = z[alive]
        if za.size == 0:
            break
        d = np.abs(za[None, :] - t[:, None]).min(axis=1)
        best = np.minimum(best, d)
        w, bad = m.evaluate_array(za)
        ok = ~bad & (np.abs(w) <= escape_radius)
        idx = np.nonzero(alive)[0]
        z[idx[ok]] = w[ok]
        alive[idx[~ok]] = False
    return float(best.max())


# ---------------------------------------------------------------------------
# Disk-oracle calibration
# ---------------------------------------------------------------------------


# The disk calibration walks on the unit disk with walk_eps of
# _CAL_WALK_EPS_CELLS cells. It passes when the center hits give a
# chi-squared p above _CAL_CHI2_P_MIN over _CAL_CHI2_BINS angle bins and the
# hits from 0.5 a Kolmogorov-Smirnov distance to the Poisson kernel below
# _CAL_KS_MAX.
_DISK_RADIUS = 1.0
_CAL_WALK_EPS_CELLS = 2.5
_CAL_CHI2_BINS = 16
_CAL_CHI2_P_MIN = 0.01
_CAL_KS_MAX = 0.03


def disk_grid(resolution: int = 400, margin: float = 0.2) -> ClassificationGrid:
    """Synthetic labeled grid: one attracting disk |z| < 1 in an undecided frame."""
    half = _DISK_RADIUS + margin
    window = (-half, half, -half, half)
    n = resolution
    grid = ClassificationGrid(
        window=window,
        nx=n,
        ny=n,
        kinds=np.zeros((n, n), dtype=np.int8),
        labels=np.zeros((n, n), dtype=np.int32),
        iterations=np.zeros((n, n), dtype=np.int32),
        classes=np.zeros((n, n), dtype=np.int32),
        attractors=((0.0 + 0.0j, 1),),
        budget=1,
        escape_radius=50.0,
        tol=1e-6,
    )
    inside = np.abs(grid.cell_centers()) < _DISK_RADIUS
    grid.kinds[inside] = Kind.ATTRACTING
    grid.classes[inside] = CLASS_ATTRACTING
    return label_components(grid)


@dataclass(frozen=True)
class CalibrationResult:
    chi2_p: float
    ks_stat: float
    passed: bool
    samples: int


def _poisson_cdf(r: float):
    scale = (1.0 + r) / (1.0 - r)

    def cdf(theta):
        return 0.5 + np.arctan(scale * np.tan(np.asarray(theta) / 2.0)) / math.pi

    return cdf


def calibrate_disk(samples: int = 10**4, resolution: int = 400) -> CalibrationResult:
    """The two toy-mask oracles that gate every transcendental measure run.

    From the disk center, hit angles must be uniform (chi-squared); from
    basepoint 0.5 they must follow the Poisson kernel (Kolmogorov-Smirnov).
    The two walk streams are keyed by the constants 0 and 1, so the verdict
    depends only on `samples` and `resolution`, never on a run's rng_seed.
    """
    grid = disk_grid(resolution=resolution)
    eps = _CAL_WALK_EPS_CELLS * max(grid.cell_size)

    center_hits = _walk_hits(grid, 0.0 + 0.0j, eps, 0, samples)
    offset_hits = _walk_hits(grid, 0.5 + 0.0j, eps, 1, samples)
    exits = int(np.isnan(np.concatenate((center_hits, offset_hits)).real).sum())
    if exits:
        raise LeftWindow(f"{exits} disk calibration walks left the window")

    counts, _ = np.histogram(np.angle(center_hits), bins=_CAL_CHI2_BINS, range=(-math.pi, math.pi))
    chi2_p = float(stats.chisquare(counts).pvalue)
    ks = float(stats.kstest(np.angle(offset_hits), _poisson_cdf(0.5)).statistic)

    return CalibrationResult(
        chi2_p=chi2_p,
        ks_stat=ks,
        passed=(chi2_p > _CAL_CHI2_P_MIN) and (ks < _CAL_KS_MAX),
        samples=samples,
    )
