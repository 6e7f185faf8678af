"""Walk-on-spheres sampling of harmonic measure on the raster boundary.

Walks step by the conservative lower distance estimate, so they can never
jump across Julia filaments; the reported numbers are budgeted estimates on
the raster approximation of the boundary, at smoothing scale walk_eps.
Walkers advance in lockstep, one bucket-index query per step for a whole
block; the first step reuses the basepoint's query, a numpy scan of the
boundary cell centers (`ClassificationGrid.nearest_other_label`). Each walker
draws from its own counter-based Philox stream keyed by (seed, sample_index);
one numpy call computes the next chunk of every stream that needs one. So
every hit is independent of the block size and of the order in which walkers
are processed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

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

# Philox4x64-10 (Salmon et al. 2011): round multipliers and Weyl key bumps.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32 = np.uint64(0xFFFFFFFF)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit products m*x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> 32
    lo_hi, hi_lo = x_lo * m_hi, x_hi * m_lo
    carry = ((x_lo * m_lo) >> 32) + (lo_hi & _LO32) + (hi_lo & _LO32)
    return x * np.uint64(m), x_hi * m_hi + (lo_hi >> 32) + (hi_lo >> 32) + (carry >> 32)


def _philox_chunks(seed: int, walkers, refill: int) -> np.ndarray:
    """Chunk `refill` of _DRAW_CHUNK uniforms of each stream (seed, i), i in `walkers`.

    Row k holds the draws refill*_DRAW_CHUNK.. of
    np.random.Generator(np.random.Philox(key=[seed, walkers[k]])).uniform(),
    bit for bit: that generator increments its 256-bit counter before each
    block of four words, so block b of a stream is Philox4x64-10 of the
    counter b + 1 under the key (seed, i), and each uniform is
    (word >> 11) * 2**-53. All arithmetic is on uint64 arrays, which wrap.
    """
    blocks = _DRAW_CHUNK // 4
    k1 = np.asarray(walkers, dtype=np.uint64)[:, None]
    k0 = np.full(1, seed, dtype=np.uint64)
    c0 = np.arange(refill * blocks + 1, (refill + 1) * blocks + 1, dtype=np.uint64)
    c0 = np.broadcast_to(c0, (k1.shape[0], blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for _ in range(10):
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(k1.shape[0], _DRAW_CHUNK)
    return (words >> 11) * 2.0**-53


def _walk_lockstep(
    grid: ClassificationGrid,
    basepoint: complex,
    walk_eps: float,
    n: int,
    draw: Callable[[np.ndarray, int], np.ndarray],
    max_steps: int,
) -> np.ndarray:
    """Walk-on-spheres from `basepoint` for walkers 0..n-1, in lockstep.

    Each step queries the bucket index once for all live walkers; step 0
    reuses the basepoint's own query, which is a scan. A walker whose lower
    distance estimate drops below walk_eps records the nearest boundary-raster
    cell center; otherwise it jumps to a uniform point on the circle of radius
    lower (capped at a quarter of the window diagonal). A walker that leaves
    the window or exceeds max_steps records NaN. Walker j takes one uniform
    per jump from its own stream, refilled in chunks: draw(js, r) holds chunk
    r of the streams of walkers js, one row each, so no hit depends on another.
    """
    hx, hy = grid.cell_size
    if walk_eps < 2.0 * max(hx, hy) - 1e-12:
        raise ValueError("walk_eps must be at least two grid cells")
    label = grid.label_at(basepoint)
    if label == 0:
        raise NotFatouClassified(f"basepoint {basepoint} is not Fatou-classified")
    hits = np.full(n, complex(math.nan, math.nan))
    start = (basepoint.real, basepoint.imag)
    d0, nearest0 = grid.nearest_other_label(label, start)
    if math.isinf(d0):
        # No boundary raster inside the window; every walk is an exit.
        return hits
    re_min, re_max, im_min, im_max = grid.window
    cap = 0.25 * math.hypot(re_max - re_min, im_max - im_min)
    corner_lo, corner_hi = np.array([re_min, im_min]), np.array([re_max, im_max])
    diag = grid.cell_diagonal

    live = np.arange(n)
    xy = np.tile(np.array(start, dtype=float), (n, 1))
    d, nearest = np.full(n, d0), np.full(n, nearest0)
    draws = np.empty((n, _DRAW_CHUNK))
    for step in range(max_steps):
        if step:
            d, nearest = grid.nearest_other_label(label, xy)
        lower = np.maximum(d - diag, 0.0)
        done = lower < walk_eps
        if done.any():
            hits[live[done]] = grid.other_label_center(label, nearest[done])
            walking = ~done
            live, xy, lower = live[walking], xy[walking], lower[walking]
        if live.size == 0:
            break
        refill, col = divmod(step, _DRAW_CHUNK)
        if col == 0:
            draws[live] = draw(live, refill)
        radius = np.minimum(lower, cap)
        theta = TWO_PI * draws[live, col]
        xy[:, 0] += radius * np.cos(theta)
        xy[:, 1] += radius * np.sin(theta)
        inside = ((corner_lo <= xy) & (xy <= corner_hi)).all(axis=1)
        live, xy = live[inside], xy[inside]
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
    hits = np.empty(n_walks, dtype=complex)
    for lo in range(0, n_walks, _BLOCK):
        hi = min(lo + _BLOCK, n_walks)
        hits[lo:hi] = _walk_lockstep(
            grid, basepoint, walk_eps, hi - lo,
            lambda js, r, lo=lo: _philox_chunks(seed, lo + js, r), max_steps,
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
    dense_orbit_stat: float | None
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
    approaches that target, None (null in measure.json) without targets.
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
        dense_orbit_stat=stat,
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
) -> float | None:
    """max over targets of the min distance from any sampled-hit orbit point."""
    if len(targets) == 0 or hits.size == 0:
        return None
    t = np.asarray(targets, dtype=complex)
    best = np.full(t.shape, np.inf)
    z = hits  # only the set of orbit points matters: an escape (inf, nan too) drops out
    for _ in range(budget + 1):
        if z.size == 0:
            break
        best = np.minimum(best, np.abs(z[None, :] - t[:, None]).min(axis=1))
        w = m.evaluate_array(z)
        z = w[np.abs(w) <= escape_radius]
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


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-squared with an odd number `dof` of degrees of freedom.

    The closed form erfc(sqrt(x/2)) + sqrt(2x/pi) e^(-x/2) times the sum over
    k = 1..(dof-1)/2 of x^(k-1) / (1*3*...*(2k-1)) (Abramowitz and Stegun
    26.4.4).
    """
    term, series = 1.0, 0.0
    for k in range(1, (dof + 1) // 2):
        series += term
        term *= x / (2 * k + 1)
    return math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2) * series


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

    # Pearson's chi-squared against equal bins and the two-sided KS distance,
    # computed as scipy.stats.chisquare and kstest do: the statistics bit for
    # bit, the chi-squared p-value to within 1e-14 (relative).
    counts, _ = np.histogram(np.angle(center_hits), bins=_CAL_CHI2_BINS, range=(-math.pi, math.pi))
    expected = counts.mean()
    chi2_p = _chi2_sf(float(np.sum((counts - expected) ** 2 / expected)), _CAL_CHI2_BINS - 1)
    cdf = _poisson_cdf(0.5)(np.sort(np.angle(offset_hits)))
    n = cdf.size
    ks = float(max(np.max(np.arange(1.0, n + 1) / n - cdf), np.max(cdf - np.arange(0.0, n) / n)))

    return CalibrationResult(
        chi2_p=chi2_p,
        ks_stat=ks,
        passed=(chi2_p > _CAL_CHI2_P_MIN) and (ks < _CAL_KS_MAX),
        samples=samples,
    )
