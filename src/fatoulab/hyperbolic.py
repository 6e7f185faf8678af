"""Two-sided hyperbolic density bounds on plane-minus-cloud domains.

Normalization (fixed once, used everywhere): curvature -1, so the unit disk
has density 2/(1-|z|^2), the punctured disk 1/(|z| log(1/|z|)) and the right
half-plane 1/Re z. The twice-punctured-plane lower bound uses the classical
constant K = Gamma(1/4)^4/(4 pi^2) ~ 4.3769, fixed slightly above at 4.38
(TWICE_PUNCTURED_K) so the bound stays on the safe side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .branches import BranchChain, apply_chain
from .catalog import EntireMap
from .errors import CloudOffSegment, DegeneratePointSet, OnPostsingularSet, OnSegment

TWICE_PUNCTURED_K = 4.38
# Pair terms of density_lower (and point distances) evaluated at once: complex
# temporaries of 2**14 entries, 256 KB each. At 2**16 the bench audit process
# peaked 6 MB higher (40.0 MB against 34.0 MB) in the same time.
_PAIR_CHUNK = 1 << 14


def punctured_disk_density(zeta: complex) -> float:
    """Density of the punctured unit disk at zeta (curvature -1)."""
    r = abs(zeta)
    if r <= 0.0 or r >= 1.0:
        raise ValueError("zeta must satisfy 0 < |zeta| < 1")
    return 1.0 / (r * math.log(1.0 / r))


def _as_points(p) -> np.ndarray:
    """The distinct points of p, each at its first place."""
    pts = np.asarray(p, dtype=complex).ravel()
    if pts.size == 0:
        raise DegeneratePointSet("point set is empty")
    return pts[np.sort(np.unique(pts, return_index=True)[1])]


def _blocks(n: int, width: int) -> list[slice]:
    """Slices of range(n) holding about _PAIR_CHUNK terms, at `width` terms an item."""
    step = max(1, _PAIR_CHUNK // width)
    return [slice(s, s + step) for s in range(0, n, step)]


def _distances(pts: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
    """(the query points, their distances to pts); raises OnPostsingularSet
    naming the first query point within 1e-14 of pts."""
    zs = np.asarray(z, dtype=complex).ravel()
    d = np.empty(zs.size)
    for rows in _blocks(zs.size, pts.size):
        d[rows] = np.abs(pts - zs[rows, None]).min(axis=1)
    near = d < 1e-14
    if near.any():
        raise OnPostsingularSet(f"{zs[near.argmax()]} is within 1e-14 of the point set")
    return zs, d


def _shaped(values: np.ndarray, z):
    """values in the shape of the query z: a float for a single point."""
    return float(values[0]) if np.ndim(z) == 0 else values.reshape(np.shape(z))


def density_upper(p, z):
    """Inscribed-disk upper bound 2/dist(z, P); valid since D(z, dist) avoids P.

    z is a point (the bound is a float) or an array of points.
    """
    _, d = _distances(_as_points(p), z)
    return _shaped(2.0 / d, z)


def _two_puncture_bound(zeta: np.ndarray) -> np.ndarray:
    """Lower bound for the density of C minus {0,1} at zeta (curvature -1)."""
    r = np.abs(zeta)
    return 1.0 / (2.0 * r * (np.abs(np.log(r)) + TWICE_PUNCTURED_K))


def density_lower(p, z):
    """Monotone lower bound: best two-puncture comparison over all pairs of P-points.

    Each pair (a, b) gives rho_W >= rho_{C - {a,b}} >= bound((z-a)/(b-a))/|b-a|;
    taking the maximum keeps the bound monotone under adding points to P.
    z is a point (the bound is a float) or an array of points.
    """
    pts = _as_points(p)
    if pts.size < 2:
        raise DegeneratePointSet("density_lower needs at least two distinct points")
    zs, _ = _distances(pts, z)
    i, j = np.nonzero(~np.eye(pts.size, dtype=bool))
    a = pts[i]
    sep = pts[j] - a
    abs_sep = np.abs(sep)
    best = np.full(zs.size, -np.inf)
    for rows in _blocks(zs.size, a.size):
        for cols in _blocks(a.size, 1):
            zeta = (zs[rows, None] - a[cols]) / sep[cols]
            vals = _two_puncture_bound(zeta) / abs_sep[cols]
            best[rows] = np.fmax(best[rows], np.fmax.reduce(vals, axis=1))
    return _shaped(best, z)


def segment_complement_density(c: float, z: complex) -> float:
    """Exact density of C minus [0, c] via the inverse Joukowski chart.

    T(z) = 4z/c - 2 sends [0, c] to [-2, 2]; J(zeta) = zeta + 1/zeta maps the
    punctured disk conformally onto C minus [-2, 2], so the punctured-disk
    kernel transports back through the chain rule.
    """
    if c <= 0:
        raise ValueError("segment length must be positive")
    z = complex(z)
    if abs(z.imag) < 1e-300 and -1e-15 <= z.real <= c + 1e-15:
        raise OnSegment(f"{z} lies on the segment [0, {c}]")
    w = 4.0 * z / c - 2.0
    zeta = _inverse_joukowski(w)
    dzeta_dw = 1.0 / abs(1.0 - 1.0 / zeta**2)
    return punctured_disk_density(zeta) * dzeta_dw * (4.0 / c)


def _inverse_joukowski(w: complex) -> complex:
    """The root of zeta + 1/zeta = w with |zeta| < 1."""
    s = cmath.sqrt(w - 2.0) * cmath.sqrt(w + 2.0)
    zeta = (w - s) / 2.0
    if abs(zeta) > 1.0:
        zeta = (w + s) / 2.0
    return zeta


def density_bound(p, z, segment: float | None):
    """Two-sided bound (lower, upper) for the density of C minus P at z.

    z is a point (each bound is a float) or an array of points. `segment=c`
    asserts that P is contained in [0, c] (`contraction_audit` checks it,
    this function does not); the exact density of C minus [0, c] then
    tightens the upper bound.
    """
    zs = np.asarray(z, dtype=complex).ravel()
    lower = density_lower(p, zs)
    upper = density_upper(p, zs)
    if segment is not None:
        upper = np.minimum(upper, [segment_complement_density(segment, x) for x in zs.tolist()])
    lower = np.minimum(lower, upper)
    bad = ~((0.0 < lower) & (lower <= upper * (1.0 + 1e-12)))
    if bad.any():
        k = bad.argmax()
        raise ValueError(f"invalid density bracket [{lower[k]}, {upper[k]}] at {zs[k]}")
    return _shaped(lower, z), _shaped(upper, z)


# ---------------------------------------------------------------------------
# Schwarz-Pick contraction audit
# ---------------------------------------------------------------------------

VERDICT_OK = "ok"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_VIOLATION = "violation"


@dataclass(frozen=True)
class AuditRow:
    point: complex
    ratio_lower: float
    ratio_upper: float
    verdict: str


@dataclass(frozen=True)
class ContractionAudit:
    rows: tuple[AuditRow, ...]
    certified_violations: tuple[AuditRow, ...]

    @property
    def conclusive_fraction(self) -> float:
        if not self.rows:
            return 0.0
        n = sum(1 for r in self.rows if r.verdict != VERDICT_INCONCLUSIVE)
        return n / len(self.rows)


def contraction_audit(
    m: EntireMap,
    chain: BranchChain,
    region: list[complex],
    p,
    segment: float | None = None,
) -> ContractionAudit:
    """Interval audit of the pullback contraction ratio rho(F x)|F'(x)| / rho(x).

    Inverse branches on the complement of the postsingular set never expand
    the hyperbolic metric, so a sound audit can only certify a violation when
    the whole ratio interval sits above 1; intervals straddling 1 are
    reported inconclusive, never as violations.

    `segment=c` takes the point set P to lie on [0, c], as `density_bound`
    does; raises CloudOffSegment when a point of P does not.
    """
    if segment is not None:
        pts = np.asarray(p, dtype=complex).ravel()
        off = ~((pts.imag == 0.0) & (pts.real >= 0.0) & (pts.real <= segment))
        if off.any():
            raise CloudOffSegment(f"{pts[off][0]} lies off the segment [0, {segment}]")
    xs = [complex(x) for x in region]
    n = len(chain)
    if n == 0:
        # The identity chain is an exact isometry; the bounds cancel exactly.
        return ContractionAudit(tuple(AuditRow(x, 1.0, 1.0, VERDICT_OK) for x in xs), ())
    ys = [apply_chain(chain, x) for x in xs]
    # |F'(x)| = 1/|(f^n)'(F(x))|
    f_prime = np.array([1.0 / abs(m.iterate_with_derivative(y, n)[1]) for y in ys])
    # Columns x and F(x): bounds run x_0, F(x_0), x_1, ..., and an error names the first.
    lower, upper = density_bound(p, np.column_stack([xs, ys]), segment)
    lo = lower[:, 1] * f_prime / upper[:, 0]
    hi = upper[:, 1] * f_prime / lower[:, 0]
    verdicts = np.where(
        hi <= 1.0, VERDICT_OK, np.where(lo > 1.0, VERDICT_VIOLATION, VERDICT_INCONCLUSIVE)
    )
    rows = tuple(map(AuditRow, xs, lo.tolist(), hi.tolist(), verdicts.tolist()))
    return ContractionAudit(rows, tuple(r for r in rows if r.verdict == VERDICT_VIOLATION))
