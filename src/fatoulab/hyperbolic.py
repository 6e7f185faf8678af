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

METHOD_TWICE_PUNCTURED = "twice_punctured"
METHOD_INSCRIBED_DISK = "inscribed_disk"
METHOD_SEGMENT = "segment"
METHOD_EXACT = "exact"


def punctured_disk_density(zeta: complex) -> float:
    """Density of the punctured unit disk at zeta (curvature -1)."""
    r = abs(zeta)
    if r <= 0.0 or r >= 1.0:
        raise ValueError("zeta must satisfy 0 < |zeta| < 1")
    return 1.0 / (r * math.log(1.0 / r))


def _as_points(p) -> np.ndarray:
    pts = np.asarray(p, dtype=complex).ravel()
    if pts.size == 0:
        raise DegeneratePointSet("point set is empty")
    return pts


def density_upper(p, z: complex) -> float:
    """Inscribed-disk upper bound 2/dist(z, P); valid since D(z, dist) avoids P."""
    pts = _as_points(p)
    d = float(np.min(np.abs(pts - z)))
    if d < 1e-14:
        raise OnPostsingularSet(f"{z} is within 1e-14 of the point set")
    return 2.0 / d


def _two_puncture_bound(zeta: np.ndarray) -> np.ndarray:
    """Lower bound for the density of C minus {0,1} at zeta (curvature -1)."""
    r = np.abs(zeta)
    return 1.0 / (2.0 * r * (np.abs(np.log(r)) + TWICE_PUNCTURED_K))


def density_lower(p, z: complex) -> float:
    """Monotone lower bound: best two-puncture comparison over all pairs of P-points.

    Each pair (a, b) gives rho_W >= rho_{C - {a,b}} >= bound((z-a)/(b-a))/|b-a|;
    taking the maximum keeps the bound monotone under adding points to P.
    """
    pts = _as_points(p)
    if (pts == pts[0]).all():
        raise DegeneratePointSet("density_lower needs at least two distinct points")
    if float(np.min(np.abs(pts - z))) < 1e-14:
        raise OnPostsingularSet(f"{z} is within 1e-14 of the point set")
    a = pts[:, None]
    b = pts[None, :]
    sep = b - a
    mask = np.abs(sep) > 0.0
    zeta = np.where(mask, (z - a) / np.where(mask, sep, 1.0), np.nan)
    vals = np.where(mask, _two_puncture_bound(zeta) / np.abs(np.where(mask, sep, 1.0)), -np.inf)
    return float(np.nanmax(vals))


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


@dataclass(frozen=True)
class DensityBound:
    at: complex
    lower: float
    upper: float
    method_lower: str
    method_upper: str

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper * (1.0 + 1e-12)):
            raise ValueError(
                f"invalid density bracket [{self.lower}, {self.upper}] at {self.at}"
            )


def density_bound(p, z: complex, segment: float | None = None) -> DensityBound:
    """Two-sided bound for the density of C minus P at z.

    `segment=c` asserts that P is contained in [0, c] (`contraction_audit`
    checks it, this function does not); the exact density of
    C minus [0, c] then tightens the upper bound (and is exact when P is the
    whole segment). With P=None and a segment, both sides are exact.
    """
    if p is None:
        if segment is None:
            raise ValueError("need a point set or a segment")
        rho = segment_complement_density(segment, z)
        return DensityBound(z, rho, rho, METHOD_EXACT, METHOD_EXACT)
    lower = density_lower(p, z)
    upper = density_upper(p, z)
    method_upper = METHOD_INSCRIBED_DISK
    if segment is not None:
        seg = segment_complement_density(segment, z)
        if seg < upper:
            upper = seg
            method_upper = METHOD_SEGMENT
    return DensityBound(z, min(lower, upper), upper, METHOD_TWICE_PUNCTURED, method_upper)


# ---------------------------------------------------------------------------
# Schwarz-Pick contraction audit
# ---------------------------------------------------------------------------

VERDICT_OK = "ok"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_VIOLATION = "violation"


@dataclass(frozen=True)
class AuditRow:
    point: complex
    image: complex
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
    if segment is not None and p is not None:
        pts = np.asarray(p, dtype=complex).ravel()
        off = ~((pts.imag == 0.0) & (pts.real >= 0.0) & (pts.real <= segment))
        if off.any():
            raise CloudOffSegment(f"{pts[off][0]} lies off the segment [0, {segment}]")
    rows: list[AuditRow] = []
    violations: list[AuditRow] = []
    n = len(chain)
    if n == 0:
        # The identity chain is an exact isometry; the bounds cancel exactly.
        rows = [AuditRow(complex(x), complex(x), 1.0, 1.0, VERDICT_OK) for x in region]
        return ContractionAudit(tuple(rows), ())
    for x in region:
        x = complex(x)
        y = apply_chain(chain, x)
        f_prime = 1.0 / abs(m.iterate_with_derivative(y, n)[1])  # |F'(x)| = 1/|(f^n)'(F(x))|

        bx = density_bound(p, x, segment)
        by = density_bound(p, y, segment)
        lo = by.lower * f_prime / bx.upper
        hi = by.upper * f_prime / bx.lower
        if hi <= 1.0:
            verdict = VERDICT_OK
        elif lo > 1.0:
            verdict = VERDICT_VIOLATION
        else:
            verdict = VERDICT_INCONCLUSIVE
        row = AuditRow(x, y, lo, hi, verdict)
        rows.append(row)
        if verdict == VERDICT_VIOLATION:
            violations.append(row)
    return ContractionAudit(tuple(rows), tuple(violations))
