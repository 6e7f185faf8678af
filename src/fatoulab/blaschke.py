"""Finite Blaschke products and their unit-circle dynamics.

Covers evaluation, argument lifts of the induced circle maps, boundary
periodic points, the audit of rational circle-map candidates, and the
Denjoy-Wolff point. That point is read off the fixed points, not an orbit: a
circle fixed point with |B'| <= 1 if there is one (Julia-Wolff), else the
attracting fixed point inside the disk (Denjoy-Wolff). Only finite products
are instantiated; infinite-degree inner functions have no finite
representation here.

Every complex product is formed from float64 parts (`_mul`) and every array
modulus by np.hypot, so arrays round as single points do, at every SIMD
dispatch level of numpy; np.angle in the circle lift is the one exception.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .catalog import damped_newton
from .errors import LiftGridExhausted, LiftNotExpandingWarning, PoleOnCircle, RotationLike

TWO_PI = 2.0 * math.pi

_MIN_GRID_BITS = 14
_MAX_GRID_BITS = 19
_GRID_EXHAUSTED = "circle lift grid exhausted; map varies too fast"

# Roots closer than this in angle are one circle periodic point.
_DEDUP_TOL = 1e-10
# Bisection widths of the circle roots: B^n and the Denjoy-Wolff search stop
# at _BISECT_TOL, a rational candidate at _CANDIDATE_BISECT_TOL. Each width
# fixes the last digits of the angles and points that it reports.
_BISECT_TOL = 5e-14
_CANDIDATE_BISECT_TOL = 1e-14
# The slack on a boundary Denjoy-Wolff point's |B'| <= 1, which rounding of
# |B'| at a parabolic point (exactly 1) must not exceed.
_DW_TOL = 1e-9
# An interior fixed point is the Denjoy-Wolff point only if |B'| <= 1 minus
# this gap. A boundary fixed point of even multiplicity, which the circle root
# finder can miss, leaves P a root pair split by rounding to about 1e-8 from
# the circle, with |B'| about 1 - 2e-8; the gap keeps such a root from being
# reported as an attracting interior point, and a root this close to the
# circle is projected onto it instead.
_NEUTRAL_GAP = 1e-6


def _mul(u, v):
    """u * v as re = ur vr - ui vi, im = ur vi + ui vr, each rounded from float64 parts.

    numpy's complex multiply loop fuses these multiply-adds at AVX2 and above
    but not at SSE4.2; this gives the SSE4.2 bits, and a scalar's, everywhere.
    """
    out = np.empty(np.broadcast(u, v).shape, dtype=complex)
    re, im = out.real, out.imag
    np.subtract(np.multiply(u.real, v.real, out=re), u.imag * v.imag, out=re)
    np.add(np.multiply(u.real, v.imag, out=im), u.imag * v.real, out=im)
    return out


def _modulus(w):
    """|w| by np.hypot, as CPython's abs(complex); numpy's complex abs rounds otherwise, by level."""
    return np.hypot(w.real, w.imag)


def _horner(coeffs, z):
    """The polynomial with ascending coefficients `coeffs` at z, by Horner's rule through `_mul`."""
    w = np.full_like(z, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        w = c + _mul(w, z)
    return w


@dataclass(frozen=True)
class BlaschkeProduct:
    """rotation * prod (z - a_j)/(1 - conj(a_j) z) with |a_j| < 1, |rotation| = 1."""

    rotation: complex = 1.0 + 0.0j
    zeros: tuple[complex, ...] = ()

    def __post_init__(self):
        if abs(abs(self.rotation) - 1.0) > 1e-9:
            raise ValueError("rotation must be unimodular")
        for a in self.zeros:
            if abs(a) >= 1.0:
                raise ValueError(f"zero {a} not inside the unit disk")
        object.__setattr__(self, "zeros", tuple(complex(a) for a in self.zeros))
        object.__setattr__(self, "rotation", complex(self.rotation))

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        w = np.full_like(z, self.rotation)
        for a in self.zeros:
            # a zero at 0 has the denominator 1 + 0j, to the bit, at every finite z
            w = _mul(w, z - a) / (1.0 - _mul(a.conjugate(), z) if a else 1.0)
        return w if w.ndim else complex(w)

    def eval_with_derivative(self, z):
        """(B(z), B'(z)) by the product rule; robust at zeros of B."""
        z = np.asarray(z, dtype=complex)
        d = len(self.zeros)
        f = np.empty((d,) + z.shape, dtype=complex)
        fp = np.empty_like(f)
        for j, a in enumerate(self.zeros):
            den = 1.0 - _mul(a.conjugate(), z)
            f[j] = (z - a) / den
            fp[j] = (1.0 - abs(a) ** 2) / _mul(den, den)
        prefix = np.ones((d + 1,) + z.shape, dtype=complex)
        for j in range(d):
            prefix[j + 1] = _mul(prefix[j], f[j])
        suffix = np.ones((d + 1,) + z.shape, dtype=complex)
        for j in range(d - 1, -1, -1):
            suffix[j] = _mul(suffix[j + 1], f[j])
        deriv = sum((_mul(_mul(fp[j], prefix[j]), suffix[j + 1]) for j in range(d)), np.zeros_like(z))
        val = _mul(self.rotation, prefix[d])
        deriv = _mul(self.rotation, deriv)
        return (val, deriv) if z.ndim else (complex(val), complex(deriv))

    def iterate(self, z, n: int):
        for _ in range(n):
            z = self.evaluate(z)
        return z

    @staticmethod
    def from_json(d: dict) -> "BlaschkeProduct":
        rot = complex(*d.get("rotation", [1.0, 0.0]))
        zeros = tuple(complex(re, im) for re, im in d.get("zeros", []))
        return BlaschkeProduct(rot, zeros)


# ---------------------------------------------------------------------------
# Circle fixed points and boundary periodic points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CirclePeriodicPoint:
    theta: float
    branch: int
    residual: float


def _ranges(start, stop):
    """(i, m) for every i and every m in [start[i], stop[i])."""
    i = np.flatnonzero(stop > start)
    count = stop[i] - start[i]
    first = np.repeat(start[i] - np.cumsum(count) + count, count)
    return np.repeat(i, count), first + np.arange(first.size)


def _branch_brackets(h):
    """Roots of h = 2pi j over the branches j that h reaches, as (nodes, j, intervals, j).

    A node k with h[k] - 2pi j == 0.0 is a root, and an interval k where
    (h[k] - 2pi j) * (h[k + 1] - 2pi j) < 0.0 brackets one. One sorted search
    of each node's h among the levels 2pi j names the only branches that can
    pass these tests at each node and interval, so no branch scans all of h.
    """
    j_min = math.ceil(h.min() / TWO_PI - 1e-12)
    levels = TWO_PI * np.arange(j_min, math.floor(h.max() / TWO_PI + 1e-12) + 1)
    below = np.searchsorted(levels, h, "left")  # branches with 2pi j < h
    upto = np.searchsorted(levels, h, "right")  # branches with 2pi j <= h
    nodes, m = _ranges(below, upto)
    node_j = j_min + m
    exact = h[nodes] - TWO_PI * node_j == 0.0
    k, m = _ranges(np.minimum(upto[:-1], upto[1:]), np.maximum(below[:-1], below[1:]))
    jj = j_min + m
    bracket = (h[k] - TWO_PI * jj) * (h[k + 1] - TWO_PI * jj) < 0.0
    return nodes[exact], node_j[exact], k[bracket], jj[bracket]


def _circle_roots(func, tol: float, degree: int | None = None) -> list[tuple[float, int]]:
    """Every fixed point of the circle map of func, as (theta in [0, 2pi), branch j) pairs.

    A continuous lift G of theta -> arg func(e^{i theta}) is tracked on a grid
    that doubles until every step is below 0.9 pi, and G gains 2pi times an
    integer winding over one turn. A `degree` declares func a Blaschke product
    of that degree, whose lift rises on every step and by 2pi `degree` over
    the turn: the grid then starts where the mean step 2pi degree / 2^bits is
    below 0.9 pi, since a uniform step of more than 2pi would unwrap to a
    small one, and doubles until every step is positive too. The
    roots of G(theta) = theta + 2pi j that fall on a node or that an interval
    brackets (`_branch_brackets`) are bisected together to width `tol`, one
    vectorised evaluation of func per level; G at a midpoint continues from
    its left endpoint. Sorted by (theta, j), a root within _DEDUP_TOL in angle
    of the last root kept or, across 0 = 2pi, of the first is the same point
    and is dropped, so the order the pairs were found in never shows.
    """
    bits = _MIN_GRID_BITS
    while degree is not None and TWO_PI * degree / (1 << bits) >= 0.9 * math.pi:
        bits += 1
    while True:
        if bits > _MAX_GRID_BITS:
            raise LiftGridExhausted(_GRID_EXHAUSTED)
        thetas = np.linspace(0.0, TWO_PI, (1 << bits) + 1)
        lift = np.unwrap(np.angle(np.asarray(func(np.exp(1j * thetas)), dtype=complex)))
        steps = np.diff(lift)
        if not (np.max(np.abs(steps)) >= 0.9 * math.pi
                or degree is not None and np.any(steps <= 0.0)):
            break
        bits += 1
    winding = (lift[-1] - lift[0]) / TWO_PI
    if abs(winding - round(winding)) > 1e-6:
        raise ValueError(f"lift winding {winding} is not an integer")

    h = lift - thetas
    nodes, node_j, k, jj = _branch_brackets(h)
    roots = list(zip(thetas[nodes].tolist(), node_j.tolist()))
    lo, hi, G_lo, g_lo = thetas[k], thetas[k + 1], lift[k], h[k] - TWO_PI * jj
    while lo.size and np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        raw = np.angle(func(np.exp(1j * mid)))
        G_mid = G_lo + (raw - G_lo + math.pi) % TWO_PI - math.pi
        g_mid = G_mid - mid - TWO_PI * jj
        left = (g_lo * g_mid < 0.0) | (g_mid == 0.0)
        hi = np.where(left, mid, hi)
        move = ~left
        lo = np.where(move, mid, lo)
        g_lo = np.where(move, g_mid, g_lo)
        G_lo = np.where(move, G_mid, G_lo)
    roots.extend(zip((0.5 * (lo + hi)).tolist(), jj.tolist()))

    kept: list[tuple[float, int]] = []
    for theta, j in sorted(roots):
        t = theta % TWO_PI
        if not any(abs(t - s) < _DEDUP_TOL or abs(abs(t - s) - TWO_PI) < _DEDUP_TOL
                   for s, _ in kept[-1:] + kept[:1]):
            kept.append((t, j))
    return kept


def circle_periodic_points(b: BlaschkeProduct, n: int) -> list[CirclePeriodicPoint]:
    """Fixed points of the boundary map of B^n, one branch equation per 2pi j.

    For B of degree d >= 2 there are at most d^n - 1 points, with equality for
    z^d. If a branch equation has several roots the lift was not expanding
    there; a LiftNotExpandingWarning is issued and all roots are returned.
    B^n has degree d^n, so its lift rises by 2pi d^n over one turn: from
    d^n >= 0.45 * 2^_MAX_GRID_BITS on, the mean step of the finest grid is at
    least 0.9 pi and LiftGridExhausted is raised before any evaluation. The
    residuals |B^n(z) - z| are computed for all points at once, with the bits
    of a one-point evaluation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if b.degree < 2:
        raise ValueError("degree must be >= 2")
    # past n = 19, d^n and d^19 >= 2^19 both exceed what the finest grid resolves
    degree = b.degree ** min(n, _MAX_GRID_BITS)
    found = _circle_roots(lambda z: b.iterate(z, n), _BISECT_TOL, degree)
    branches = [j for _, j in found]
    if len(set(branches)) < len(branches):
        warnings.warn("some branch equations had multiple roots", LiftNotExpandingWarning)
    z = np.array([cmath.exp(1j * t) for t, _ in found], dtype=complex)
    residuals = _modulus(b.iterate(z, n) - z).tolist()
    return [CirclePeriodicPoint(t, j, r) for (t, j), r in zip(found, residuals)]


# ---------------------------------------------------------------------------
# Denjoy-Wolff point
# ---------------------------------------------------------------------------

INTERIOR = "interior"
BOUNDARY = "boundary"


@dataclass(frozen=True)
class DenjoyWolff:
    point: complex
    location: str
    derivative_modulus: float


def denjoy_wolff(b: BlaschkeProduct) -> DenjoyWolff:
    """The Denjoy-Wolff point of B, from its fixed points (Denjoy-Wolff, Julia-Wolff).

    Boundary: a circle fixed point zeta with |B'(zeta)| <= 1 + _DW_TOL, from
    the circle root finder; |B'| on the circle is the sum of the Poisson
    kernels at the zeros, and only one such point exists unless B is the
    identity, so the least |B'| is kept. At a parabolic point the lift meets
    its level tangentially, so the angle is resolved only to about
    eps^(1/m) for multiplicity m (1e-5 when m = 3), and a point of even
    multiplicity, which the lift touches without crossing, may be missed.
    Interior: otherwise, the fixed point in the disk, the least-modulus root of
    P = N - z D (B = N/D) polished by damped Newton; it is reported only when
    |B'(p)| <= 1 - _NEUTRAL_GAP. A missed point of even multiplicity leaves
    that root within _NEUTRAL_GAP of the circle: zeta = p/|p| is then the
    boundary point, to about eps^(1/2), if B(zeta) is within 1e-12 of zeta and
    |B'(zeta)| <= 1 + _DW_TOL. Raises RotationLike for the identity (P = 0),
    for elliptic automorphisms and for a near-neutral point it cannot place.
    """
    fixed = _fixed_point_polynomial(b)
    if not np.any(fixed):
        raise RotationLike("B is the identity: every point is fixed")
    boundary = [
        (abs(b.eval_with_derivative(cmath.exp(1j * t))[1]), t)
        for t, _ in _circle_roots(b.evaluate, _BISECT_TOL)
    ]
    dm, t = min(boundary, default=(math.inf, 0.0))
    if dm <= 1.0 + _DW_TOL:
        return DenjoyWolff(cmath.exp(1j * t), BOUNDARY, dm)

    def g(z):
        val, der = b.eval_with_derivative(z)
        return val - z, der - 1.0

    roots = np.polynomial.polynomial.polyroots(fixed)
    p = damped_newton(g, complex(roots[np.argmin(_modulus(roots))]), 1e-15, 50)
    dm = abs(b.eval_with_derivative(p)[1])
    if abs(p) < 1.0 and dm <= 1.0 - _NEUTRAL_GAP:
        return DenjoyWolff(p, INTERIOR, dm)
    if abs(1.0 - abs(p)) < _NEUTRAL_GAP:  # never p = 0, the centre of a rotation
        zeta = p / abs(p)
        val, der = b.eval_with_derivative(zeta)
        if abs(val - zeta) < 1e-12 and abs(der) <= 1.0 + _DW_TOL:
            return DenjoyWolff(zeta, BOUNDARY, abs(der))
    raise RotationLike(
        f"no circle fixed point has |B'| <= 1, and the fixed point {p} with |B'| = {dm!r}"
        " is a rotation centre or an unresolved near-neutral point"
    )


def _fixed_point_polynomial(b: BlaschkeProduct) -> np.ndarray:
    """Ascending coefficients of P = N - z D, where B = N/D; its roots are B's finite fixed points."""
    num = np.array([b.rotation])
    den = np.array([1.0 + 0.0j])
    for a in b.zeros:
        num = np.polynomial.polynomial.polymul(num, [-a, 1.0])
        den = np.polynomial.polynomial.polymul(den, [1.0, -a.conjugate()])
    return np.polynomial.polynomial.polysub(num, np.polynomial.polynomial.polymulx(den))


# ---------------------------------------------------------------------------
# Rational circle-map candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalCircleMap:
    """num(z)/den(z) with ascending coefficient lists; used to audit candidates."""

    num: tuple[complex, ...]
    den: tuple[complex, ...]

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        w = _horner(self.num, z) / _horner(self.den, z)
        return w if w.ndim else complex(w)


@dataclass(frozen=True)
class InnerCandidateReport:
    circle_preserving: bool
    maps_disk_in: bool
    boundary_fixed_points: tuple[complex, ...]
    max_circle_error: float
    notes: tuple[str, ...]


def verify_inner_candidate(cand: RationalCircleMap, samples: int = 10**4) -> InnerCandidateReport:
    """Audit a rational candidate: circle preservation, disk invariance, boundary fixed points."""
    thetas = TWO_PI * np.arange(samples) / samples
    z = np.exp(1j * thetas)
    den = _horner(cand.den, z)
    if np.min(_modulus(den)) < 1e-12:
        raise PoleOnCircle("denominator vanishes on the sampled circle")
    w = _horner(cand.num, z) / den
    max_err = float(np.max(np.abs(_modulus(w) - 1.0)))
    circle_preserving = max_err < 1e-12

    notes: list[str] = []
    v0 = cand.evaluate(0.0 + 0.0j)
    maps_disk_in = abs(v0) < 1.0
    if maps_disk_in:
        rng = np.random.default_rng(0)
        r = np.sqrt(rng.uniform(0.0, 1.0, 256)) * 0.999
        phi = rng.uniform(0.0, TWO_PI, 256)
        inside = cand.evaluate(r * np.exp(1j * phi))
        maps_disk_in = bool(np.all(_modulus(inside) < 1.0))
    if not maps_disk_in:
        notes.append(f"candidate does not map the disk into itself: g(0) = {v0}")

    fixed: list[complex] = []
    if circle_preserving:
        for t, _ in _circle_roots(cand.evaluate, _CANDIDATE_BISECT_TOL):
            p = cmath.exp(1j * t)
            if abs(cand.evaluate(p) - p) < 1e-10:
                fixed.append(p)
    else:
        notes.append("candidate does not preserve the unit circle; fixed points skipped")

    return InnerCandidateReport(
        circle_preserving=circle_preserving,
        maps_disk_in=maps_disk_in,
        boundary_fixed_points=tuple(fixed),
        max_circle_error=max_err,
        notes=tuple(notes),
    )
