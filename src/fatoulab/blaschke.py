"""Finite Blaschke products and their unit-circle dynamics.

Covers evaluation, argument lifts of the induced circle maps, Denjoy-Wolff
point location, boundary periodic points, and the audit of rational
circle-map candidates. Only
finite products are instantiated; infinite-degree inner functions have no
finite representation here.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import LiftGridExhausted, LiftNotExpandingWarning, PoleOnCircle, RotationLike

TWO_PI = 2.0 * math.pi

# A Denjoy-Wolff orbit is treated as boundary-bound after this many
# consecutive iterates with modulus above 1 - _BOUNDARY_NEAR.
_BOUNDARY_NEAR = 1e-6
_BOUNDARY_RUN = 20

_DEFAULT_GRID_BITS = 14
_MAX_GRID_BITS = 19


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
            w = w * (z - a) / (1.0 - np.conj(a) * z)
        return w if w.ndim else complex(w)

    def eval_with_derivative(self, z):
        """(B(z), B'(z)) by the product rule; robust at zeros of B."""
        z = np.asarray(z, dtype=complex)
        d = len(self.zeros)
        if d == 0:
            return (np.full_like(z, self.rotation), np.zeros_like(z))
        f = np.empty((d,) + z.shape, dtype=complex)
        fp = np.empty_like(f)
        for j, a in enumerate(self.zeros):
            den = 1.0 - np.conj(a) * z
            f[j] = (z - a) / den
            fp[j] = (1.0 - abs(a) ** 2) / den**2
        prefix = np.ones((d + 1,) + z.shape, dtype=complex)
        for j in range(d):
            prefix[j + 1] = prefix[j] * f[j]
        suffix = np.ones((d + 1,) + z.shape, dtype=complex)
        for j in range(d - 1, -1, -1):
            suffix[j] = suffix[j + 1] * f[j]
        deriv = sum(fp[j] * prefix[j] * suffix[j + 1] for j in range(d))
        val = self.rotation * prefix[d]
        deriv = self.rotation * deriv
        if z.ndim:
            return val, deriv
        return complex(val), complex(deriv)

    def iterate(self, z, n: int):
        for _ in range(n):
            z = self.evaluate(z)
        return z

    def boundary_derivative_modulus(self, theta: float) -> float:
        """|B'| on the unit circle; equals the sum of Poisson kernels at the zeros."""
        return abs(self.eval_with_derivative(cmath.exp(1j * theta))[1])

    @staticmethod
    def from_json(d: dict) -> "BlaschkeProduct":
        rot = complex(*d.get("rotation", [1.0, 0.0]))
        zeros = tuple(complex(re, im) for re, im in d.get("zeros", []))
        return BlaschkeProduct(rot, zeros)


# ---------------------------------------------------------------------------
# Circle lifts
# ---------------------------------------------------------------------------


@dataclass
class CircleLift:
    """Continuous argument lift G of theta -> arg f(e^{i theta}) on [0, 2pi].

    G(theta + 2pi) = G(theta) + 2pi * winding by construction. The grid is
    dense enough that each increment stays below pi, so values between nodes
    continue analytically from the left node (see _vector_branch_roots).
    """

    func: object                 # callable complex -> complex
    thetas: np.ndarray           # N+1 nodes spanning [0, 2pi]
    values: np.ndarray           # lift values at the nodes
    winding: int


def build_lift(func, grid_bits: int = _DEFAULT_GRID_BITS, require_monotone: bool = True) -> CircleLift:
    """Track the argument of func along the circle, doubling the grid until unambiguous."""
    bits = grid_bits
    while True:
        n = 1 << bits
        thetas = np.linspace(0.0, TWO_PI, n + 1)
        vals = np.asarray(func(np.exp(1j * thetas)), dtype=complex)
        args = np.unwrap(np.angle(vals))
        steps = np.diff(args)
        ambiguous = np.max(np.abs(steps)) >= 0.9 * math.pi
        non_monotone = require_monotone and np.any(steps <= 0.0)
        if not ambiguous and not non_monotone:
            winding = (args[-1] - args[0]) / TWO_PI
            rounded = round(winding)
            if abs(winding - rounded) > 1e-6:
                raise ValueError(f"lift winding {winding} is not an integer")
            return CircleLift(func, thetas, args, rounded)
        if bits >= _MAX_GRID_BITS:
            raise LiftGridExhausted("circle lift grid exhausted; map varies too fast")
        bits += 1


def circle_lift(b: BlaschkeProduct, n: int = 1, grid_bits: int = _DEFAULT_GRID_BITS) -> CircleLift:
    return build_lift(lambda z: b.iterate(z, n), grid_bits=grid_bits)


# ---------------------------------------------------------------------------
# Boundary periodic points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CirclePeriodicPoint:
    theta: float
    branch: int
    residual: float


def _vector_branch_roots(lift: CircleLift, refine_tol: float = 5e-14) -> list[tuple[float, int]]:
    """All roots (theta, j) of lift(theta) = theta + 2pi j on [0, 2pi], over every branch j.

    The branches j are those the displacement lift(theta) - theta reaches on
    the grid. Brackets from every branch equation are refined together, one
    vectorised map evaluation per bisection level; lift values at midpoints
    continue analytically from the tracked left-endpoint anchor.
    """
    h = lift.values - lift.thetas
    j_lo = math.ceil(h.min() / TWO_PI - 1e-12)
    j_hi = math.floor(h.max() / TWO_PI + 1e-12)
    roots: list[tuple[float, int]] = []
    lo_list, hi_list, glo_list, Glo_list, jj_list = [], [], [], [], []
    for j in range(j_lo, j_hi + 1):
        hj = h - TWO_PI * j
        on_node = np.nonzero(hj == 0.0)[0]
        roots.extend((float(lift.thetas[k]), int(j)) for k in on_node)
        crossing = np.nonzero(hj[:-1] * hj[1:] < 0.0)[0]
        for k in crossing:
            lo_list.append(lift.thetas[k])
            hi_list.append(lift.thetas[k + 1])
            glo_list.append(hj[k])
            Glo_list.append(lift.values[k])
            jj_list.append(j)
    if lo_list:
        lo = np.array(lo_list)
        hi = np.array(hi_list)
        g_lo = np.array(glo_list)
        G_lo = np.array(Glo_list)
        jj = np.array(jj_list, dtype=float)
        while np.max(hi - lo) > refine_tol:
            mid = 0.5 * (lo + hi)
            raw = np.angle(lift.func(np.exp(1j * mid)))
            G_mid = G_lo + (raw - G_lo + math.pi) % TWO_PI - math.pi
            g_mid = G_mid - mid - TWO_PI * jj
            left = (g_lo * g_mid < 0.0) | (g_mid == 0.0)
            hi = np.where(left, mid, hi)
            move = ~left
            lo = np.where(move, mid, lo)
            g_lo = np.where(move, g_mid, g_lo)
            G_lo = np.where(move, G_mid, G_lo)
        roots.extend(
            (float(t), int(j)) for t, j in zip(0.5 * (lo + hi), jj_list)
        )
    return roots


def circle_periodic_points(
    b: BlaschkeProduct, n: int, dedup_tol: float = 1e-10
) -> list[CirclePeriodicPoint]:
    """Fixed points of the boundary map of B^n, one branch equation per 2pi j.

    For B of degree d >= 2 there are at most d^n - 1 points, with equality for
    z^d. If a branch equation has several roots the lift was not expanding
    there; a LiftNotExpandingWarning is issued and all roots are returned.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if b.degree < 2:
        raise ValueError("degree must be >= 2")
    found = _vector_branch_roots(circle_lift(b, n))

    per_j: dict[int, int] = {}
    for _, j in found:
        per_j[j] = per_j.get(j, 0) + 1
    if any(c > 1 for c in per_j.values()):
        warnings.warn(
            "some branch equations had multiple roots", LiftNotExpandingWarning
        )

    found.sort()
    points: list[CirclePeriodicPoint] = []
    for theta, j in found:
        t = theta % TWO_PI
        # Sorted by angle, a root can only repeat the last point kept or,
        # across 0 = 2pi, the first one.
        if any(
            abs(t - p.theta) < dedup_tol or abs(abs(t - p.theta) - TWO_PI) < dedup_tol
            for p in points[-1:] + points[:1]
        ):
            continue
        z = cmath.exp(1j * t)
        residual = abs(b.iterate(z, n) - z)
        points.append(CirclePeriodicPoint(t, j, residual))
    return points


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


def denjoy_wolff(
    b: BlaschkeProduct,
    tol: float = 1e-9,
    budget: int = 2000,
    z0: complex = 0.0 + 0.0j,
) -> DenjoyWolff:
    """Locate the Denjoy-Wolff point by iteration from z0 (default 0).

    Interior: the orbit becomes Cauchy inside |z| <= 1 - tol and a Newton
    polish lands on the fixed point. Boundary: the orbit hugs the circle for
    _BOUNDARY_RUN consecutive steps; the limit angle is refined to a circle
    fixed point with derivative <= 1 + tol. Elliptic rotations do neither and
    raise RotationLike.
    """
    z = complex(z0)
    boundary_run = 0
    for _ in range(budget):
        w = b.evaluate(z)
        if abs(w) > 1.0 - _BOUNDARY_NEAR:
            boundary_run += 1
            if boundary_run >= _BOUNDARY_RUN:
                return _refine_boundary(b, cmath.phase(w), tol)
        else:
            boundary_run = 0
        if abs(w - z) < 1e-9 and abs(w) <= 1.0 - tol:
            p = _newton_fixed_point(b, w)
            dm = abs(b.eval_with_derivative(p)[1])
            if dm >= 1.0 - 1e-9:
                # a neutral interior fixed point makes B an elliptic automorphism
                raise RotationLike(f"neutral interior fixed point at {p}")
            return DenjoyWolff(p, INTERIOR, dm)
        z = w
    raise RotationLike("orbit neither contracts nor approaches the boundary")


def _newton_fixed_point(b: BlaschkeProduct, z: complex, steps: int = 50) -> complex:
    for _ in range(steps):
        val, der = b.eval_with_derivative(z)
        g, gp = val - z, der - 1.0
        if gp == 0:
            break
        step = g / gp
        z = z - step
        if abs(step) < 1e-15:
            break
    return z


def _circle_fixed_points(b: BlaschkeProduct) -> list[float]:
    lift = build_lift(b.evaluate, require_monotone=False)
    return sorted(t % TWO_PI for t, _ in _vector_branch_roots(lift))


def _refine_boundary(b: BlaschkeProduct, theta_hat: float, tol: float) -> DenjoyWolff:
    candidates = _circle_fixed_points(b)
    best = None
    for t in candidates:
        dm = b.boundary_derivative_modulus(t)
        if dm > 1.0 + tol:
            continue
        gap = abs((t - theta_hat + math.pi) % TWO_PI - math.pi)
        if best is None or gap < best[0]:
            best = (gap, t, dm)
    if best is None:
        raise RotationLike("no non-repelling boundary fixed point found")
    _, t, dm = best
    return DenjoyWolff(cmath.exp(1j * t), BOUNDARY, dm)


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
        num = np.polynomial.polynomial.polyval(z, np.asarray(self.num, dtype=complex))
        den = np.polynomial.polynomial.polyval(z, np.asarray(self.den, dtype=complex))
        w = num / den
        return w if w.ndim else complex(w)


@dataclass(frozen=True)
class InnerCandidateReport:
    circle_preserving: bool
    maps_disk_in: bool
    boundary_fixed_points: tuple[complex, ...]
    max_circle_error: float
    notes: tuple[str, ...]


def verify_inner_candidate(
    cand: RationalCircleMap, samples: int = 10**4, rng_seed: int = 0
) -> InnerCandidateReport:
    """Audit a rational candidate: circle preservation, disk invariance, boundary fixed points."""
    thetas = TWO_PI * np.arange(samples) / samples
    z = np.exp(1j * thetas)
    den = np.polynomial.polynomial.polyval(z, np.asarray(cand.den, dtype=complex))
    if np.min(np.abs(den)) < 1e-12:
        raise PoleOnCircle("denominator vanishes on the sampled circle")
    w = cand.evaluate(z)
    max_err = float(np.max(np.abs(np.abs(w) - 1.0)))
    circle_preserving = max_err < 1e-12

    notes: list[str] = []
    v0 = cand.evaluate(0.0 + 0.0j)
    maps_disk_in = abs(v0) < 1.0
    if maps_disk_in:
        rng = np.random.default_rng(rng_seed)
        r = np.sqrt(rng.uniform(0.0, 1.0, 256)) * 0.999
        phi = rng.uniform(0.0, TWO_PI, 256)
        inside = cand.evaluate(r * np.exp(1j * phi))
        maps_disk_in = bool(np.all(np.abs(inside) < 1.0))
    if not maps_disk_in:
        notes.append(f"candidate does not map the disk into itself: g(0) = {v0}")

    fixed: list[complex] = []
    if circle_preserving:
        lift = build_lift(cand.evaluate, require_monotone=False)
        for t in sorted(t % TWO_PI for t, _ in _vector_branch_roots(lift, 1e-14)):
            p = cmath.exp(1j * t)
            if any(abs(p - q) < 1e-9 for q in fixed):
                continue
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
