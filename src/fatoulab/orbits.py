"""Forward-orbit classification into escaping / bounded / undecided.

One vectorised kernel decides every verdict, and with it the label class of
each point: the one rule for which points count as Fatou evidence and which
component class they join. Verdicts fire at the first step whose condition
holds, which makes the classification monotone in the budget: any
non-Undecided verdict at budget b is reproduced verbatim at every larger
budget.

The kernel runs its step loop to the end on consecutive blocks of `_BLOCK`
points, so that a block's working arrays stay in a core's L2 cache instead of
streaming through memory at every step. Each orbit depends on its start point
alone, so the results do not depend on the block size.

Each step is one `EntireMap.evaluate_array` call. Escape is read from its
value alone: where f overflows to inf or nan, the value fails |w| <= R and
every capture test, so overflow escapes at the step it happens, with class 0.

Every Fatou verdict is the first entry into a set S with f(S) inside S:

- An attracting fixed point p captures an orbit at its first step inside a
  certified disk D(p, r), one that f maps into D(p, 0.99 r) with
  |f'| <= 0.99 on it (`certified_radius`): every orbit that enters such a
  disk converges to p. A listed cycle of period q > 1, or a fixed point with
  no certified disk, captures an orbit instead when it comes within tol/4 of
  p and q more steps move it by less than tol.
- The parabolic point 0 of z_exp takes an orbit at its first step in the
  petal {Re(1/z) > PETAL}. w = 1/z conjugates f to F(w) = w e^{1/w}, and for
  |w| >= 2, |F(w) - w - 1| <= 2(e^{1/2} - 3/2) < 0.3: every {Re(1/z) > c}
  with c >= 2 is invariant, and Re(1/z) grows by more than 0.7 a step in it.
- A drift escape of z_plus_exp or fatou_plus fires at the first step n with
  f^{n-1}(z) in S, Re f^{n-1} < DRIFT_MAX_RE and Re f^n > Re f^{n-1} in
  floating point. For z_plus_exp S is a half-strip
  {x > 0, |y - 2 pi k| < pi/2}, where Re f - x = e^{-x} cos y > 0 and
  |y - 2 pi k| shrinks; for fatou_plus it is the half-plane {x > 0}, where
  Re f >= x + 1 - e^{-x} > x. The two floating-point conditions keep the
  verdict off orbits that stall where e^{-x} is below a few ulps of x.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .catalog import (
    EXP_LAMBDA,
    FATOU_MINUS,
    FATOU_PLUS,
    TWO_PI,
    Z_EXP,
    Z_PLUS_EXP,
    EntireMap,
    damped_newton,
)
from .errors import Overflow

DEFAULT_ESCAPE_RADIUS = 50.0
DEFAULT_TOL = 1e-6

_DRIFT_FAMILIES = (Z_PLUS_EXP, FATOU_PLUS)

# c of the petal {Re(1/z) > c}, in z the disk x > c (x^2 + y^2). An orbit
# stays in |z| < 1/c from its verdict on. The sector rule it replaced,
# |z| < 1e-3 with Re z > |Im z|, lies inside c = 707, so c = 600 decides no
# cell later; c >= 500 keeps orbits in the |z| < 2e-3 that the benchmark checks.
PETAL = 600.0

# A drift rise counts only from Re z < DRIFT_MAX_RE. Past it e^{-x} is within
# a few dozen ulps of x, and a z_plus_exp orbit can stall in floating point
# (x + e^{-x} cos y rounds to x), so one ulp of f would decide it.
DRIFT_MAX_RE = 30.0

# Certified attracting disks: radii 1, 1/2, ... down to 2^-_RADIUS_HALVINGS,
# each mapped into _CONTRACTION times itself with |f'| <= _CONTRACTION on it.
_RADIUS_HALVINGS = 20
_CONTRACTION = 0.99

# Label classes of Fatou evidence; 0 marks a point that is not evidence
# (undecided, or escaping past the radius or by overflow).
CLASS_ATTRACTING = 1000  # + attractor index j
CLASS_PARABOLIC = 2000
CLASS_DRIFT = 3500  # + half-strip k of z_plus_exp, the nearest integer to Im z / 2 pi

# Points per kernel block, about 2 MB of working arrays. On exp_lambda, z_exp
# and fatou_minus grids 2^14 ran slower, fatou_minus (17 attractor tests per
# step) most, and 2^16 no faster.
_BLOCK = 1 << 15


class Kind(enum.IntEnum):
    UNDECIDED = 0
    ESCAPING = 1
    ATTRACTING = 2
    PARABOLIC = 3


@dataclass
class OrbitArrays:
    """Struct-of-arrays result of the vectorised classifier."""

    kinds: np.ndarray       # int8 Kind
    iterations: np.ndarray  # int32, f-applications at verdict (budget if undecided)
    classes: np.ndarray     # int32 label class, 0 where not Fatou evidence


def default_attractors(
    m: EntireMap, k_bound: int = 8, escape_radius: float = DEFAULT_ESCAPE_RADIUS
) -> tuple[tuple[complex, int], ...]:
    """Known attracting cycles per family (empty where none exist).

    Only cycles of modulus below `escape_radius` are kept: orbits escape
    before they could reach the others.
    """
    cycles: tuple[tuple[complex, int], ...] = ()
    if m.family == EXP_LAMBDA and 0 < m.lam < 1.0 / math.e:

        def g(z: complex) -> tuple[complex, complex]:
            fz, dfz = m.eval_with_derivative(z)
            return fz - z, dfz - 1.0

        # From 0, Newton lands on -W0(-lam) in [0, 1). A residual of 1e-15 can
        # stop a step early, up to 3e-15 off; 3e-16 is just above rounding.
        cycles = ((complex(damped_newton(g, 0.0, 3e-16, 50)), 1),)
    elif m.family == FATOU_MINUS:
        cycles = tuple((complex(0.0, TWO_PI * k), 1) for k in range(-k_bound, k_bound + 1))
    return tuple(c for c in cycles if abs(c[0]) < escape_radius)


def certified_radius(m: EntireMap, p: complex) -> float | None:
    """The largest r of 1, 1/2, ..., 2^-20 whose disk D(p, r) certifies p as attracting.

    With L = m.derivative_bound(p, r), the disk is certified when
    L r + |f(p) - p| <= 0.99 r: then f maps D(p, r) into D(p, 0.99 r), and
    L <= 0.99 follows, so f contracts the disk and every orbit entering it
    converges to the fixed point it holds. None when no radius qualifies, or
    f(p) overflows.
    """
    try:
        gap = abs(m.evaluate(p) - p)
    except Overflow:
        return None
    # L r + gap <= 0.99 r needs gap < 0.99, which also keeps the bound finite
    if not gap < _CONTRACTION:
        return None
    for halvings in range(_RADIUS_HALVINGS + 1):
        r = math.ldexp(1.0, -halvings)
        if m.derivative_bound(p, r) * r + gap <= _CONTRACTION * r:
            return r
    return None


def attractor_conjugation(
    attractors: tuple[tuple[complex, int], ...], tol: float = DEFAULT_TOL
) -> np.ndarray | None:
    """sigma with attractors[sigma[j]] = (conj p_j, q_j), or None when some
    conj p_j is not listed with the period q_j, or when sigma would reverse
    the order of two entries whose capture regions can meet.

    sigma[j] is the first such entry. A map with real coefficients takes the
    capture region of p_j onto that of conj p_j, and a point in two regions
    goes to the first entry, so the conjugate of an orbit captured by
    attractor j is captured by attractor sigma[j]. A region lies within a
    certified radius (at most 1) or tol/4 of its point.
    """
    first: dict[tuple[complex, int], int] = {}
    for i, a in enumerate(attractors):
        first.setdefault(a, i)
    sigma = [first.get((p.conjugate(), q)) for p, q in attractors]
    if None in sigma:
        return None
    reach = [max(1.0, tol / 4.0) if q == 1 else tol / 4.0 for _, q in attractors]
    for i, j in itertools.combinations(range(len(attractors)), 2):
        if sigma[i] > sigma[j] and abs(attractors[i][0] - attractors[j][0]) < reach[i] + reach[j]:
            return None
    return np.array(sigma, dtype=np.int32)


def conjugate_classes(orbits: OrbitArrays, sigma: np.ndarray) -> None:
    """Turn the classes of `orbits` into those of the conjugate start points, in place.

    Every catalog map has real coefficients, so f(conj z) = conj f(z), bit
    for bit as numpy computes it, and each verdict test is symmetric: the
    orbit of conj z gets the same kind and step. Only its class moves,
    capture by attractor j to capture by sigma[j] (`attractor_conjugation`)
    and drift in half-strip k to drift in half-strip -k. The kinds tell the
    verdicts apart, where the class numbers of far strips can coincide with
    attractor or parabolic classes. Blocks of `_BLOCK` points keep the masks
    small, which keeps a render's peak memory where it was without the fold.
    """
    for lo in range(0, orbits.classes.size, _BLOCK):
        kinds, classes = orbits.kinds[lo:lo + _BLOCK], orbits.classes[lo:lo + _BLOCK]
        att = kinds == Kind.ATTRACTING
        classes[att] = CLASS_ATTRACTING + sigma[classes[att] - CLASS_ATTRACTING]
        drift = (kinds == Kind.ESCAPING) & (classes != 0)
        np.subtract(2 * CLASS_DRIFT, classes, out=classes, where=drift)


def parabolic_points(m: EntireMap) -> tuple[complex, ...]:
    return (0.0 + 0.0j,) if m.family == Z_EXP else ()


def classify_orbits_array(
    m: EntireMap,
    z0: np.ndarray,
    budget: int,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
    attractors: tuple[tuple[complex, int], ...] = (),
    tol: float = DEFAULT_TOL,
) -> OrbitArrays:
    """Kinds, verdict steps and label classes of the orbits of `z0`.

    The class is the kernel's Fatou verdict: CLASS_ATTRACTING + j at capture
    by attractor j, CLASS_PARABOLIC in the parabolic petal, CLASS_DRIFT + k
    for a drift escape in the half-strip k of z_plus_exp (CLASS_DRIFT for
    fatou_plus), and 0 otherwise. The iterations of a verdict are its step n:
    the first step inside the certified disk or the petal, or the step of the
    first resolved rise from S.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    for p, _ in attractors:
        if abs(p) >= escape_radius:
            raise ValueError("escape_radius must exceed every attractor modulus")

    z = np.asarray(z0, dtype=complex).ravel()
    n = z.size
    kinds = np.zeros(n, dtype=np.int8)
    iterations = np.full(n, budget, dtype=np.int32)
    classes = np.zeros(n, dtype=np.int32)
    radii = tuple(certified_radius(m, p) if q == 1 else None for p, q in attractors)
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        _classify_block(
            m, z[block], budget, escape_radius, attractors, radii, tol,
            kinds[block], iterations[block], classes[block],
        )
    return OrbitArrays(kinds, iterations, classes)


def _classify_block(
    m: EntireMap,
    z: np.ndarray,
    budget: int,
    escape_radius: float,
    attractors: tuple[tuple[complex, int], ...],
    radii: tuple[float | None, ...],
    tol: float,
    kinds: np.ndarray,
    iterations: np.ndarray,
    classes: np.ndarray,
) -> None:
    """Run the step loop of `classify_orbits_array` on one block to the end.

    `radii` holds each attractor's certified radius, or None where the tol
    rule applies. Writes each point's verdict into the block's views `kinds`,
    `iterations` and `classes`. The orbits still running stay compacted: `z`
    and `pos` (their positions in the block) hold only them.
    """
    pos = np.arange(z.size)
    # The one parabolic point of the catalog is 0, so w - p is w itself.
    parabolic = bool(parabolic_points(m))
    drift = m.family in _DRIFT_FAMILIES
    strips = m.family == Z_PLUS_EXP
    capture = tol / 4.0

    for step in range(1, budget + 1):
        if pos.size == 0:
            break
        w = m.evaluate_array(z)
        abs_w = np.abs(w)

        # Overflow of f (inf or nan fails the test) and a modulus past the
        # radius escape; neither is Fatou evidence (class 0).
        escaped = ~(abs_w <= escape_radius)
        undecided = ~escaped
        for j, ((p, q), r) in enumerate(zip(attractors, radii)):
            sel = np.flatnonzero(np.abs(w - p) < (capture if r is None else r))
            sel = sel[undecided[sel]]
            if r is None and sel.size:
                wq = w[sel]
                for _ in range(q):
                    wq = m.evaluate_array(wq)
                sel = sel[np.abs(wq - w[sel]) < tol]  # fails where wq overflowed
            kinds[pos[sel]] = Kind.ATTRACTING
            classes[pos[sel]] = CLASS_ATTRACTING + j
            undecided[sel] = False

        if parabolic:
            # x > c |w|^2 implies |w| < 1/c: the test runs on those few points
            sel = np.flatnonzero(abs_w < 1.0 / PETAL)
            x, y = w.real[sel], w.imag[sel]
            sel = sel[undecided[sel] & (x > PETAL * (x * x + y * y))]
            kinds[pos[sel]] = Kind.PARABOLIC
            classes[pos[sel]] = CLASS_PARABOLIC
            undecided[sel] = False

        if drift:
            # For z_plus_exp a rise from x > 0 means e^{-x} cos y > 0, which
            # places z in S: the sign of the computed cosine is exact.
            drifted = undecided & (z.real > 0.0) & (z.real < DRIFT_MAX_RE) & (w.real > z.real)
            if drifted.any():
                strip = np.round(w.imag[drifted] / TWO_PI).astype(np.int32) if strips else 0
                classes[pos[drifted]] = CLASS_DRIFT + strip
                escaped |= drifted
                undecided &= ~drifted

        if undecided.all():
            z = w
        else:
            kinds[pos[escaped]] = Kind.ESCAPING
            iterations[pos[~undecided]] = step
            pos, z = pos[undecided], w[undecided]
