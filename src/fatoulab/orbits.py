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

An attracting fixed point p captures an orbit at its first step inside a
certified disk D(p, r), one that f maps into D(p, 0.99 r) with |f'| <= 0.99
on it (`certified_radius`): every orbit that enters such a disk converges to
p. A listed cycle of period q > 1, or a fixed point with no certified disk,
captures an orbit instead when it comes within tol/4 of p and q more steps
move it by less than tol.
"""

from __future__ import annotations

import enum
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

# Baker-domain drift heuristic (family-specific, calibrated on the known
# absorbing behaviour): escape is certified after Re f^n has increased for
# DRIFT_RUN consecutive steps while beyond DRIFT_MIN_RE.
DRIFT_MIN_RE = 3.0
DRIFT_RUN = 50
_DRIFT_FAMILIES = (Z_PLUS_EXP, FATOU_PLUS)

# Parabolic certification (z_exp): the petal attracts along R+, so we require
# a small modulus, an argument inside the petal sector and a shrinking step.
PARABOLIC_ABS = 1e-3

# Certified attracting disks: radii 1, 1/2, ... down to 2^-_RADIUS_HALVINGS,
# each mapped into _CONTRACTION times itself with |f'| <= _CONTRACTION on it.
_RADIUS_HALVINGS = 20
_CONTRACTION = 0.99

# Label classes of Fatou evidence; 0 marks a point that is not evidence
# (undecided, or escaping past the radius or by overflow).
CLASS_ATTRACTING = 1000  # + attractor index j
CLASS_PARABOLIC = 2000
CLASS_DRIFT = 3500  # + drift strip k, the nearest integer to Im z / 2 pi

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
    for a drift-certified escape ending near strip k, and 0 otherwise.
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
    `iterations` and `classes`. The orbits still running stay compacted:
    `z`, `pos` (their positions in the block) and, for the drift families,
    `drift_count` hold only them.
    """
    pos = np.arange(z.size)
    drift_count = np.zeros(z.size, dtype=np.int16) if m.family in _DRIFT_FAMILIES else None
    # The one parabolic point of the catalog is 0, so w - p is w itself.
    parabolic = bool(parabolic_points(m))
    capture = tol / 4.0

    for step in range(1, budget + 1):
        if pos.size == 0:
            break
        w, bad = m.evaluate_array(z)
        abs_w = np.abs(w)

        # Overflow of the exponential is escape evidence for every catalog map;
        # neither it nor a modulus past the radius is Fatou evidence (class 0).
        escaped = bad | (abs_w > escape_radius)
        undecided = ~escaped
        for j, ((p, q), r) in enumerate(zip(attractors, radii)):
            sel = np.flatnonzero(np.abs(w - p) < (capture if r is None else r))
            sel = sel[undecided[sel]]
            if r is None and sel.size:
                wq, okq = w[sel], np.ones(sel.size, dtype=bool)
                for _ in range(q):
                    wq, badq = m.evaluate_array(wq)
                    okq &= ~badq
                sel = sel[okq & (np.abs(wq - w[sel]) < tol)]
            kinds[pos[sel]] = Kind.ATTRACTING
            classes[pos[sel]] = CLASS_ATTRACTING + j
            undecided[sel] = False

        if parabolic:
            # the petal test runs on the few points near 0 only
            sel = np.flatnonzero(abs_w < PARABOLIC_ABS)
            sel = sel[undecided[sel] & (w.real[sel] > np.abs(w.imag[sel]))]
            if sel.size:
                w1, bad1 = m.evaluate_array(w[sel])
                sel = sel[~bad1 & (np.abs(w1) <= abs_w[sel])]
                kinds[pos[sel]] = Kind.PARABOLIC
                classes[pos[sel]] = CLASS_PARABOLIC
                undecided[sel] = False

        if drift_count is not None:
            rising = (w.real > z.real) & (w.real > DRIFT_MIN_RE) & ~bad
            drift_count = np.where(rising, drift_count + 1, 0)
            drifted = undecided & (drift_count >= DRIFT_RUN)
            if drifted.any():
                strip = np.round(w[drifted].imag / TWO_PI).astype(np.int32)
                classes[pos[drifted]] = CLASS_DRIFT + strip
                escaped |= drifted
                undecided &= ~drifted

        if undecided.all():
            z = w
        else:
            kinds[pos[escaped]] = Kind.ESCAPING
            iterations[pos[~undecided]] = step
            pos, z = pos[undecided], w[undecided]
            if drift_count is not None:
                drift_count = drift_count[undecided]
