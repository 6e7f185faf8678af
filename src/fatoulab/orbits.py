"""Forward-orbit classification into escaping / bounded / undecided.

One vectorised kernel decides every verdict, and with it the label class of
each point: the one rule for which points count as Fatou evidence and which
component class they join. Verdicts fire at the first step whose condition
holds, which makes the classification monotone in the budget: any
non-Undecided verdict at budget b is reproduced verbatim at every larger
budget.

The kernel splits its points into k interleaved parts, one per usable CPU and
at most one per block of `_BLOCK` points, and steps each part's blocks in
turn, part 0 on the calling thread and the others on helper threads: numpy
releases the GIL in exp and the other large array loops, and a block's working
arrays stay in a core's L2 cache. At every part count a block stops once fewer
than `_TAIL` orbits run, and after the helpers join the calling thread steps
all these tails as one working set, each joining at the step it stopped on.
Each orbit depends on its start point alone, so no result depends on the
block size, the part count or the tail size.

Each step is one `EntireMap.evaluate_array` call. Escape is read from its
value alone: a value escapes unless its float parts have x^2 + y^2 <= R^2.
Where f overflows to inf or nan, the value fails that test and every capture
test, so overflow escapes at the step it happens, with class 0.

Every Fatou verdict is the first entry into a set S with f(S) inside S:

- A listed attracting cycle, of any period q, captures an orbit at its first
  step inside a certified disk D(p, r) about its listed point p, one that f^q
  maps into D(p, 0.99 r) with |(f^q)'| <= 0.99 on it (`certified_radius`):
  every orbit that enters such a disk converges to the cycle. A listed entry
  with no certified disk is refused.
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
import os
import threading
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
# each mapped by f^q into _CONTRACTION times itself with |(f^q)'| <= _CONTRACTION on it.
_RADIUS_HALVINGS = 20
_CONTRACTION = 0.99

# Label classes of Fatou evidence; 0 marks a point that is not evidence
# (undecided, or escaping past the radius or by overflow).
CLASS_ATTRACTING = 1000  # + attractor index j
CLASS_PARABOLIC = 2000
CLASS_DRIFT = 3500  # + half-strip k of z_plus_exp, the nearest integer to Im z / 2 pi

# Points per kernel block, about 2 MB of working arrays. On exp_lambda, z_exp
# and fatou_minus grids 2^14 ran slower, fatou_minus (15 attractor tests per
# step at the default radius) most, and 2^16 no faster. There are no more parts
# than blocks, so that every part starts on at least half a block: smaller
# parts would spend their steps waiting for the GIL between numpy calls.
_BLOCK = 1 << 15

# Running orbits below which a block leaves its part for the calling thread's
# working set. On small arrays two threads mostly wait for the GIL between numpy
# calls: without this rule a 500^2 fatou_minus grid ran 1.2-1.3 times as long.
_TAIL = _BLOCK // 8


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

    Only certified cycles of modulus below `escape_radius` are kept: orbits
    escape before they could reach the others, and the kernel refuses the
    rest (exp_lambda within about 2e-5 of 1/e, multiplier above 0.99).
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
    return tuple((p, q) for p, q in cycles
                 if abs(p) < escape_radius and certified_radius(m, p, q) is not None)


def certified_radius(m: EntireMap, p: complex, q: int) -> float | None:
    """The largest r of 1, 1/2, ..., 2^-20 whose disk D(p, r) certifies p as
    a point of an attracting cycle of period q.

    With p_0 = p, p_{i+1} = f(p_i), s_0 = r and s_{i+1} = L_i s_i, where
    L_i = m.derivative_bound(p_i, s_i), f maps D(p_i, s_i) into
    D(p_{i+1}, s_{i+1}). So s_q + |p_q - p| <= 0.99 r makes f^q map D(p, r)
    into D(p, 0.99 r) with |(f^q)'| <= s_q / r <= 0.99 there, and every orbit
    entering the disk converges to the cycle. None when no radius qualifies,
    or the orbit or a bound overflows.
    """
    try:
        orbit = [p]
        for _ in range(q):
            orbit.append(m.evaluate(orbit[-1]))
        gap = abs(orbit.pop() - p)
        for halvings in range(_RADIUS_HALVINGS + 1):
            r = s = math.ldexp(1.0, -halvings)
            for point in orbit:
                s = m.derivative_bound(point, s) * s
            if s + gap <= _CONTRACTION * r:
                return r
    except (Overflow, OverflowError):  # f past the scalar guard; math.exp in the bound
        pass
    return None


def attractor_conjugation(attractors: tuple[tuple[complex, int], ...]) -> np.ndarray | None:
    """sigma with attractors[sigma[j]] = (conj p_j, q_j), or None when some
    conj p_j is not listed with the period q_j, or when sigma would reverse
    the order of two entries whose capture regions can meet.

    sigma[j] is the first such entry. A map with real coefficients takes the
    capture region of p_j onto that of conj p_j, and a point in two regions
    goes to the first entry, so the conjugate of an orbit captured by
    attractor j is captured by attractor sigma[j]. A region is a certified
    disk, of radius at most 1 about its point.
    """
    first: dict[tuple[complex, int], int] = {}
    for i, a in enumerate(attractors):
        first.setdefault(a, i)
    sigma = [first.get((p.conjugate(), q)) for p, q in attractors]
    if None in sigma:
        return None
    for i, j in itertools.combinations(range(len(attractors)), 2):
        if sigma[i] > sigma[j] and abs(attractors[i][0] - attractors[j][0]) < 2.0:
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
) -> OrbitArrays:
    """Kinds, verdict steps and label classes of the orbits of `z0`.

    The class is the kernel's Fatou verdict: CLASS_ATTRACTING + j at capture
    by attractor j, CLASS_PARABOLIC in the parabolic petal, CLASS_DRIFT + k
    for a drift escape in the half-strip k of z_plus_exp (CLASS_DRIFT for
    fatou_plus), and 0 otherwise. The iterations of a verdict are its step n:
    the first step inside the certified disk or the petal, or the step of the
    first resolved rise from S. ValueError for an attractor (p, q) without a
    certified disk.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    disks = []
    for p, q in attractors:
        if abs(p) >= escape_radius:
            raise ValueError("escape_radius must exceed every attractor modulus")
        r = certified_radius(m, p, q)
        if r is None:
            raise ValueError(f"no certified attracting disk about {p} for period {q}")
        disks.append((p, r))

    z = np.asarray(z0, dtype=complex).ravel()
    n = z.size
    kinds = np.zeros(n, dtype=np.int8)
    iterations = np.full(n, budget, dtype=np.int32)
    classes = np.zeros(n, dtype=np.int32)
    k = max(1, min(_usable_cpus(), -(-n // _BLOCK)))
    tails: list[tuple[np.ndarray, np.ndarray, int]] = []
    errors: list[BaseException] = []

    def run_part(i: int) -> None:
        try:
            # numpy's error state is per thread. A squared modulus past the
            # float range is inf, and fails the escape and capture tests.
            with np.errstate(over="ignore"):
                for lo in range(i, n, k * _BLOCK):
                    pos = np.arange(lo, min(n, lo + k * _BLOCK), k)
                    tails.append(_classify_block(m, z[pos], pos, 1, _TAIL, budget, escape_radius,
                                                 disks, kinds, iterations, classes))
        except BaseException as exc:  # raised on the calling thread once every helper has joined
            errors.append(exc)

    helpers = [threading.Thread(target=run_part, args=(i,)) for i in range(1, k)]
    try:
        for t in helpers:
            t.start()
        run_part(0)
    finally:
        for t in helpers:
            if t.ident is not None:  # started
                t.join()
    if errors:
        raise errors[0]
    # The tails join one working set in step order, each at the step it stopped on;
    # a block that spent its budget comes back at budget + 1 and is not stepped again.
    zw, pw, step = z[:0], np.arange(0), 1
    with np.errstate(over="ignore"):
        for zt, pt, st in sorted(tails, key=lambda t: t[2]) + [(z[:0], pw, budget + 1)]:
            zw, pw, _ = _classify_block(m, zw, pw, step, 0, st - 1, escape_radius, disks,
                                        kinds, iterations, classes)
            zw, pw, step = np.concatenate((zw, zt)), np.concatenate((pw, pt)), st
    return OrbitArrays(kinds, iterations, classes)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _classify_block(
    m: EntireMap,
    z: np.ndarray,
    pos: np.ndarray,
    step: int,
    stop: int,
    last: int,
    escape_radius: float,
    disks: list[tuple[complex, float]],
    kinds: np.ndarray,
    iterations: np.ndarray,
    classes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the step loop of `classify_orbits_array` on the orbits at `z` from
    `step` through step `last`, or until fewer than `stop` of them run.

    `pos` holds each orbit's position in the whole arrays `kinds`,
    `iterations` and `classes`, into which each verdict is written, and
    `disks` each attractor's point and certified radius. The orbits still
    running stay compacted: `z` and `pos` hold only them. Returns `z`, `pos`
    and the next step, from which a later call goes on.
    """
    # The one parabolic point of the catalog is 0, so w - p is w itself.
    parabolic = bool(parabolic_points(m))
    drift = m.family in _DRIFT_FAMILIES
    strips = m.family == Z_PLUS_EXP

    while step <= last and pos.size and pos.size >= stop:
        w = m.evaluate_array(z)
        # Float parts round alike at every SIMD dispatch level; complex abs does not.
        wx, wy = w.real, w.imag
        mod2 = wx * wx + wy * wy

        # Overflow of f (inf or nan fails the test) and a modulus past the
        # radius escape; neither is Fatou evidence (class 0).
        escaped = ~(mod2 <= escape_radius * escape_radius)
        undecided = ~escaped
        for j, (p, r) in enumerate(disks):
            dx, dy = wx - p.real, wy - p.imag
            sel = np.flatnonzero(dx * dx + dy * dy < r * r)
            sel = sel[undecided[sel]]
            kinds[pos[sel]] = Kind.ATTRACTING
            classes[pos[sel]] = CLASS_ATTRACTING + j
            undecided[sel] = False

        if parabolic:
            sel = np.flatnonzero(undecided & (wx > PETAL * mod2))
            kinds[pos[sel]] = Kind.PARABOLIC
            classes[pos[sel]] = CLASS_PARABOLIC
            undecided[sel] = False

        if drift:
            # For z_plus_exp a rise from x > 0 means e^{-x} cos y > 0, which
            # places z in S: the sign of the computed cosine is exact.
            drifted = undecided & (z.real > 0.0) & (z.real < DRIFT_MAX_RE) & (wx > z.real)
            if drifted.any():
                strip = np.round(wy[drifted] / TWO_PI).astype(np.int32) if strips else 0
                classes[pos[drifted]] = CLASS_DRIFT + strip
                escaped |= drifted
                undecided &= ~drifted

        if undecided.all():
            z = w
        else:
            kinds[pos[escaped]] = Kind.ESCAPING
            iterations[pos[~undecided]] = step
            pos, z = pos[undecided], w[undecided]
        step += 1
    return z, pos, step
