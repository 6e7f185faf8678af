"""Branch-indexed inverse maps and pullback chains.

Branch indexing: for the exp-family maps (z + c + exp(-z)), branch k means
the preimage with Im z in ((2k-1)pi, (2k+1)pi]; the map is 2 pi i
pseudoperiodic, so branch k of w equals branch 0 of (w - 2 pi i k) shifted
back up. For exp_lambda, k is the 2 pi i k summand of the logarithm; for
z_exp, k is the Lambert-W branch index of z = -W(-w).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass

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
from .errors import (
    AmbiguousBranch,
    AsymptoticValueCollision,
    BranchJumpDetected,
    CriticalValueCollision,
    NewtonDiverged,
    Overflow,
)

_SV_TOL = 1e-12
_NEWTON_STEPS = 200
_RESIDUAL_TOL = 1e-12
_HALO = 2
# Consecutive points z_i, z_{i+1} of an orbit satisfy |f(z_i) - z_{i+1}| <= ORBIT_TOL.
ORBIT_TOL = 1e-8

_EXP_SHIFT = {FATOU_PLUS: 1.0, FATOU_MINUS: -1.0, Z_PLUS_EXP: 0.0}
# Principal Lambert W at -1: z e^z = -1, so z + exp(-z) = 0 (principal strip).
_W0_MINUS_ONE = complex(-0.3181315052047642, 1.3372357014306893)
# 1/e as the double nearest to it plus the remainder.
_INV_E = math.exp(-1.0)
_INV_E_LO = -1.2428753672788363e-17
# W_0 = sum of c_n p^n near the branch point, p = sqrt(2(e x + 1)).
_BRANCH_POINT_SERIES = (-1.0, 1.0, -1 / 3, 11 / 72, -43 / 540, 769 / 17280, -221 / 8505)
# Halley's iteration converges cubically; from the seeds a handful of steps do.
_HALLEY_STEPS = 32


def _singular_guard(m: EntireMap, w: complex, branch: int) -> complex | None:
    """Guard against singular values; returns the critical point on an exact hit.

    At an exact critical value the two merging branch inverses agree at the
    critical point, so that limit is returned; requests merely near one (the
    ill-conditioned annulus below 1e-12) raise CriticalValueCollision.
    Asymptotic values are logarithmic singularities with no usable limit and
    always raise.
    """
    if m.family == EXP_LAMBDA:
        if abs(w) < _SV_TOL:
            raise AsymptoticValueCollision("logarithm branch point at w = 0")
        return None
    if m.family == Z_EXP:
        if abs(w) < _SV_TOL:
            raise AsymptoticValueCollision("asymptotic value 0 of z*exp(-z)")
        if branch in (0, -1):
            d = abs(w - math.exp(-1.0))
            if d == 0.0:
                return 1.0 + 0.0j
            if d < _SV_TOL:
                raise CriticalValueCollision("critical value 1/e of z*exp(-z)")
        return None
    c = _EXP_SHIFT[m.family]
    cp = TWO_PI * 1j * branch
    cv = m.evaluate(cp)
    d = abs(w - cv)
    if d == 0.0:
        return cp
    if d < _SV_TOL:
        raise CriticalValueCollision(
            f"critical value {1.0 + c:+g} + 2 pi i {branch} of {m.family}"
        )
    return None


def _damped_newton(m: EntireMap, w: complex, seed: complex) -> complex:
    """Solve f(z) = w by damped Newton from seed."""
    def g(z: complex) -> tuple[complex, complex]:
        fz, dfz = m.eval_with_derivative(z)
        return fz - w, dfz

    return damped_newton(g, seed, _RESIDUAL_TOL, _NEWTON_STEPS)


def inverse(m: EntireMap, w: complex, branch: int) -> complex:
    """One preimage z with |f(z) - w| < 1e-12 on the given branch.

    exp_lambda uses the closed form log(w/lam) + 2 pi i k; z_exp uses the
    Lambert-W branch and raises NewtonDiverged when `branch_of` gives its root
    another index. For real w > 0, -w lies on a cut of W_k, where that index
    rests on rounding; there the root is returned as the seed's branch, the
    side of the cut SciPy's lambertw takes. The exp-family maps run damped
    Newton from strip seeds and verify strip membership of the result.
    """
    w = complex(w)
    exact_critical = _singular_guard(m, w, branch)
    if exact_critical is not None:
        return exact_critical

    if m.family == EXP_LAMBDA:
        return cmath.log(w / m.lam) + TWO_PI * 1j * branch

    if m.family == Z_EXP:
        z = _lambert_root(m, w, branch)
        on_cut = w.imag == 0 and w.real > 0
        if not on_cut and branch_of(m, z) != branch:
            raise NewtonDiverged(f"Lambert-W branch {branch} at {w} ended on branch {branch_of(m, z)}")
        return z

    # Reduce to the principal strip via 2 pi i pseudoperiodicity.
    v = w - TWO_PI * 1j * branch
    for z0 in _seed_roots(m, v):
        if -math.pi < z0.imag <= math.pi + 1e-12:
            return z0 + TWO_PI * 1j * branch
    raise NewtonDiverged(f"no principal-strip preimage found for {v}")


def _lambert_root(m: EntireMap, w: complex, k: int) -> complex:
    """The z_exp preimage -W_k(-w), polished by Newton from `_lambert_w`."""
    return _damped_newton(m, w, -_lambert_w(-w, k))


def _lambert_w(x: complex, k: int) -> complex:
    """W_k(x): a series seed taken to full precision by Halley's iteration
    (Corless et al. 1996).

    Newton stops at a residual of 1e-12, which next to the critical value
    1/e leaves a preimage of z_exp only to 1e-12 / |f'|; Halley's steps from
    the seed reach the rounding floor, so two polished roots of one point
    agree to far below the 1e-9 that tells preimages apart.
    """
    if k == -1 and x.imag == 0 and -_INV_E < x.real < 0:
        x = complex(x.real, 0.0)  # W_-1 is real here from either side of its cut, as in SciPy
    w = _lambert_seed(x, k)
    try:
        for _ in range(_HALLEY_STEPS):
            ew = cmath.exp(w)
            h = w * ew - x
            step = h / (ew * (w + 1) - (w + 2) * h / (2 * w + 2))
            w -= step
            if abs(step) <= 1e-15 * abs(w):
                break
    except (OverflowError, ZeroDivisionError) as exc:
        raise NewtonDiverged(f"Lambert-W branch {k} at {x}: {exc}") from exc
    return w


def _lambert_seed(x: complex, k: int) -> complex:
    """An approximation of W_k(x) (Corless et al. 1996) for Halley's iteration.

    W_0 near the branch point -1/e: the series in p = sqrt(2(e x + 1)), with
    e x + 1 = e (x + 1/e) from a two-part 1/e, so that x = -1/e in floating
    point gives p of order 1e-8, not 0. W_0 near 0: the [3/2] Pade form of
    its Taylor series. Otherwise the asymptotic L1 - L2 + L2/L1 with
    L1 = log x + 2 pi i k, L2 = log L1. The sign of a zero Im x picks the
    side of the cut along the negative real axis, as in cmath.log.
    """
    if k == 0:
        d = complex((x.real + _INV_E) + _INV_E_LO, x.imag)
        if abs(d) < 0.3:
            p = cmath.sqrt(complex(2.0 * math.e * d.real, 2.0 * math.e * d.imag))
            seed = 0j
            for c in reversed(_BRANCH_POINT_SERIES):
                seed = seed * p + c
            return seed
        if -0.7 < x.real < 2.0 and abs(x.imag) < 1.0:
            return x * (60.0 + x * (114.0 + 17.0 * x)) / (60.0 + x * (174.0 + 101.0 * x))
    if x == 0:
        raise NewtonDiverged(f"Lambert-W branch {k} is infinite at 0")
    l1 = cmath.log(x) + TWO_PI * 1j * k
    l2 = cmath.log(l1)
    return l1 - l2 + l2 / l1


def _seed_roots(m: EntireMap, v: complex) -> Iterator[complex]:
    """Newton roots of z + c + exp(-z) = v from the seeds v - c, where z
    dominates, and -log(v - c), where exp(-z) does. At v = c the log seed does
    not exist and v - c = 0 is the critical point, so the second seed is the
    root W_0(-1) of z + exp(-z) = 0 itself."""
    u = v - _EXP_SHIFT[m.family]
    for seed in (u, -cmath.log(u) if u != 0 else _W0_MINUS_ONE):
        try:
            yield _damped_newton(m, v, seed)
        except NewtonDiverged:
            pass


def branch_of(m: EntireMap, z: complex) -> int:
    """Branch index owning the preimage z (log summand, strip, or Lambert-W index)."""
    if m.family == EXP_LAMBDA:
        wrapped = (z.imag + math.pi) % TWO_PI - math.pi
        return round((z.imag - wrapped) / TWO_PI)
    if m.family == Z_EXP:
        # W = -z is W_k(x), x = W e^W, for k the unwinding number Im(W + log W -
        # log x)/2pi; Arg x is that of W e^{i Im W}. Only W_-1 (W < -1) and W_0 are real.
        w = -complex(z)
        if w.imag == 0.0:
            return -1 if w.real < -1.0 else 0
        arg_x = cmath.phase(w * cmath.exp(complex(0.0, w.imag)))
        return round((w.imag + cmath.phase(w) - arg_x) / TWO_PI)
    return math.ceil((z.imag - math.pi) / TWO_PI)


def _candidate_preimages(m: EntireMap, w: complex, near: complex) -> list[complex]:
    """Distinct preimages of w found from canonical branch seeds on the
    branches within _HALO of the one owning `near`.

    Used to measure how isolated the continuity preimage is (ambiguity and
    trust-radius accounting); the enumeration is best-effort, not exhaustive.
    """
    base = branch_of(m, near)
    found: list[complex] = []

    def push(z: complex) -> None:
        if abs(m.evaluate(z) - w) > 1e-9:
            return
        if all(abs(z - q) > 1e-9 for q in found):
            found.append(z)

    for k in range(base - _HALO, base + _HALO + 1):
        try:
            if m.family == EXP_LAMBDA:
                push(inverse(m, w, k))
            elif m.family == Z_EXP:
                push(_lambert_root(m, w, k))
            else:
                for z in _seed_roots(m, w - TWO_PI * 1j * k):
                    push(z + TWO_PI * 1j * k)
        except (AsymptoticValueCollision, NewtonDiverged, Overflow):
            pass
    return found


# ---------------------------------------------------------------------------
# Pullback chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    branch: int
    anchor: complex       # the known preimage z_i with f(z_i) ~ z_{i+1}
    residual: float       # |f(anchor) - next anchor|
    nearest_other: float  # distance from anchor to the nearest other preimage


@dataclass(frozen=True)
class BranchChain:
    """A composed inverse branch along an orbit; step i inverts z_{i+1} back to z_i."""

    map: EntireMap
    steps: tuple[ChainStep, ...]
    terminal: complex
    trust_radius: float

    def __len__(self) -> int:
        return len(self.steps)


def pullback_chain(m: EntireMap, orbit: list[complex]) -> BranchChain:
    """Select, per orbit step, the inverse branch that undoes it, recording indices.

    Precondition: consecutive points satisfy f(z_i) = z_{i+1} to ORBIT_TOL. Raises
    AmbiguousBranch when the two closest candidate preimages nearly merge
    (orbit through a critical value) or when the match is not clearly unique.
    """
    orbit = [complex(z) for z in orbit]
    if len(orbit) < 1:
        raise ValueError("orbit must contain at least one point")
    steps: list[ChainStep] = []
    for i in range(len(orbit) - 1):
        z_i, z_next = orbit[i], orbit[i + 1]
        residual = abs(m.evaluate(z_i) - z_next)
        if residual > ORBIT_TOL:
            raise ValueError(
                f"orbit is not consecutive at step {i}: |f(z_{i}) - z_{i+1}| = {residual:.3e}"
            )
        # The continuity preimage: the root of f(z) = z_next next to the anchor.
        p_best = _continuity_inverse(m, z_next, z_i)
        d_best = abs(p_best - z_i)
        others = [
            q for q in _candidate_preimages(m, z_next, z_i) if abs(q - p_best) > 1e-9
        ]
        nearest_other = min((abs(q - p_best) for q in others), default=math.inf)
        if nearest_other < 1e-6:
            raise AmbiguousBranch(
                f"two candidate preimages within 1e-6 at step {i} (near a critical value)"
            )
        d_second = min((abs(q - z_i) for q in others), default=math.inf)
        if d_best >= 0.5 * d_second:
            raise AmbiguousBranch(
                f"branch selection not unique at step {i}: {d_best:.3e} vs {d_second:.3e}"
            )
        steps.append(ChainStep(branch_of(m, p_best), z_i, residual, nearest_other))
    trust = 0.5 * min((s.nearest_other for s in steps), default=math.inf)
    return BranchChain(m, tuple(steps), orbit[-1], trust)


def _continuity_inverse(m: EntireMap, w: complex, anchor: complex) -> complex:
    """The preimage of w obtained by continuation from a known nearby preimage."""
    guard = _singular_guard(m, w, branch_of(m, anchor))
    if guard is not None:
        return guard
    if m.family == EXP_LAMBDA:
        raw = cmath.log(w / m.lam)
        return raw + TWO_PI * 1j * round((anchor.imag - raw.imag) / TWO_PI)
    return _damped_newton(m, w, anchor)


def apply_chain(chain: BranchChain, z: complex) -> complex:
    """Apply the stored single-step inverses innermost-first, Newton-seeded by
    continuity from each step's anchor; images must stay inside the trust radius."""
    u = complex(z)
    for step in reversed(chain.steps):
        u = _continuity_inverse(chain.map, u, step.anchor)
        if abs(u - step.anchor) > chain.trust_radius:
            raise BranchJumpDetected(
                f"image {u} strayed {abs(u - step.anchor):.3e} from anchor {step.anchor} "
                f"(trust radius {chain.trust_radius:.3e})"
            )
    return u


def chain_fixing(m: EntireMap, p: complex, length: int, period: int = 1) -> BranchChain:
    """The pullback chain of `length` steps along the cycle p, f(p), ..., f^(period-1)(p).

    The composed branch fixes p when `length` is a multiple of `period`.
    """
    cycle = [complex(p)]
    for _ in range(period - 1):
        cycle.append(m.evaluate(cycle[-1]))
    return pullback_chain(m, [cycle[k % period] for k in range(length + 1)])
