"""Closed-form catalog of transcendental entire maps and their singular data.

Five families are supported; every downstream solver relies on their closed
forms, so the catalog is deliberately closed rather than a general expression
parser:

    exp_lambda   f(z) = lam * exp(z)
    fatou_plus   f(z) = z + 1 + exp(-z)
    fatou_minus  f(z) = z - 1 + exp(-z)
    z_plus_exp   f(z) = z + exp(-z)
    z_exp        f(z) = z * exp(-z)
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NewtonDiverged, Overflow

EXP_LAMBDA = "exp_lambda"
FATOU_PLUS = "fatou_plus"
FATOU_MINUS = "fatou_minus"
Z_PLUS_EXP = "z_plus_exp"
Z_EXP = "z_exp"

FAMILIES = (EXP_LAMBDA, FATOU_PLUS, FATOU_MINUS, Z_PLUS_EXP, Z_EXP)

# The scalar evaluate's Overflow guard, below the 709.78 where exp() overflows.
_EXP_OVERFLOW = 709.0

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EntireMap:
    """One catalog member; immutable, safe to share across workers."""

    family: str
    lam: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == EXP_LAMBDA:
            # A real lambda makes f commute with conjugation, which grids use.
            if isinstance(self.lam, bool) or not isinstance(self.lam, numbers.Real):
                raise ValueError(f"exp_lambda requires a real lambda, not {self.lam!r}")
            if not abs(self.lam) <= sys.float_info.max or self.lam == 0.0:
                raise ValueError("exp_lambda requires a finite nonzero lambda")
        elif self.lam is not None:
            raise ValueError(f"{self.family} takes no lambda parameter")

    # -- evaluation: one closed form per family, for scalars and arrays -----

    def _exp_argument(self, z):
        """The argument of the family's exponential: z for exp_lambda, -z otherwise."""
        return z if self.family == EXP_LAMBDA else -z

    def _value(self, z, e):
        """f(z) from e = exp(self._exp_argument(z)); z and e are scalars or arrays."""
        if self.family == EXP_LAMBDA:
            return self.lam * e
        if self.family == FATOU_PLUS:
            return z + 1.0 + e
        if self.family == FATOU_MINUS:
            return z - 1.0 + e
        if self.family == Z_PLUS_EXP:
            return z + e
        return z * e

    def evaluate(self, z: complex) -> complex:
        """f(z); raises Overflow when the real exp argument exceeds 709, a guard
        for Newton that spares each scalar call an np.errstate (exp itself is
        finite to about 709.78, where `evaluate_array` may return a finite f)."""
        return self.eval_with_derivative(z)[0]

    def eval_with_derivative(self, z: complex) -> tuple[complex, complex]:
        """(f(z), f'(z)) sharing one exp evaluation; raises Overflow like evaluate."""
        z = complex(z)
        arg = self._exp_argument(z)
        if arg.real > _EXP_OVERFLOW:
            raise Overflow(f"exp({arg.real:.3g}) overflows")
        e = np.exp(arg)
        w = self._value(z, e)
        if self.family == EXP_LAMBDA:
            return w, w
        if self.family == Z_EXP:
            return w, (1.0 - z) * e
        return w, 1.0 - e

    def derivative_bound(self, p: complex, r: float) -> float:
        """An upper bound of |f'| over the disk |z - p| <= r, in closed form.

        With z = p + u, |u| <= r: |e^{+-u}| <= e^r and |e^{-u} - 1| <= e^r - 1,
        which bound |lam e^z|, |1 - e^{-z}| and |(1 - z) e^{-z}| in turn.
        """
        if self.family == EXP_LAMBDA:
            return abs(self.lam) * math.exp(p.real + r)
        e = abs(cmath.exp(-p))
        if self.family == Z_EXP:
            return e * math.exp(r) * (abs(1.0 - p) + r)
        return abs(1.0 - cmath.exp(-p)) + e * math.expm1(r)

    def iterate_with_derivative(self, z: complex, n: int) -> tuple[complex, complex]:
        """(f^n(z), (f^n)'(z)) by the chain rule."""
        deriv = 1.0 + 0.0j
        for _ in range(n):
            z, d = self.eval_with_derivative(z)
            deriv *= d
        return z, deriv

    def evaluate_array(self, z: np.ndarray) -> np.ndarray:
        """Vectorised f(z), inf or nan exactly where f overflows in floating
        point; never raises Overflow and never warns. Callers read escape from
        the value: a non-finite entry fails every `|w| <= R` and `< tol` test."""
        z = np.ascontiguousarray(z, dtype=complex)
        # -z negated as float64 pairs: the bits of complex negation, at a fraction of its cost
        arg = z if self.family == EXP_LAMBDA else np.negative(z.view(np.float64)).view(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._value(z, np.exp(arg))

    @staticmethod
    def from_json(d: dict) -> "EntireMap":
        if not isinstance(d, dict) or "family" not in d:
            raise ValueError("map descriptor must be an object with a 'family' key")
        return EntireMap(family=d["family"], lam=d.get("lambda"))


def exp_lambda(lam: float) -> EntireMap:
    return EntireMap(EXP_LAMBDA, lam)


def fatou_plus() -> EntireMap:
    return EntireMap(FATOU_PLUS)


def fatou_minus() -> EntireMap:
    return EntireMap(FATOU_MINUS)


def z_plus_exp() -> EntireMap:
    return EntireMap(Z_PLUS_EXP)


def z_exp() -> EntireMap:
    return EntireMap(Z_EXP)


# ---------------------------------------------------------------------------
# Damped Newton
# ---------------------------------------------------------------------------


def damped_newton(
    g: Callable[[complex], tuple[complex, complex]],
    seed: complex,
    residual_tol: float,
    steps: int,
) -> complex:
    """A root z of g with |g(z)| < residual_tol; g(z) returns (g(z), g'(z)).

    Each Newton step is halved, up to 8 times, until it lowers |g| (a step
    whose evaluation overflows is halved too). Raises NewtonDiverged when the
    seed overflows, g' vanishes, no halving descends, or `steps` steps end
    above the tolerance.
    """
    z = complex(seed)
    try:
        gz, dg = g(z)
    except Overflow as exc:
        raise NewtonDiverged(f"seed {seed} overflows") from exc
    res = abs(gz)
    for _ in range(steps):
        if res < residual_tol:
            return z
        if dg == 0:
            raise NewtonDiverged(f"derivative vanished at {z}")
        step = gz / dg
        for _ in range(8):
            cand = z - step
            try:
                gc, dc = g(cand)
            except Overflow:
                step *= 0.5
                continue
            rc = abs(gc)
            if rc < res or abs(step) < 1e-17:
                z, gz, dg, res = cand, gc, dc, rc
                break
            step *= 0.5
        else:
            raise NewtonDiverged(f"no descent step from seed {seed}")
    if res < residual_tol:
        return z
    raise NewtonDiverged(f"residual {res:.3e} after {steps} Newton steps")


# ---------------------------------------------------------------------------
# Singular data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularData:
    """Critical points/values (indexed by k where the family is infinite) and asymptotic values."""

    critical_points: tuple[complex, ...]
    critical_values: tuple[complex, ...]
    asymptotic_values: tuple[complex, ...]


def singular_values(m: EntireMap, k_bound: int = 8) -> SingularData:
    """Exact closed-form singular data; k in [-k_bound, k_bound] for the 2*pi*i*k families.

    Critical values are listed exactly as f(critical point) evaluates, so the
    chain invariant `value == f(point)` holds bit-for-bit.
    """
    if m.family == EXP_LAMBDA:
        return SingularData((), (), (0.0 + 0.0j,))
    if m.family == Z_EXP:
        cp = (1.0 + 0.0j,)
        return SingularData(cp, (m.evaluate(cp[0]),), (0.0 + 0.0j,))
    cps = tuple(complex(0.0, TWO_PI * k) for k in range(-k_bound, k_bound + 1))
    return SingularData(cps, tuple(m.evaluate(c) for c in cps), ())


# ---------------------------------------------------------------------------
# Postsingular sampling
# ---------------------------------------------------------------------------


def postsingular_sample(
    m: EntireMap,
    depth: int,
    escape_radius: float = 1e6,
    k_bound: int = 8,
) -> np.ndarray:
    """The distinct points of the singular values' orbits, in first-reached order.

    Each critical value, then each asymptotic value, is followed for `depth`
    steps; an orbit ends early once |z| > escape_radius (that point is left
    out) or f overflows. A point met again, on this orbit or an earlier one,
    is kept once.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if escape_radius <= 0:
        raise ValueError("escape_radius must be positive")
    sd = singular_values(m, k_bound=k_bound)
    points: dict[complex, None] = {}
    for v in sd.critical_values + sd.asymptotic_values:
        z = complex(v)
        for _ in range(depth + 1):
            if abs(z) > escape_radius:
                break
            points.setdefault(z)
            try:
                z = m.evaluate(z)
            except Overflow:
                break
    return np.array(list(points), dtype=complex)
