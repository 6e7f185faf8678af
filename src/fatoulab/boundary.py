"""Boundary periodic points, access curves, and escaping/parabolic scans.

The periodic-point search runs the pullback-contraction construction: pick a
Julia-adjacent cell, follow its forward orbit until it re-enters a small
return disk, compose the inverse branches along that loop, iterate the
composed branch to its fixed point (the contraction stage), and polish with
damped Newton on f^n(z) - z. Divisor testing then minimizes the period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branches import BranchChain, apply_chain, chain_fixing, pullback_chain
from .catalog import EntireMap, damped_newton
from .errors import (
    ConvergedToFatouCycle,
    FatouLabError,
    NoReturnWithinBudget,
    OutOfWindow,
    Overflow,
    VertexLeftFatou,
)
from .grid import ClassificationGrid
from .orbits import Kind, classify_orbits_array, parabolic_points
from .raster import outer_ring

_NEWTON_STEPS = 100
_CONTRACTION_CAP = 500
_CONTRACTION_TOL = 1e-12


@dataclass(frozen=True)
class PeriodicBoundaryPoint:
    point: complex
    period: int
    multiplier: complex
    residual: float
    repelling: bool
    boundary_distance: float = math.nan


def _boundary_distance(grid: ClassificationGrid | None, z: complex) -> float:
    """Distance from z to the nearest center of a cell labelled unlike z's cell
    (label 0 outside the window)."""
    if grid is None or not grid.labeled:
        return math.nan
    label = grid.label_at(z) if grid.contains(z) else 0
    return float(grid.nearest_other_label(label, z)[0])


def newton_periodic(
    m: EntireMap,
    seed: complex,
    n: int,
    grid: ClassificationGrid | None = None,
    residual_tol: float = 1e-11,
) -> PeriodicBoundaryPoint:
    """Damped Newton on f^n(z) - z; classifies the landing cycle by its multiplier.

    Raises ConvergedToFatouCycle when the landing cycle is attracting (the
    seed fell into a basin; boundary periodic points are always repelling).
    """
    if n < 1:
        raise ValueError("period must be >= 1")

    def g(z: complex) -> tuple[complex, complex]:
        fz, deriv = m.iterate_with_derivative(z, n)
        return fz - z, deriv - 1.0

    z = damped_newton(g, seed, residual_tol, _NEWTON_STEPS)
    fz, multiplier = m.iterate_with_derivative(z, n)
    res = abs(fz - z)
    if abs(multiplier) < 1.0 - 1e-9:
        raise ConvergedToFatouCycle(
            f"landed on an attracting cycle at {z} (|multiplier| = {abs(multiplier):.3g})"
        )
    return PeriodicBoundaryPoint(
        point=complex(z),
        period=n,
        multiplier=complex(multiplier),
        residual=float(res),
        repelling=bool(abs(multiplier) > 1.0 + 1e-9),
        boundary_distance=_boundary_distance(grid, z),
    )


def _minimize_period(m: EntireMap, p: PeriodicBoundaryPoint, grid=None) -> PeriodicBoundaryPoint:
    """Replace the period by its smallest divisor d with |f^d(point) - point| < 1e-8."""
    for d in sorted(k for k in range(1, p.period + 1) if p.period % k == 0):
        fd, _ = m.iterate_with_derivative(p.point, d)
        if abs(fd - p.point) < 1e-8:
            if d == p.period:
                return p
            return newton_periodic(m, p.point, d, grid=grid)
    return p


def _julia_adjacent_cells(grid: ClassificationGrid, region) -> np.ndarray:
    """Centers of label-0 cells inside `region` having a labelled 4-neighbour."""
    re_min, re_max, im_min, im_max = region
    centers = grid.cell_centers()
    window = (
        (centers.real >= re_min) & (centers.real <= re_max)
        & (centers.imag >= im_min) & (centers.imag <= im_max)
    )
    return centers[outer_ring(grid.labels > 0) & window]


def find_periodic_boundary_point(
    m: EntireMap,
    grid: ClassificationGrid,
    seed_region: tuple[float, float, float, float],
    max_period: int,
    pullback_budget: int = 200,
    return_radius_cells: float = 5.0,
    rng_seed: int = 0,
    max_seeds: int = 64,
) -> PeriodicBoundaryPoint:
    """Pullback-contraction search for a repelling periodic point near the Julia raster.

    Seeds are Julia-adjacent cell centers inside seed_region, tried in an
    order drawn from the given RNG seed, so identical configs reproduce
    identical points. Raises NoReturnWithinBudget when no seed orbit
    re-enters its return disk (existence of low-period points in a window is
    not guaranteed).
    """
    if not grid.labeled:
        raise ValueError("grid must be labeled")
    candidates = _julia_adjacent_cells(grid, seed_region)
    if candidates.size == 0:
        raise NoReturnWithinBudget("no Julia-adjacent cells in the seed region")
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(candidates.size)[:max_seeds]
    r = return_radius_cells * grid.cell_diagonal

    last_error: FatouLabError | None = None
    for idx in order:
        z0 = complex(candidates[idx])
        orbit = [z0]
        z = z0
        returned = False
        for _ in range(pullback_budget):
            try:
                z = m.evaluate(z)
            except Overflow:
                break
            orbit.append(z)
            if abs(z - z0) <= r:
                returned = True
                break
            if not np.isfinite(z.real) or not np.isfinite(z.imag):
                break
        if not returned:
            continue
        try:
            chain = pullback_chain(m, orbit)
            x = z0
            for _ in range(_CONTRACTION_CAP):
                x_next = apply_chain(chain, x)
                if abs(x_next - x) < _CONTRACTION_TOL:
                    x = x_next
                    break
                x = x_next
            point = newton_periodic(m, x, len(chain), grid=grid)
            point = _minimize_period(m, point, grid=grid)
        except FatouLabError as exc:  # try the next seed, remember why
            last_error = exc
            continue
        if point.period <= max_period and point.repelling:
            return point
    if last_error is not None:
        raise NoReturnWithinBudget(
            f"no admissible periodic point found; last failure: {last_error}"
        )
    raise NoReturnWithinBudget("no seed orbit re-entered its return disk")


# ---------------------------------------------------------------------------
# Access curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessCurve:
    vertices: tuple[complex, ...]
    segment_index: tuple[int, ...]   # pullback generation m of each vertex
    landing_point: complex
    max_step_gap: float
    gaps: tuple[float, ...]          # |last vertex of generation m - landing point|

    def final_gap(self) -> float:
        return abs(self.vertices[-1] - self.landing_point)


def access_curve(
    m: EntireMap,
    p: PeriodicBoundaryPoint,
    z0: complex,
    steps: int,
    grid: ClassificationGrid,
    spacing: float = 0.05,
    chain: BranchChain | None = None,
) -> AccessCurve:
    """gamma + F(gamma) + F^2(gamma) + ... landing at p, every vertex Fatou-checked.

    gamma joins z0 to F(z0) sampled at <= `spacing`; F is the inverse branch
    fixing p along the cycle. Raises VertexLeftFatou when a pullback vertex
    classifies outside the starting component (evidence against proper
    invertibility at this site).
    """
    if chain is None:
        chain = chain_fixing(m, p.point, p.period, p.period)
    label = grid.label_at(z0)
    if label == 0:
        raise VertexLeftFatou(f"base point {z0} is not Fatou-classified")

    f_z0 = apply_chain(chain, z0)
    n_seg = max(2, int(math.ceil(abs(f_z0 - z0) / spacing)) + 1)
    gamma = [z0 + (f_z0 - z0) * t for t in np.linspace(0.0, 1.0, n_seg)]

    vertices: list[complex] = []
    seg_index: list[int] = []
    gaps: list[float] = []
    max_gap = 0.0
    current = list(gamma)
    for gen in range(steps + 1):
        for v in current:
            _check_vertex(grid, v, label, gen)
            vertices.append(v)
            seg_index.append(gen)
        gaps.append(abs(current[-1] - p.point))
        if gen < steps:
            prev = current
            current = [apply_chain(chain, v) for v in prev]
            max_gap = max(max_gap, max(abs(a - b) for a, b in zip(current, prev)))
    return AccessCurve(
        vertices=tuple(vertices),
        segment_index=tuple(seg_index),
        landing_point=p.point,
        max_step_gap=max_gap,
        gaps=tuple(gaps),
    )


def _check_vertex(grid: ClassificationGrid, v: complex, label: int, gen: int) -> None:
    try:
        vl = grid.label_at(v)
    except OutOfWindow as exc:
        raise VertexLeftFatou(f"vertex {v} (generation {gen}) left the window") from exc
    if vl != label:
        raise VertexLeftFatou(
            f"vertex {v} (generation {gen}) classifies with label {vl}, expected {label}"
        )


# ---------------------------------------------------------------------------
# Boundary-component scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    escaping: tuple[complex, ...]
    non_escaping: tuple[complex, ...]
    exempt: tuple[complex, ...]


def _scan(m: EntireMap, probes, exempt_point: complex, exempt_tol: float, budget: int,
          escape_radius: float) -> tuple[tuple[complex, ...], np.ndarray, np.ndarray]:
    """The probes within `exempt_tol` of `exempt_point`, then the other probes
    and their orbit kinds from one kernel call."""
    z = np.asarray(probes, dtype=complex).ravel()
    exempt = np.abs(z - exempt_point) < exempt_tol
    rest = z[~exempt]
    kinds = classify_orbits_array(m, rest, budget, escape_radius).kinds
    return tuple(z[exempt].tolist()), rest, kinds


def escaping_component_scan(
    m: EntireMap,
    p: PeriodicBoundaryPoint,
    probes: list[complex],
    budget: int,
    escape_radius: float = 50.0,
) -> ScanReport:
    """Classify probe orbits on the boundary component of p; p itself is exempt."""
    exempt, rest, kinds = _scan(m, probes, p.point, 1e-9, budget, escape_radius)
    escaping = kinds == Kind.ESCAPING
    return ScanReport(tuple(rest[escaping].tolist()), tuple(rest[~escaping].tolist()), exempt)


@dataclass(frozen=True)
class ParabolicScanReport:
    escaping: tuple[complex, ...]
    interior_controls: tuple[complex, ...]
    fixed: tuple[complex, ...]
    other: tuple[complex, ...]


def parabolic_boundary_scan(
    m: EntireMap,
    probes: list[complex],
    budget: int = 2000,
    escape_radius: float = 50.0,
) -> ParabolicScanReport:
    """Scan probes around a parabolic basin: boundary probes should escape,
    petal-interior controls converge to the fixed point, which is itself exempt."""
    fixed_pts = parabolic_points(m)
    if not fixed_pts:
        raise ValueError(f"{m.family} has no parabolic fixed point in the catalog")
    fixed, rest, kinds = _scan(m, probes, fixed_pts[0], 1e-12, budget, escape_radius)
    escaping = kinds == Kind.ESCAPING
    interior = kinds == Kind.PARABOLIC
    return ParabolicScanReport(
        tuple(rest[escaping].tolist()),
        tuple(rest[interior].tolist()),
        fixed,
        tuple(rest[~escaping & ~interior].tolist()),
    )
