import numpy as np
import pytest

import fatoulab as fl
from fatoulab import boundary
from fatoulab.branches import BranchChain, ChainStep, inverse
from fatoulab.errors import (
    ConvergedToFatouCycle,
    NewtonDiverged,
    NoReturnWithinBudget,
    VertexLeftFatou,
)
from fatoulab.orbits import classify_orbits_array

from conftest import MULT_2PI_I, QA, QR, cmath_z_plus_exp, iterate


def test_newton_periodic_exp_lambda(exp_map, exp_grid):
    # Newton oracle on (1/4)e^q = q, upper root; multiplier f'(q) = (1/4)e^q = q
    p = fl.newton_periodic(exp_map, 2.2, 1, grid=exp_grid)
    assert abs(p.point - QR) < 1e-12
    assert abs(p.multiplier - p.point) < 1e-12
    assert p.repelling
    assert p.residual < 1e-10
    assert p.boundary_distance <= 2 * exp_grid.cell_diagonal


def test_newton_periodic_zexp(zexp_map):
    # f(z) = z iff z = 0 or e^{-z} = 1; f'(2 pi i) = 1 - 2 pi i (algebra oracle)
    p = fl.newton_periodic(zexp_map, 6j, 1)
    assert abs(p.point - 2j * np.pi) < 1e-10
    assert abs(abs(p.multiplier) - MULT_2PI_I) < 1e-8
    assert p.repelling


def test_newton_periodic_rejects_attracting_cycle():
    # f(z) = z - 1 + e^{-z} has a superattracting fixed point at 0
    with pytest.raises(ConvergedToFatouCycle):
        fl.newton_periodic(fl.fatou_minus(), 0.1, 1)


def test_newton_periodic_attracting_exp(exp_map):
    with pytest.raises(ConvergedToFatouCycle):
        fl.newton_periodic(exp_map, QA + 0.01, 1)


# ---------------------------------------------------------------------------
# find_periodic_boundary_point
# ---------------------------------------------------------------------------


def test_find_periodic_exp_lambda(exp_map, exp_grid):
    p = fl.find_periodic_boundary_point(
        exp_map, exp_grid, (2.0, 2.3, -0.1, 0.1), max_period=1, rng_seed=7
    )
    assert abs(p.point - QR) < 1e-5
    assert p.period == 1
    assert p.repelling
    assert p.residual < 1e-10
    assert p.boundary_distance <= 2 * exp_grid.cell_diagonal


def test_find_periodic_zexp(zexp_map):
    # the repelling fixed point 2 pi i, recovered from raster adjacency evidence
    grid = fl.label_components(
        fl.classify_grid(zexp_map, (-1.0, 1.0, 5.3, 7.3), (200, 200), 800)
    )
    p = fl.find_periodic_boundary_point(
        zexp_map, grid, (-0.3, 0.3, 6.0, 6.6), max_period=2, rng_seed=1, max_seeds=200
    )
    assert abs(p.point - 2j * np.pi) < 1e-9
    assert p.period == 1
    assert p.repelling
    assert p.residual < 1e-10


def test_find_periodic_determinism(exp_map, exp_grid):
    runs = [
        fl.find_periodic_boundary_point(
            exp_map, exp_grid, (2.0, 2.3, -0.1, 0.1), max_period=1, rng_seed=7
        )
        for _ in range(2)
    ]
    a, b = runs
    assert f"{a.point.real:.12e}{a.point.imag:.12e}" == f"{b.point.real:.12e}{b.point.imag:.12e}"
    assert a.period == b.period


def test_period_minimality(exp_map):
    # a Newton run at n = 3 still lands on the fixed point; divisor testing
    # reduces the reported period to 1 and no proper divisor is missed
    from fatoulab.boundary import _minimize_period

    p3 = fl.newton_periodic(exp_map, 2.2, 3)
    assert abs(p3.point - QR) < 1e-10
    p = _minimize_period(exp_map, p3)
    assert p.period == 1
    assert 3 % p.period == 0
    assert abs(exp_map.iterate_with_derivative(p.point, p.period)[0] - p.point) < 1e-8


def test_find_periodic_no_return(exp_map, exp_grid):
    # a seed region deep inside the basin has no Julia-adjacent cells
    with pytest.raises(NoReturnWithinBudget):
        fl.find_periodic_boundary_point(
            exp_map, exp_grid, (-1.9, -1.5, -2.9, -2.5), max_period=1, rng_seed=7
        )


def _failing_pullback(exc):
    def pullback_chain(m, orbit):
        raise exc
    return pullback_chain


def test_find_periodic_counts_only_package_errors_as_failed_seeds(exp_map, exp_grid, monkeypatch):
    """A package error fails one seed; any other exception is a bug and propagates."""
    monkeypatch.setattr(boundary, "pullback_chain", _failing_pullback(NewtonDiverged("stub")))
    with pytest.raises(NoReturnWithinBudget, match="last failure: stub"):
        fl.find_periodic_boundary_point(
            exp_map, exp_grid, (2.0, 2.3, -0.1, 0.1), max_period=1, rng_seed=7
        )
    monkeypatch.setattr(boundary, "pullback_chain", _failing_pullback(TypeError("stub")))
    with pytest.raises(TypeError):
        fl.find_periodic_boundary_point(
            exp_map, exp_grid, (2.0, 2.3, -0.1, 0.1), max_period=1, rng_seed=7
        )


def test_find_periodic_zplus_both_outcomes_logged(zplus_map, zplus_grid):
    """Low-period points near a given window are not guaranteed; the search
    either returns a verified repelling point or reports no return."""
    try:
        p = fl.find_periodic_boundary_point(
            zplus_map, zplus_grid, (1.0, 6.0, 2.5, 3.3), max_period=3, rng_seed=7
        )
    except NoReturnWithinBudget as exc:
        print(f"[zplus periodic search] no return: {exc}")
    else:
        print(f"[zplus periodic search] found {p.point} period {p.period}")
        assert p.repelling
        assert p.residual < 1e-10
        assert p.boundary_distance <= 2 * zplus_grid.cell_diagonal


# ---------------------------------------------------------------------------
# Access curves
# ---------------------------------------------------------------------------


def test_access_curve_decay(exp_map, exp_grid):
    p = fl.newton_periodic(exp_map, 2.2, 1, grid=exp_grid)
    curve = fl.access_curve(exp_map, p, 1.8 + 0j, 60, exp_grid)
    assert curve.final_gap() < 1e-8
    assert curve.landing_point == p.point
    # net approach
    assert abs(curve.vertices[-1] - p.point) < abs(curve.vertices[0] - p.point)
    # geometric decay at rate 1/|multiplier| while above the float noise floor
    mu = abs(p.multiplier)
    gaps = curve.gaps
    for a, b in zip(gaps, gaps[1:]):
        if 1e-12 < a < 0.05:
            assert 0.9 / mu <= b / a <= 1.1 / mu


def test_access_curve_zero_steps(exp_map, exp_grid):
    p = fl.newton_periodic(exp_map, 2.2, 1, grid=exp_grid)
    curve = fl.access_curve(exp_map, p, 1.8 + 0j, 0, exp_grid)
    assert set(curve.segment_index) == {0}


def test_access_curve_pullback_consistency(exp_map, exp_grid):
    # each pullback generation maps forward onto the previous one
    p = fl.newton_periodic(exp_map, 2.2, 1, grid=exp_grid)
    curve = fl.access_curve(exp_map, p, 1.8 + 0j, 10, exp_grid)
    verts = np.array(curve.vertices)
    gens = np.array(curve.segment_index)
    per_gen = [verts[gens == g] for g in range(11)]
    for prev, cur in zip(per_gen, per_gen[1:]):
        fwd = np.array([exp_map.evaluate(v) for v in cur])
        assert np.max(np.abs(fwd - prev)) < 1e-8


def test_access_curve_wrong_branch_leaves_fatou(exp_map, exp_grid):
    p = fl.newton_periodic(exp_map, 2.2, 1, grid=exp_grid)
    wrong = BranchChain(
        exp_map, (ChainStep(1, inverse(exp_map, QR, 1), 0.0, np.inf),), QR, np.inf
    )
    with pytest.raises(VertexLeftFatou):
        fl.access_curve(exp_map, p, 1.8 + 0j, 5, exp_grid, chain=wrong)


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


def test_escaping_scan_real_hair(exp_map):
    # (1/4)e^3 ~ 5.02 > 3 and the growth is super-exponential from there
    p = fl.newton_periodic(exp_map, 2.2, 1)
    rep = fl.escaping_component_scan(exp_map, p, [3.0, 4.0, 5.0], 20)
    assert rep.escaping == (3 + 0j, 4 + 0j, 5 + 0j)
    assert rep.non_escaping == ()
    assert rep.exempt == ()
    # within 5 iterations, not only within the budget of 20
    assert fl.escaping_component_scan(exp_map, p, [3.0, 4.0, 5.0], 5).escaping == rep.escaping


def test_escaping_scan_exempts_the_point(exp_map):
    p = fl.newton_periodic(exp_map, 2.2, 1)
    rep = fl.escaping_component_scan(exp_map, p, [p.point, 3.0], 20)
    assert rep.exempt == (p.point,)
    assert rep.escaping == (3 + 0j,)


def test_escaping_scan_zplus_line(zplus_map):
    # x -> x - e^{-x} on the Im = pi line; orbits run to Re -> -infinity
    p_seed = fl.newton_periodic(fl.z_exp(), 6j, 1)  # any repelling point; probes drive the scan
    probes = (-1 + 1j * np.pi, 2 + 1j * np.pi, 5 + 1j * np.pi)
    rep = fl.escaping_component_scan(zplus_map, p_seed, list(probes), 400)
    assert rep.escaping == probes
    res = classify_orbits_array(zplus_map, np.array(probes), 400)
    for probe, n in zip(probes, res.iterations):
        assert iterate(cmath_z_plus_exp, probe, int(n)).real < -50


def test_parabolic_scan(zexp_map):
    # orbit of -0.5: -0.8243606..., -1.8798903..., -12.3185...; escapes fast
    rep = fl.parabolic_boundary_scan(zexp_map, [-0.5, 0.0, 0.2], budget=2000)
    assert rep.escaping == (-0.5 + 0j,)
    assert rep.fixed == (0j,)
    assert rep.interior_controls == (0.2 + 0j,)
    assert rep.other == ()
    # -0.5 escapes within 10 iterations; 0.2 is still undecided at that budget
    short = fl.parabolic_boundary_scan(zexp_map, [-0.5, 0.0, 0.2], budget=10)
    assert (short.escaping, short.fixed, short.other) == ((-0.5 + 0j,), (0j,), (0.2 + 0j,))


def test_parabolic_scan_requires_parabolic_map(exp_map):
    with pytest.raises(ValueError):
        fl.parabolic_boundary_scan(exp_map, [0.5])
