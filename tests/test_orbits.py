import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatoulab import orbits
from fatoulab.catalog import exp_lambda, fatou_minus, fatou_plus, z_exp, z_plus_exp
from fatoulab.orbits import (
    CLASS_ATTRACTING,
    CLASS_DRIFT,
    CLASS_PARABOLIC,
    Kind,
    classify_orbits_array,
    default_attractors,
)

from conftest import QA, cmath_exp_quarter, cmath_z_exp, cmath_z_plus_exp, iterate


def _one(m, z, budget, **kw):
    """(kind, iterations, class) of the kernel on the single point z."""
    res = classify_orbits_array(m, np.array([z], dtype=complex), budget, **kw)
    return Kind(int(res.kinds[0])), int(res.iterations[0]), int(res.classes[0])


def test_exp_lambda_escaping():
    # direct-iteration oracle: (1/4)e^3 ~ 5.02, then ~37.8, then past any radius
    kind, n, cls = _one(exp_lambda(0.25), 3.0, 100)
    assert (kind, cls) == (Kind.ESCAPING, 0)
    assert n <= 5
    w = iterate(cmath_exp_quarter, 3.0, n)
    assert w is None or abs(w) > 50.0


def test_exp_lambda_attracting():
    m = exp_lambda(0.25)
    att = default_attractors(m)
    kind, n, cls = _one(m, 0.0, 200, attractors=att)
    assert (kind, cls) == (Kind.ATTRACTING, CLASS_ATTRACTING + 0)
    assert att[0][1] == 1
    assert abs(att[0][0] - QA) < 1e-9
    # the verdict invariant: the point reached is nearly fixed
    w = iterate(cmath_exp_quarter, 0.0, n)
    assert abs(cmath_exp_quarter(w) - w) < 1e-6


def test_exp_lambda_attractor_is_minus_lambert_w():
    """The auto attractor of exp_lambda is -W0(-lam) within 1e-15, by mpmath at 30 digits."""
    mp = pytest.importorskip("mpmath")
    lams = np.concatenate((np.geomspace(1e-6, 0.36, 300), np.linspace(0.34, 0.36, 100)))
    with mp.workdps(30):
        for lam in lams.tolist():
            ((p, period),) = default_attractors(exp_lambda(lam))
            assert period == 1
            assert abs(mp.mpc(p) + mp.lambertw(-mp.mpf(lam), 0)) <= 1e-15


def test_z_plus_exp_line_escape():
    # f(i pi) = i pi - 1, real parts then decrease without bound
    kind, n, cls = _one(z_plus_exp(), 1j * np.pi, 400)
    assert (kind, cls) == (Kind.ESCAPING, 0)
    w = iterate(cmath_z_plus_exp, 1j * np.pi, n)
    assert w.real < -100.0


def test_z_plus_exp_slow_drift():
    # x_{n+1} = x_n + e^{-x_n} ~ log(n + e): never crosses the radius, certified by drift
    kind, n, cls = _one(z_plus_exp(), 0.0, 400)
    assert (kind, cls) == (Kind.ESCAPING, CLASS_DRIFT + 0)
    assert 0 < iterate(cmath_z_plus_exp, 0.0, n).real < 6.0


def test_z_exp_parabolic_and_escape():
    kind, _, cls = _one(z_exp(), 0.2, 2000)
    assert (kind, cls) == (Kind.PARABOLIC, CLASS_PARABOLIC)
    kind, n, cls = _one(z_exp(), -0.5, 50)
    assert (kind, cls) == (Kind.ESCAPING, 0)
    assert n <= 10


def test_undecided_fallback():
    assert _one(z_exp(), 0.2, 5) == (Kind.UNDECIDED, 5, 0)


def test_escape_radius_must_exceed_attractors():
    m = exp_lambda(0.25)
    with pytest.raises(ValueError):
        _one(m, 0.0, 10, escape_radius=0.1, attractors=((QA, 1),))


@settings(max_examples=40, deadline=None)
@given(
    re=st.floats(-3, 3), im=st.floats(-3, 3),
    budget=st.integers(min_value=5, max_value=120),
)
def test_budget_monotonicity(re, im, budget):
    """A verdict other than Undecided at budget b is identical at every larger budget."""
    m = exp_lambda(0.25)
    att = default_attractors(m)
    v1 = _one(m, complex(re, im), budget, attractors=att)
    if v1[0] == Kind.UNDECIDED:
        return
    assert v1 == _one(m, complex(re, im), 2 * budget + 17, attractors=att)


def test_determinism():
    m = z_plus_exp()
    z = np.array([0.3 + 2.9j, 0.0, 1j * np.pi])
    a = classify_orbits_array(m, z, 400)
    b = classify_orbits_array(m, z, 400)
    for name in ("kinds", "iterations", "classes"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_escaping_verdicts_carry_their_trigger():
    """Escaping requires |f^n| > radius or an overflow at the verdict step n,
    unless the class records a certified drift run ending near strip k."""
    rng = np.random.default_rng(8)
    maps = (
        (exp_lambda(0.25), cmath_exp_quarter),
        (z_plus_exp(), cmath_z_plus_exp),
        (z_exp(), cmath_z_exp),
    )
    drifts = 0
    for m, f in maps:
        z = rng.uniform(-3, 6, 40) + 1j * rng.uniform(-6, 6, 40)
        res = classify_orbits_array(m, z, 300, attractors=default_attractors(m))
        for z0, kind, n, cls in zip(z.tolist(), res.kinds, res.iterations, res.classes):
            if kind != Kind.ESCAPING:
                continue
            w = iterate(f, z0, int(n))
            if cls == 0:
                assert w is None or abs(w) > 50.0
            else:
                drifts += 1
                assert m.family == "z_plus_exp"
                assert cls == CLASS_DRIFT + round(w.imag / (2 * np.pi))
    assert drifts > 0


def test_scalar_matches_array_kernel(exp_map, exp_grid):
    """One point classified alone gets the verdict it gets inside a batch."""
    rng = np.random.default_rng(3)
    centers = exp_grid.cell_centers()
    idx = rng.integers(0, centers.size, 25)
    pts = centers.ravel()[idx]
    kw = dict(
        escape_radius=exp_grid.escape_radius, attractors=exp_grid.attractors, tol=exp_grid.tol
    )
    res = classify_orbits_array(exp_map, pts, exp_grid.budget, **kw)
    batch = zip(res.kinds.tolist(), res.iterations.tolist(), res.classes.tolist())
    for z, verdict in zip(pts.tolist(), batch):
        assert _one(exp_map, z, exp_grid.budget, **kw) == verdict


@pytest.mark.parametrize("block, n", [(7, 150), (1000, 2500)])
def test_results_do_not_depend_on_the_block_size(monkeypatch, block, n):
    """Blocks of 7 and of 1000 points give the single-block kinds, iterations
    and classes: drift runs (z_plus_exp), parabolic verdicts (z_exp) and
    attractor captures (exp_lambda, and fatou_minus with its 15 attractor
    tests per step) end at many steps inside each block. fatou_plus runs the
    drift counter too, but its orbits all leave by radius today, so only its
    equality is asserted."""
    rng = np.random.default_rng(5)
    cases = (
        (z_plus_exp(), (-2.0, 10.0, -3 * np.pi, 3 * np.pi), 400, Kind.ESCAPING),
        (z_exp(), (-2.0, 2.0, -2.0, 2.0), 1000, Kind.PARABOLIC),
        (exp_lambda(0.25), (-2.0, 4.0, -3.0, 3.0), 300, Kind.ATTRACTING),
        (fatou_minus(), (-4.0, 4.0, -20.0, 20.0), 300, Kind.ATTRACTING),
        (fatou_plus(), (-2.0, 10.0, -3 * np.pi, 3 * np.pi), 400, None),
    )
    for m, (re0, re1, im0, im1), budget, kind in cases:
        z = rng.uniform(re0, re1, n) + 1j * rng.uniform(im0, im1, n)
        kw = dict(attractors=default_attractors(m))
        whole = classify_orbits_array(m, z, budget, **kw)
        if kind is not None:
            assert ((whole.kinds == kind) & (whole.classes != 0)).any()
        assert np.unique(whole.iterations).size > 5
        monkeypatch.setattr(orbits, "_BLOCK", block)
        blocked = classify_orbits_array(m, z, budget, **kw)
        monkeypatch.undo()
        for name in ("kinds", "iterations", "classes"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), (m.family, name)
