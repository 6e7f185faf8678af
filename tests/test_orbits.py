import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatoulab import orbits
from fatoulab.catalog import EntireMap, exp_lambda, fatou_minus, fatou_plus, z_exp, z_plus_exp
from fatoulab.orbits import (
    CLASS_ATTRACTING,
    CLASS_DRIFT,
    CLASS_PARABOLIC,
    Kind,
    certified_radius,
    classify_orbits_array,
    default_attractors,
)

from conftest import QA, QR, cmath_exp_quarter, cmath_z_exp, cmath_z_plus_exp, iterate


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
    assert att[0][1] == 1
    assert abs(att[0][0] - QA) < 1e-9
    r = certified_radius(m, att[0][0])
    assert r == 1.0
    for z0 in (0.0, 1.9, -3.0 + 1.0j, 0.5 + 2.5j):
        kind, n, cls = _one(m, z0, 200, attractors=att)
        assert (kind, cls) == (Kind.ATTRACTING, CLASS_ATTRACTING + 0)
        # the verdict invariant: step n is the first to enter the certified
        # disk, and the orbit goes on from there to -W0(-1/4)
        orbit = [iterate(cmath_exp_quarter, z0, k) for k in range(1, n + 1)]
        assert [abs(w - att[0][0]) < r for w in orbit] == [False] * (n - 1) + [True]
        assert abs(iterate(cmath_exp_quarter, orbit[-1], 64) - QA) < 1e-9


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
    equality is asserted. exp_lambda captures in its certified disk end at
    steps 1 to 5, the fewest distinct verdict steps of the five cases."""
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
        assert np.unique(whole.iterations).size >= 5
        monkeypatch.setattr(orbits, "_BLOCK", block)
        blocked = classify_orbits_array(m, z, budget, **kw)
        monkeypatch.undo()
        for name in ("kinds", "iterations", "classes"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), (m.family, name)


# ---------------------------------------------------------------------------
# Certified attracting disks
# ---------------------------------------------------------------------------


def cmath_fatou_minus(z):
    return z - 1.0 + cmath.exp(-z)


def cmath_exp(lam):
    return lambda z: lam * cmath.exp(z)


def old_rule(f, z0, budget, attractors, tol=1e-6, escape_radius=50.0):
    """(kind, iterations, class) by the capture rule that precedes certified
    disks, in plain cmath: attractor j captures the orbit at the first step
    within tol/4 of p_j after which q_j more steps move it by less than tol;
    an overflow or a modulus past the radius escapes first."""
    z = z0
    for step in range(1, budget + 1):
        try:
            w = f(z)
        except OverflowError:
            return Kind.ESCAPING, step, 0
        if abs(w) > escape_radius:
            return Kind.ESCAPING, step, 0
        for j, (p, q) in enumerate(attractors):
            if abs(w - p) < tol / 4:
                wq = iterate(f, w, q)
                if wq is not None and abs(wq - w) < tol:
                    return Kind.ATTRACTING, step, CLASS_ATTRACTING + j
        z = w
    return Kind.UNDECIDED, budget, 0


def _lattice(re0, re1, im0, im1, n):
    re, im = np.meshgrid(np.linspace(re0, re1, n), np.linspace(im0, im1, n))
    return (re + 1j * im).ravel()


def test_certified_disks_map_into_themselves():
    """On 4096 points of the circle |z - p| = r, |f(z) - p| < r; by the maximum
    principle f then maps the whole disk D(p, r) into itself. exp_lambda runs
    over a grid of lambda in (0, 1/e), fatou_minus over p = 2 pi i k, |k| <= 8."""
    circle = np.exp(2j * np.pi * np.arange(4096) / 4096)
    # (map, f in numpy, p, the radius the README quotes or None)
    cases = [
        (exp_lambda(lam), lambda z, lam=lam: lam * np.exp(z),
         default_attractors(exp_lambda(lam))[0][0], {0.25: 1.0, 0.36: 0.125}.get(lam))
        for lam in np.linspace(0.0, 1.0 / math.e, 76)[1:-1].tolist() + [0.25, 0.36]
    ]
    cases += [(fatou_minus(), lambda z: z - 1.0 + np.exp(-z), complex(0.0, 2 * np.pi * k), 0.5)
              for k in range(-8, 9)]
    for m, f, p, quoted in cases:
        r = certified_radius(m, p)
        assert r is not None, (m, p)
        assert quoted is None or r == quoted
        assert np.max(np.abs(f(p + r * circle) - p)) < r, (m, p, r)


@pytest.mark.parametrize("lam", [0.1, 0.25, 0.36, None])
def test_certified_captures_agree_with_the_old_rule(lam):
    """Wherever the certified-disk kernel and the old tol/4 rule both decide,
    they give the same kind and class, and the certified verdict comes no later;
    a point the kernel leaves undecided is undecided by the old rule too."""
    if lam is None:
        m, f, z = fatou_minus(), cmath_fatou_minus, _lattice(-4.0, 4.0, -20.0, 20.0, 45)
    else:
        m, f, z = exp_lambda(lam), cmath_exp(lam), _lattice(-2.0, 4.0, -3.0, 3.0, 40)
    att = default_attractors(m)
    budget = 300
    res = classify_orbits_array(m, z, budget, attractors=att)
    old = [old_rule(f, z0, budget, att) for z0 in z.tolist()]
    decided = 0
    for (kind, n, cls), new in zip(old, zip(res.kinds.tolist(), res.iterations.tolist(),
                                            res.classes.tolist())):
        if new[0] == Kind.UNDECIDED:
            assert kind == Kind.UNDECIDED
        elif kind != Kind.UNDECIDED:
            decided += 1
            assert (new[0], new[2]) == (kind, cls)
            assert new[1] <= n
    assert decided > 0.9 * z.size
    assert (res.kinds == Kind.ATTRACTING).sum() > 0.1 * z.size


def test_uncertified_entries_take_the_tol_rule():
    """A listed cycle of period 2, a repelling fixed point, a point 0.64 from
    the nearest fixed point, and an attracting fixed point whose multiplier
    0.9925 leaves no certified disk are all decided by the tol rule, verdict
    for verdict."""
    m = exp_lambda(0.25)
    att = ((QR, 1), (QA, 2), (1.0, 1))
    assert [certified_radius(m, p) for p, q in att if q == 1] == [None, None]
    z = _lattice(-2.0, 4.0, -3.0, 3.0, 20)
    res = classify_orbits_array(m, z, 300, attractors=att)
    got = list(zip(res.kinds.tolist(), res.iterations.tolist(), res.classes.tolist()))
    assert got == [old_rule(cmath_exp_quarter, z0, 300, att) for z0 in z.tolist()]
    assert got.count((Kind.ATTRACTING, 1, CLASS_ATTRACTING + 1)) == 0
    assert sum(k == Kind.ATTRACTING for k, _, _ in got) > 100

    lam = 0.9925 * math.exp(-0.9925)
    m = exp_lambda(lam)
    att = default_attractors(m)
    assert certified_radius(m, att[0][0]) is None
    z = att[0][0] + 0.3 * np.exp(2j * np.pi * np.arange(12) / 12)
    res = classify_orbits_array(m, z, 3000, attractors=att)
    got = list(zip(res.kinds.tolist(), res.iterations.tolist(), res.classes.tolist()))
    assert got == [old_rule(cmath_exp(lam), z0, 3000, att) for z0 in z.tolist()]
    # the real start p + 0.3 lies past the repelling fixed point near 1.0076
    assert [k for k, _, _ in got] == [Kind.ESCAPING] + [Kind.ATTRACTING] * 11


@pytest.mark.parametrize("m, window", [
    (exp_lambda(0.25), (-2.0, 4.0, -3.0, 3.0)),
    (fatou_minus(), (-4.0, 4.0, -20.0, 20.0)),
], ids=["exp_lambda", "fatou_minus"])
def test_verdicts_survive_a_one_ulp_shift_of_every_value(monkeypatch, m, window):
    """Moving every value of f by one ulp, up and then down, changes no kind
    and no class on a 300 x 300 grid."""
    z = _lattice(*window, 300)
    att = default_attractors(m)
    exact = classify_orbits_array(m, z, 300, attractors=att)
    evaluate_array = EntireMap.evaluate_array
    for toward in (np.inf, -np.inf):
        def shifted(self, z, toward=toward):
            w, bad = evaluate_array(self, z)
            return np.nextafter(w.view(np.float64), toward).view(complex), bad

        monkeypatch.setattr(EntireMap, "evaluate_array", shifted)
        moved = classify_orbits_array(m, z, 300, attractors=att)
        monkeypatch.undo()
        assert np.array_equal(moved.kinds, exact.kinds)
        assert np.array_equal(moved.classes, exact.classes)


def test_a_capture_is_not_relabeled_by_the_petal_test():
    """z_exp with a listed point p = 5e-4 inside the petal's test region: an
    orbit landing on p at step 1 is captured by the tol rule (f moves p by
    p^2 < tol) and keeps that verdict although |f(z0)| < 1e-3 on R+."""
    m, p = z_exp(), 5e-4
    z0 = p
    for _ in range(60):  # f(z0) = p, by fixed-point iteration of z0 = p e^{z0}
        z0 = p * cmath.exp(z0)
    assert abs(cmath_z_exp(z0) - p) < 1e-7
    assert _one(m, z0, 10, attractors=((p, 1),)) == (Kind.ATTRACTING, 1, CLASS_ATTRACTING)
    assert _one(m, z0, 10) == (Kind.PARABOLIC, 1, CLASS_PARABOLIC)
