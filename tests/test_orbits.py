import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatoulab import orbits
from fatoulab.catalog import EntireMap, exp_lambda, fatou_minus, fatou_plus, z_exp, z_plus_exp
from fatoulab.errors import Overflow
from fatoulab.orbits import (
    CLASS_ATTRACTING,
    CLASS_DRIFT,
    CLASS_PARABOLIC,
    DRIFT_MAX_RE,
    PETAL,
    Kind,
    attractor_conjugation,
    certified_radius,
    classify_orbits_array,
    conjugate_classes,
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
    # x_{n+1} = x_n + e^{-x_n} ~ log(n + e) never crosses the radius; f(0) = 1
    # lies in the half-strip k = 0 and f(1) = 1 + 1/e > 1, so step 2 decides
    assert _one(z_plus_exp(), 0.0, 400) == (Kind.ESCAPING, 2, CLASS_DRIFT + 0)


def test_z_plus_exp_drift_needs_a_resolved_rise_below_re_30():
    """At x = 29 on y = 0 the rise e^{-29} is about 70 ulps of x: a verdict at
    step 1. Just outside the half-strip, at y = pi/2 + 1e-6, the fall
    e^{-29} cos y ~ -2.5e-19 rounds to 0, so the orbit stalls in floating
    point, undecided. At x = 31 the rise of about 10 ulps is resolved, but
    lies past DRIFT_MAX_RE: undecided too."""
    m = z_plus_exp()
    assert _one(m, 29.0, 50) == (Kind.ESCAPING, 1, CLASS_DRIFT)
    assert _one(m, complex(29.0, np.pi / 2 + 1e-6), 50) == (Kind.UNDECIDED, 50, 0)
    assert _one(m, 31.0, 50) == (Kind.UNDECIDED, 50, 0)


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
    unless the class records a drift verdict in half-strip k: f^{n-1} lies in
    it, with 0 < Re f^{n-1} < DRIFT_MAX_RE, and Re f^n > Re f^{n-1}."""
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
                v = iterate(f, z0, int(n) - 1)
                k = cls - CLASS_DRIFT
                assert 0 < v.real < DRIFT_MAX_RE and abs(v.imag - 2 * np.pi * k) < np.pi / 2
                assert w.real > v.real
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
    and classes: drift verdicts (z_plus_exp, fatou_plus), parabolic verdicts
    (z_exp) and attractor captures (exp_lambda, and fatou_minus with its 15
    attractor tests per step) end at many steps inside each block. fatou_plus
    orbits enter Re z > 0 within a few steps, so its drift verdicts end at
    steps 1 to 4 on 150 points, the fewest distinct verdict steps of the five
    cases; the other four end at 5 or more."""
    rng = np.random.default_rng(5)
    cases = (
        (z_plus_exp(), (-2.0, 10.0, -3 * np.pi, 3 * np.pi), 400, Kind.ESCAPING, 5),
        (z_exp(), (-2.0, 2.0, -2.0, 2.0), 1000, Kind.PARABOLIC, 5),
        (exp_lambda(0.25), (-2.0, 4.0, -3.0, 3.0), 300, Kind.ATTRACTING, 5),
        (fatou_minus(), (-4.0, 4.0, -20.0, 20.0), 300, Kind.ATTRACTING, 5),
        (fatou_plus(), (-2.0, 10.0, -3 * np.pi, 3 * np.pi), 400, Kind.ESCAPING, 4),
    )
    for m, (re0, re1, im0, im1), budget, kind, steps in cases:
        z = rng.uniform(re0, re1, n) + 1j * rng.uniform(im0, im1, n)
        kw = dict(attractors=default_attractors(m))
        whole = classify_orbits_array(m, z, budget, **kw)
        assert ((whole.kinds == kind) & (whole.classes != 0)).any()
        assert np.unique(whole.iterations).size >= steps
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


@pytest.mark.parametrize("m, window, n, budget", [
    (exp_lambda(0.25), (-2.0, 4.0, -3.0, 3.0), 300, 300),
    (fatou_minus(), (-4.0, 4.0, -20.0, 20.0), 300, 300),
    (z_exp(), (-2.0, 2.0, -2.0, 2.0), 120, 1500),
    (z_plus_exp(), (-2.0, 10.0, -3 * np.pi, 3 * np.pi), 300, 400),
], ids=["exp_lambda", "fatou_minus", "z_exp", "z_plus_exp"])
def test_verdicts_survive_a_one_ulp_shift_of_every_value(monkeypatch, m, window, n, budget):
    """Moving every value of f by one ulp, up and then down, changes no kind
    and no class on an n x n grid. Every step of the kernel, masked or not,
    computes its values in EntireMap._value, which the shift patches for
    arrays; the scalar values of certified_radius keep their bits.

    On z_plus_exp the shift reaches orbits that stall in floating point past
    Re 30, where x + e^{-x} cos y rounds to x: without DRIFT_MAX_RE it flips
    114 cells (up) and 8 (down) of this grid, as the 50-step drift rule did."""
    z = _lattice(*window, n)
    att = default_attractors(m)
    exact = classify_orbits_array(m, z, budget, attractors=att)
    value = EntireMap._value
    for toward in (np.inf, -np.inf):
        calls = []

        def shifted(self, z, e, toward=toward):
            w = value(self, z, e)
            if not isinstance(w, np.ndarray):
                return w
            calls.append(w.size)
            return np.nextafter(w.view(np.float64), toward).view(complex)

        monkeypatch.setattr(EntireMap, "_value", shifted)
        moved = classify_orbits_array(m, z, budget, attractors=att)
        monkeypatch.undo()
        # one array evaluation at least per step of the longest orbit
        assert len(calls) >= exact.iterations.max()
        assert np.array_equal(moved.kinds, exact.kinds)
        assert np.array_equal(moved.classes, exact.classes)


def test_a_capture_is_not_relabeled_by_the_petal_test():
    """z_exp with a listed point p = 5e-4 inside the petal Re(1/z) > 600: an
    orbit landing on p at step 1 is captured by the tol rule (f moves p by
    p^2 < tol) and keeps that verdict although f(z0) lies in the petal."""
    m, p = z_exp(), 5e-4
    z0 = p
    for _ in range(60):  # f(z0) = p, by fixed-point iteration of z0 = p e^{z0}
        z0 = p * cmath.exp(z0)
    assert abs(cmath_z_exp(z0) - p) < 1e-7
    assert _one(m, z0, 10, attractors=((p, 1),)) == (Kind.ATTRACTING, 1, CLASS_ATTRACTING)
    assert _one(m, z0, 10) == (Kind.PARABOLIC, 1, CLASS_PARABOLIC)


# ---------------------------------------------------------------------------
# Certified petal and drift sets
# ---------------------------------------------------------------------------


def _petal_edge(mp, c, margin, n=4096):
    """n points of the circle |z - 1/(2c)| = 1/(2c), the edge Re(1/z) = c of
    the petal, moved inside to Re(1/z) = c + margin: 1/z = c + margin - i c
    tan(theta/2) runs over the circle's angles theta in (-pi, pi)."""
    theta = np.linspace(-np.pi, np.pi, n + 2)[1:-1]
    return [1 / mp.mpc(c + margin, -c * math.tan(t / 2)) for t in theta.tolist()]


def _strip_edges(mp, k, half_width, margin, n=1000):
    """The edges |y - 2 pi k| = half_width, x >= 0, for x up to 40, and the line
    x = 0 across them, all moved inside by margin."""
    centre, h = 2 * mp.pi * k, mp.mpf(half_width) - margin
    xs = np.linspace(0.0, 40.0, n).tolist()
    edges = [mp.mpc(margin + x, centre + s * h) for x in xs for s in (-1, 1)]
    line = [mp.mpc(margin, centre + t * h) for t in np.linspace(-1.0, 1.0, n).tolist()]
    return edges + line


def _drift_failures(f, points, inside):
    """Points z whose image leaves the set or whose real part does not rise."""
    return [z for z in points if not (inside(f(z)) and f(z).real > z.real)]


def test_petal_and_drift_sets_are_invariant():
    """At 30 digits, on their edges moved inside by 1e-9: f maps the petal
    Re(1/z) > c into itself for c = 2 and c = PETAL, with Re(1/z) growing by
    at least 0.7; f maps each half-strip |y - 2 pi k| < pi/2, x > 0 of
    z_plus_exp into itself with Re rising, and the half-plane x > 0 of
    fatou_plus likewise. A half-strip of half-width 2 is not invariant."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        margin = mp.mpf("1e-9")
        for c in (2.0, PETAL):
            for z in _petal_edge(mp, c, margin):
                fz = z * mp.exp(-z)
                assert (1 / fz).real >= (1 / z).real + 0.7 > c, (c, z)

        def z_plus(z):
            return z + mp.exp(-z)

        for k in (-1, 0, 1):
            def in_strip(w, k=k):
                return w.real > 0 and abs(w.imag - 2 * mp.pi * k) < mp.pi / 2

            assert _drift_failures(z_plus, _strip_edges(mp, k, mp.pi / 2, margin), in_strip) == []
            # the mutant: cos y < 0 on |y - 2 pi k| = 2, so Re f falls there
            assert len(_drift_failures(z_plus, _strip_edges(mp, k, 2, margin), in_strip)) >= 1000

        def plus(z):
            return z + 1 + mp.exp(-z)

        line = [mp.mpc(margin, y) for y in np.linspace(-3 * np.pi, 3 * np.pi, 3000).tolist()]
        assert _drift_failures(plus, line, lambda w: w.real > 0) == []


def _old_overflow_step(m, z):
    """f(z) and the overflow mask of the rules the kernel replaced: an exp
    argument with real part past 709, or a non-finite value."""
    w = m.evaluate_array(z)
    arg_re = z.real if m.family == "exp_lambda" else -z.real
    return w, (arg_re > 709.0) | ~np.isfinite(w)


def old_petal_and_drift_rule(m, z, budget, escape_radius=50.0):
    """(kinds, iterations, classes) by the parabolic and drift rules that the
    petal and half-strips replace, frozen: a parabolic verdict at the first
    step with |f^n| < 1e-3, Re f^n > |Im f^n| and |f^{n+1}| <= |f^n|; a drift
    verdict once Re f^n has risen for 50 straight steps past Re 3, with class
    CLASS_DRIFT + round(Im f^n / 2 pi). An escape by radius or overflow at the
    same step wins, overflow read from `_old_overflow_step`."""
    z = np.asarray(z, dtype=complex).copy()
    kinds = np.zeros(z.size, dtype=np.int8)
    iterations = np.full(z.size, budget, dtype=np.int32)
    classes = np.zeros(z.size, dtype=np.int32)
    pos, run = np.arange(z.size), np.zeros(z.size, dtype=np.int32)
    for step in range(1, budget + 1):
        w, bad = _old_overflow_step(m, z)
        abs_w = np.abs(w)
        escaped = bad | (abs_w > escape_radius)
        undecided = ~escaped
        if m.family == "z_exp":
            sel = np.flatnonzero(undecided & (abs_w < 1e-3) & (w.real > np.abs(w.imag)))
            w1, bad1 = _old_overflow_step(m, w[sel])
            sel = sel[~bad1 & (np.abs(w1) <= abs_w[sel])]
            kinds[pos[sel]], classes[pos[sel]] = Kind.PARABOLIC, CLASS_PARABOLIC
            undecided[sel] = False
        else:
            run = np.where((w.real > z.real) & (w.real > 3.0) & ~bad, run + 1, 0)
            sel = np.flatnonzero(undecided & (run >= 50))
            classes[pos[sel]] = CLASS_DRIFT + np.round(w.imag[sel] / (2 * np.pi)).astype(np.int32)
            escaped[sel], undecided[sel] = True, False
        kinds[pos[escaped]] = Kind.ESCAPING
        iterations[pos[~undecided]] = step
        pos, z, run = pos[undecided], w[undecided], run[undecided]
        if pos.size == 0:
            break
    return kinds, iterations, classes


def _oracle_failure(f, z, kind, n):
    """The benchmark's cmath check of one verdict, or None when it holds: a
    parabolic orbit stays in |z| < 2e-3 with Re z > 0 for 500 steps from step
    n; a drift orbit's real part rises strictly for 200 steps after step n."""
    if kind == Kind.PARABOLIC:
        for step in range(1, n + 500):
            z = f(z)
            if step >= n and not (z.real > 0 and abs(z) < 2e-3):
                return f"leaves the petal at step {step}"
        return None
    z = iterate(f, z, n)
    for step in range(200):
        w = f(z)
        if not w.real > z.real:
            return f"Re stops rising {step} steps after the verdict"
        z = w
    return None


@pytest.mark.parametrize("m, f, window, n, budget", [
    (z_exp(), cmath_z_exp, (-2.0, 2.0, -2.0, 2.0), 40, 1500),
    (z_plus_exp(), cmath_z_plus_exp, (-2.0, 10.0, -3 * np.pi, 3 * np.pi), 60, 400),
], ids=["z_exp", "z_plus_exp"])
def test_certified_verdicts_agree_with_the_old_rules(m, f, window, n, budget):
    """Wherever the old rules and the certificates both decide a cell, kinds
    and classes agree and the certified step comes no later; the certificates
    leave no more cells undecided; and every certified verdict passes the
    benchmark's cmath check."""
    z = _lattice(*window, n)
    res = classify_orbits_array(m, z, budget)
    kinds, iterations, classes = old_petal_and_drift_rule(m, z, budget)
    both = (res.kinds != Kind.UNDECIDED) & (kinds != Kind.UNDECIDED)
    assert np.array_equal(res.kinds[both], kinds[both])
    assert np.array_equal(res.classes[both], classes[both])
    assert np.all(res.iterations[both] <= iterations[both])
    assert np.count_nonzero(res.kinds == Kind.UNDECIDED) <= np.count_nonzero(kinds == Kind.UNDECIDED)
    certified = np.flatnonzero(res.classes != 0)
    assert certified.size > 0.5 * z.size
    assert np.median(res.iterations[certified]) < np.median(iterations[certified])
    for i in certified.tolist():
        why = _oracle_failure(f, complex(z[i]), Kind(int(res.kinds[i])), int(res.iterations[i]))
        assert why is None, (z[i], why)


# The scalar m.evaluate loop below overflows in lam e^z and z e^{-z} with no
# exp overflow, where numpy warns in the scalar multiply; the kernel's steps
# must not warn at all.
@pytest.mark.filterwarnings("ignore:overflow encountered in scalar multiply:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in scalar multiply:RuntimeWarning")
@pytest.mark.parametrize("escape_radius", [1e6, 700.0])
@pytest.mark.parametrize("m", [z_exp(), z_plus_exp(), exp_lambda(1e10)], ids=lambda m: m.family)
def test_overflowing_steps_escape_at_any_radius(m, escape_radius):
    """Start points with |Re z| > 709, where exp overflows at step 1; points
    such as -16.1 (exp_lambda), -6.6 (z_exp) and -6.6 + pi i (z_plus_exp) whose
    later iterates overflow exp inside the radius 1e6; and exp_lambda(1e10),
    whose lam e^z overflows inside the range of exp. The batch verdicts equal
    the one-point ones, and each class-0 escape has m.evaluate overflow, or
    leave the radius or the finite numbers, at its step and not before, at a
    radius inside and one past the 709 where the scalar guard fires."""
    re = np.array([-1000.0, -720.0, -709.5, -705.0, -16.1, -6.6, -1.0, 0.5, 700.0, 709.5, 720.0])
    z = (re[:, None] + 1j * np.array([0.0, 0.5, np.pi, 700.0])).ravel()
    res = classify_orbits_array(m, z, 60, escape_radius=escape_radius)
    batch = list(zip(res.kinds.tolist(), res.iterations.tolist(), res.classes.tolist()))
    assert batch == [_one(m, z0, 60, escape_radius=escape_radius) for z0 in z.tolist()]
    escapes = 0
    for z0, (kind, n, cls) in zip(z.tolist(), batch):
        if kind != Kind.ESCAPING or cls != 0:
            continue
        escapes += 1
        w = z0
        for step in range(1, n + 1):
            try:
                w = m.evaluate(w)
            except Overflow:
                assert step == n, (z0, step)
                break
            assert (not abs(w) <= escape_radius) == (step == n), (z0, step, w)
    assert escapes >= 10


@pytest.mark.parametrize("z0", [709.5, 709.5 + 0.5j])
def test_a_finite_step_past_the_scalar_guard_is_not_an_escape(z0):
    """exp is finite up to Re 709.78, so f(z0) = 1e-306 e^{z0}, of modulus
    about 136, stays inside the radius 1000 although m.evaluate raises
    Overflow there; f^2(z0), near 1e-247, lies in the certified disk of the
    fixed point near 1e-306. The orbit is captured at step 2."""
    m = exp_lambda(1e-306)
    with pytest.raises(Overflow):
        m.evaluate(z0)
    att = default_attractors(m, escape_radius=1000.0)
    assert _one(m, z0, 10, escape_radius=1000.0, attractors=att) == (
        Kind.ATTRACTING, 2, CLASS_ATTRACTING)


ALL_FAMILIES = [exp_lambda(0.25), exp_lambda(-1.5), fatou_plus(), fatou_minus(), z_plus_exp(), z_exp()]


def _conjugate_test_points(seed: int) -> np.ndarray:
    """Random points about the catalog's windows, points with |Re z| up to
    800 (past the 709 where exp overflows), and points on the real axis."""
    rng = np.random.default_rng(seed)
    near = rng.uniform(-12.0, 12.0, 4000) + 1j * rng.uniform(-30.0, 30.0, 4000)
    far = rng.uniform(-800.0, 800.0, 1000) + 1j * rng.uniform(-800.0, 800.0, 1000)
    real = rng.uniform(-800.0, 800.0, 200) + 0j
    return np.concatenate([near, far, real])


def _assert_conjugate(w: np.ndarray, wc: np.ndarray) -> None:
    """wc = conj(w) bit for bit where w is finite. Non-finite values fall at
    the same entries; their nan signs may differ, and the kernel reads them
    only as escapes."""
    finite = np.isfinite(w)
    assert np.array_equal(np.isfinite(wc), finite)
    assert np.array_equal(wc[finite].view(np.float64), np.conj(w[finite]).view(np.float64))


@pytest.mark.parametrize("m", ALL_FAMILIES, ids=lambda m: f"{m.family}({m.lam})")
def test_steps_commute_with_conjugation(m):
    """f(conj z) = conj f(z) as the kernel's one step computes it: glibc's
    complex exp and numpy's complex multiply are sign-symmetric. Points past
    |Re z| = 709.78 overflow exp, and f there is inf or nan at the same
    entries on both sides."""
    z = _conjugate_test_points(3)
    w = m.evaluate_array(z)
    assert not np.isfinite(w).all()
    _assert_conjugate(w, m.evaluate_array(np.conj(z)))


@pytest.mark.parametrize("m", ALL_FAMILIES, ids=lambda m: f"{m.family}({m.lam})")
def test_conjugate_start_points_get_conjugate_verdicts(m):
    """The kernel on conj z gives z's kinds and iterations, and the classes
    that conjugate_classes makes of z's: attractor j becomes the conjugate
    entry sigma[j], drift strip k becomes -k (checked here against the
    strips read off directly), parabolic and class 0 stay."""
    z = _conjugate_test_points(4)
    att = default_attractors(m)
    budget = 1500 if m.family == "z_exp" else 300
    res = classify_orbits_array(m, z, budget, attractors=att)
    conj = classify_orbits_array(m, np.conj(z), budget, attractors=att)
    assert np.array_equal(conj.kinds, res.kinds)
    assert np.array_equal(conj.iterations, res.iterations)
    drift = (res.kinds == Kind.ESCAPING) & (res.classes != 0)
    assert np.array_equal(conj.classes[drift] - CLASS_DRIFT, CLASS_DRIFT - res.classes[drift])
    if m.family == "z_plus_exp":
        assert {-1, 1} <= set((res.classes[drift] - CLASS_DRIFT).tolist())
    sigma = attractor_conjugation(att)
    conjugate_classes(res, sigma)
    assert np.array_equal(conj.classes, res.classes)
    assert len(set(zip(res.kinds.tolist(), res.classes.tolist()))) >= 2


@pytest.mark.parametrize("m", [fatou_minus(), z_plus_exp()], ids=lambda m: m.family)
def test_conjugate_classes_do_not_depend_on_the_block_size(monkeypatch, m):
    att = default_attractors(m)
    res = classify_orbits_array(m, _conjugate_test_points(5)[:4000], 300, attractors=att)
    small = orbits.OrbitArrays(res.kinds, res.iterations, res.classes.copy())
    conjugate_classes(res, attractor_conjugation(att))
    monkeypatch.setattr(orbits, "_BLOCK", 7)
    conjugate_classes(small, attractor_conjugation(att))
    assert np.array_equal(small.classes, res.classes)
    assert len(set(res.classes.tolist())) > 10


def test_attractor_conjugation():
    """sigma maps each entry to the first entry with the conjugate point and
    the same period; a missing conjugate, or one of another period, gives
    None. So does a pair whose capture regions can meet in reversed order:
    a point in both goes to the first entry, its conjugate to the other
    entry's conjugate. Conjugate points get the same certified radius."""
    fm = default_attractors(fatou_minus())
    assert len(fm) == 15
    assert attractor_conjugation(fm).tolist() == list(range(14, -1, -1))
    assert attractor_conjugation(default_attractors(exp_lambda(0.25))).tolist() == [0]
    assert attractor_conjugation(()).tolist() == []
    a, b = 0.5 + 1j, 0.5 - 1j
    assert attractor_conjugation(((a, 1), (b, 1), (a, 1), (0.3, 2))).tolist() == [1, 0, 1, 3]
    assert attractor_conjugation(((complex(0.0, 2 * math.pi), 1),)) is None
    assert attractor_conjugation(((a, 1), (b, 2))) is None
    near = 0.3574 + 0.001j
    assert attractor_conjugation(((near, 1), (near.conjugate(), 1))) is None
    assert attractor_conjugation(((near, 2), (near.conjugate(), 2))).tolist() == [1, 0]
    assert attractor_conjugation(((near, 2), (near.conjugate(), 2)), tol=0.01) is None
    m = fatou_minus()
    assert [certified_radius(m, p) for p, _ in fm] == [certified_radius(m, p) for p, _ in fm[::-1]]
