import cmath
import math

import numpy as np
import pytest

from fatoulab.boundary import newton_periodic
from fatoulab.branches import (
    _damped_newton,
    _lambert_root,
    apply_chain,
    branch_of,
    chain_fixing,
    inverse,
    pullback_chain,
)
from fatoulab.catalog import exp_lambda, fatou_minus, fatou_plus, z_exp, z_plus_exp
from fatoulab.errors import (
    AmbiguousBranch,
    AsymptoticValueCollision,
    BranchJumpDetected,
    CriticalValueCollision,
    NewtonDiverged,
)

from conftest import QR

TWO_PI = 2 * np.pi


def test_inverse_closed_forms(exp_map, zplus_map, zexp_map):
    assert abs(inverse(exp_map, 1.0, 0) - np.log(4.0)) < 1e-15
    assert inverse(zplus_map, 1.0, 0) == 0.0  # f(0) = 1, the merging critical preimage
    # Newton/Lambert oracle inverts the forward evaluation example
    assert abs(inverse(zexp_map, 0.25464638004358253, 0) - 0.36787944117144233) < 1e-12


def test_inverse_strip_membership(zplus_map):
    for k in (-2, 0, 3):
        z = inverse(zplus_map, 0.7 + 0.3j, k)
        assert (2 * k - 1) * np.pi < z.imag <= (2 * k + 1) * np.pi + 1e-12
        assert branch_of(zplus_map, z) == k


def test_inverse_round_trip_all_families():
    rng = np.random.default_rng(17)
    maps = [exp_lambda(0.25), z_plus_exp(), fatou_plus(), fatou_minus(), z_exp()]
    for m in maps:
        count, worst = 0, 0.0
        while count < 1000:
            w = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            k = int(rng.integers(-2, 3))
            try:
                z = inverse(m, w, k)
            except Exception:
                continue
            count += 1
            worst = max(worst, abs(m.evaluate(z) - w))
        assert worst < 1e-11, (m.family, worst)


def test_singular_value_guards(exp_map, zplus_map, zexp_map):
    with pytest.raises(AsymptoticValueCollision):
        inverse(exp_map, 1e-14, 0)
    with pytest.raises(AsymptoticValueCollision):
        inverse(zexp_map, 0.0, 0)
    with pytest.raises(CriticalValueCollision):
        inverse(zplus_map, 1.0 + 1e-13, 0)
    with pytest.raises(CriticalValueCollision):
        inverse(zexp_map, np.exp(-1.0) + 1e-13, 0)
    # exact hits return the merging critical point
    assert inverse(zexp_map, float(np.exp(-1.0)), 0) == 1.0


# ---------------------------------------------------------------------------
# Pullback chains
# ---------------------------------------------------------------------------


def test_chain_from_orbit(zplus_map):
    orbit = [0.0, 1.0, 1.0 + np.exp(-1.0)]
    chain = pullback_chain(zplus_map, orbit)
    assert len(chain) == 2
    assert max(s.residual for s in chain.steps) < 1e-12
    assert abs(apply_chain(chain, chain.terminal) - orbit[0]) < 1e-9


def test_single_point_orbit_identity(exp_map):
    chain = pullback_chain(exp_map, [1.0 + 0.5j])
    assert len(chain) == 0
    assert apply_chain(chain, 0.3 + 0.2j) == 0.3 + 0.2j


def _lambert_cases():
    """w = -x for Lambert arguments x with 1e-3 <= |w| <= 1e2: a polar grid off
    the real axis, the cut x < 0 (w > 0 with Im w = +-1e-13 |w| and +-0),
    points within 1e-3 of the branch point x = -1/e, and seeded random points."""
    rng = np.random.default_rng(29)
    for r in np.geomspace(1e-3, 1e2, 16):
        for a in np.linspace(-np.pi, np.pi, 24, endpoint=False) + np.pi / 24:
            yield complex(r * cmath.exp(1j * a))
        for im in (1e-13 * r, 0.0, -0.0, -1e-13 * r):
            yield complex(r, im)
    for d in np.geomspace(1e-12, 1e-3, 10):
        for side in (1, -1, 1j, -1j):
            yield complex(math.exp(-1.0) + side * d)
    for _ in range(500):
        yield complex(*rng.normal(size=2)) * float(10 ** rng.uniform(-3, 2))


def test_lambert_roots_equal_roots_from_scipy_seeds(zexp_map):
    """For k in -3..3, the root -W_k(-w) polished from the series seed and
    Halley's steps equals, within 1e-9 relative, the root Newton polishes from
    SciPy's lambertw; next to the critical point 1, where Newton's residual
    1e-12 fixes a root only to 1e-12 / |f'|, within that. `inverse` returns it
    when `branch_of` gives it index k, and raises NewtonDiverged otherwise, so
    it never returns a root on another branch; it refuses only real w > 0, on
    the cuts, where the index of a computed root rests on rounding."""
    from scipy.special import lambertw

    returned = refused = 0
    for w in _lambert_cases():
        for k in range(-3, 4):
            try:
                ref = _damped_newton(zexp_map, w, complex(-lambertw(-w, k=k)))
            except NewtonDiverged:
                continue
            z = _lambert_root(zexp_map, w, k)
            slope = abs(zexp_map.eval_with_derivative(ref)[1])
            assert abs(z - ref) <= max(1e-9 * abs(ref), 1e-12 / slope), (w, k)
            try:
                assert inverse(zexp_map, w, k) == z and branch_of(zexp_map, z) == k, (w, k)
                returned += 1
            except NewtonDiverged:
                assert branch_of(zexp_map, z) != k, (w, k)
                assert w.imag == 0 and w.real > 0, (w, k)
                refused += 1
            except CriticalValueCollision:
                assert abs(w - math.exp(-1.0)) < 1e-12
    assert returned > 30 * refused


def test_inverse_zexp_refuses_no_random_request(zexp_map):
    """`branch_of` reads the Lambert-W index of a z_exp root from its
    unwinding number, so `inverse` returns -W_k(-w) for every one of 3,000
    random requests, where the strip index refused about a quarter."""
    from scipy.special import lambertw

    rng = np.random.default_rng(0)
    re, im = rng.uniform(-2, 2, (2, 3000))
    for w, k in zip((re + 1j * im).tolist(), rng.integers(-3, 4, 3000).tolist()):
        z = inverse(zexp_map, w, k)
        ref = complex(-lambertw(-w, k))
        assert abs(z - ref) <= 1e-9 * max(1.0, abs(ref)), (w, k)
        assert branch_of(zexp_map, z) == k


def test_branch_of_zexp_on_the_real_axis(zexp_map):
    """W = -z real: W_-1 below -1, W_0 from -1 up, whatever the zero's sign."""
    for x, k in ((-3.0, -1), (-1.0 - 1e-9, -1), (-1.0, 0), (-0.5, 0), (0.0, 0), (2.0, 0)):
        for im in (0.0, -0.0):
            assert branch_of(zexp_map, -complex(x, im)) == k, (x, im)


def test_lambert_root_at_the_double_nearest_the_critical_value(zexp_map):
    """The double nearest 1/e exceeds 1/e by 1.2e-17, so -w lies on the cut
    just past the branch point, where W_0 = -1 -+ 8.2e-9 i: the principal
    root is that conjugate pair, on the side the sign of Im w picks."""
    for im, side in ((0.0, 1), (-0.0, -1)):
        w = complex(math.exp(-1.0), im)
        z = _lambert_root(zexp_map, w, 0)
        assert z.real == 1.0 and side * z.imag == pytest.approx(8.22e-9, rel=1e-3)
        assert abs(zexp_map.evaluate(z) - w) < 1e-15


def test_orbit_through_critical_value(zexp_map):
    with pytest.raises(AmbiguousBranch):
        pullback_chain(zexp_map, [1.0, float(np.exp(-1.0))])


def test_orbit_near_critical_value_keeps_both_merging_preimages(zexp_map):
    """Near the critical point 1 the two preimages of f(z) nearly merge; the
    candidates hold both, so the trust radius is about |z - 1|, not the
    distance to a preimage on another branch."""
    for dz in (1e-5, -1e-5, 1e-5j, 1e-4):
        z = 1 + dz
        chain = pullback_chain(zexp_map, [z, zexp_map.evaluate(z)])
        assert 0.5 * abs(dz) < chain.trust_radius < 2 * abs(dz), dz


def test_orbit_consecutive_precondition(zplus_map):
    with pytest.raises(ValueError):
        pullback_chain(zplus_map, [0.0, 2.0])


def test_chain_determinism_and_prefix_stability(zplus_map):
    orbit = [1.0 + 1j * np.pi]
    for _ in range(4):
        orbit.append(zplus_map.evaluate(orbit[-1]))
    c1 = pullback_chain(zplus_map, orbit)
    c2 = pullback_chain(zplus_map, orbit)
    assert [s.branch for s in c1.steps] == [s.branch for s in c2.steps]
    assert [s.anchor for s in c1.steps] == [s.anchor for s in c2.steps]
    # extending the orbit by exact forward images keeps the shared prefix
    prefix = pullback_chain(zplus_map, orbit[:3])
    assert [s.branch for s in prefix.steps] == [s.branch for s in c1.steps[:2]]


def test_chain_contraction_at_repelling_point(exp_map):
    # |F'(q_r)| = 1/f'(q_r) = 1/q_r
    chain = chain_fixing(exp_map, QR, 1)
    for dz in (0.1, 0.05j, -0.07 + 0.03j):
        z = QR + dz
        img = apply_chain(chain, z)
        assert abs(img - QR) <= (1 / QR + 0.05) * abs(dz)


def test_chain_fixing_follows_a_period_two_cycle(exp_map):
    """The chain steps through p, f(p), p and its composed branch fixes p."""
    p = newton_periodic(exp_map, 2.5 + 6.0j, 2).point
    chain = chain_fixing(exp_map, p, 2, 2)
    assert [s.anchor for s in chain.steps] == [p, exp_map.evaluate(p)]
    assert abs(chain.terminal - p) < 1e-9
    assert abs(apply_chain(chain, p) - p) < 1e-9
    assert len(chain_fixing(exp_map, p, 4, 2)) == 4


def test_inverse_at_the_shift_has_no_log_seed():
    """At w = c + 2 pi i k the log seed is undefined and v - c = 0 is the
    critical point; the preimage W_0(-1) + 2 pi i k is still found."""
    cases = [(z_plus_exp(), 0.0, 0), (fatou_plus(), 1.0, 0)]
    cases += [(fatou_minus(), -1.0 + TWO_PI * 1j * k, k) for k in range(-2, 3)]
    for m, w, k in cases:
        z = inverse(m, w, k)
        assert abs(m.evaluate(z) - w) < 1e-12, (m.family, k)
        assert branch_of(m, z) == k
        assert abs(z - (-0.3181315052047642 + 1.3372357014306893j + TWO_PI * 1j * k)) < 1e-12


def test_chain_contraction_zexp(zexp_map):
    p = newton_periodic(zexp_map, 6j, 1).point
    mult = abs(1 - 2j * np.pi)
    chain = chain_fixing(zexp_map, p, 1)
    for dz in (0.05, 0.04j):
        img = apply_chain(chain, p + dz)
        assert abs(img - p) <= (1 / mult + 0.05) * abs(dz)


def test_branch_jump_detected(zplus_map):
    orbit = [0.0, 1.0, 1.0 + np.exp(-1.0)]
    chain = pullback_chain(zplus_map, orbit)
    assert [(s.branch, s.anchor) for s in chain.steps] == [(0, 0.0), (0, 1.0)]
    with pytest.raises(BranchJumpDetected):
        apply_chain(chain, chain.terminal + 30.0)
