import cmath
import re

import numpy as np
import pytest

from fatoulab.boundary import newton_periodic
from fatoulab import hyperbolic
from fatoulab.branches import apply_chain, chain_fixing, pullback_chain
from fatoulab.catalog import postsingular_sample, z_exp
from fatoulab.errors import OnPostsingularSet, OnSegment
from fatoulab.hyperbolic import (
    TWICE_PUNCTURED_K,
    VERDICT_INCONCLUSIVE,
    VERDICT_OK,
    VERDICT_VIOLATION,
    contraction_audit,
    density_bound,
    density_lower,
    density_upper,
    punctured_disk_density,
    segment_complement_density,
)

from conftest import QR

mp = pytest.importorskip("mpmath")

P01 = np.array([0.0, 1.0], dtype=complex)


def rho_twice_punctured(w):
    """Independent uniformization oracle for the density of C - {0,1} (curvature -1).

    tau(w) = i K(1-w)/K(w) inverts the modular lambda function on the standard
    region; lambda'(tau) = i pi lambda (1-lambda) theta_3^4(tau); the density
    is the half-plane density 1/Im(tau) transported by 1/|lambda'|.
    """
    mp.mp.dps = 25
    w = mp.mpc(w)
    tau = 1j * mp.ellipk(1 - w) / mp.ellipk(w)
    theta3 = mp.jtheta(3, 0, mp.exp(1j * mp.pi * tau))
    lam_prime = 1j * mp.pi * w * (1 - w) * theta3**4
    return float(1.0 / (mp.im(tau) * abs(lam_prime)))


def test_density_upper_examples():
    assert density_upper(P01, 0.5) == 4.0
    assert density_upper(np.array([0.0 + 0j]), 1.0) == 2.0
    with pytest.raises(OnPostsingularSet):
        density_upper(P01, 1e-15)
    # the postsingular cloud of z e^{-z} lies in [0, 1/e]; nearest point to
    # 2 pi i is the asymptotic value 0, so the bound is 2/(2 pi)
    cloud = postsingular_sample(z_exp(), 20)
    assert abs(density_upper(cloud, 2j * np.pi) - 1 / np.pi) < 1e-12
    assert abs(1 / np.pi - 0.31831) < 1e-5


def test_density_lower_formula_value():
    # 1/(2 |zeta| (|log zeta| + K)) at zeta = -1 with the default K
    val = density_lower(P01, -1.0)
    assert abs(val - 1.0 / (2.0 * TWICE_PUNCTURED_K)) < 1e-15
    assert val <= density_upper(P01, -1.0)


def test_density_lower_scaling_covariance():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, (6, 2))
    P = pts[:, 0] + 1j * pts[:, 1]
    z = 3.0 + 0.5j
    for c in (2.0, 0.5 - 1.3j):
        assert np.isclose(
            density_lower(c * P, c * z), density_lower(P, z) / abs(c), rtol=1e-12
        )


def test_density_lower_monotone_in_P():
    rng = np.random.default_rng(11)
    for _ in range(25):
        pts = rng.uniform(-2, 2, (8, 2))
        P = pts[:, 0] + 1j * pts[:, 1]
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(P - z)) < 1e-3:
            continue
        small = P[:4]
        assert density_lower(P, z) >= density_lower(small, z) - 1e-15


def test_uniformization_spot_check():
    """Validates the twice-punctured constant against the modular-lambda oracle
    at five sample points before any audit is trusted."""
    for z in (-1.0, 0.5 + 2j, -3 + 1j, 5.0, 0.5 + 0.2j):
        lo = density_lower(P01, z)
        hi = density_upper(P01, z)
        true = rho_twice_punctured(z)
        assert lo <= true <= hi, (z, lo, true, hi)


def test_sandwich_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pts = rng.uniform(-2, 2, (5, 2))
        P = pts[:, 0] + 1j * pts[:, 1]
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if min(abs(P - z)) < 1e-2:
            continue
        assert density_lower(P, z) <= density_upper(P, z)


# ---------------------------------------------------------------------------
# Segment complement (exact)
# ---------------------------------------------------------------------------


def test_punctured_disk_kernel():
    assert abs(punctured_disk_density(1 / np.e) - np.e) < 1e-14
    with pytest.raises(ValueError):
        punctured_disk_density(1.5)


def test_segment_density_decays_at_infinity():
    assert segment_complement_density(1.0, 1e6 + 0j) < 1e-4


def test_segment_density_on_segment_error():
    with pytest.raises(OnSegment):
        segment_complement_density(1.0, 0.5)


def _segment_density_via_sqrt_chart(c, z):
    """Independent conformal route: Moebius -> sqrt -> Cayley onto the punctured disk."""
    w = 4 * z / c - 2
    mw = (w - 2) / (w + 2)
    u = cmath.sqrt(mw)
    zeta = (1 - u) / (1 + u)
    deriv = abs(-2 / (1 + u) ** 2) * abs(1 / (2 * u)) * abs(4 / (w + 2) ** 2) * (4 / c)
    return punctured_disk_density(zeta) * deriv


def test_segment_density_against_independent_chart():
    for c in (1.0, 1 / np.e):
        for z in (c / 2 + 1j * c, -2 + 0.5j, 3.0 + 0j, 10j, 0.2 * c + 0.01j * c):
            a = segment_complement_density(c, z)
            b = _segment_density_via_sqrt_chart(c, z)
            assert abs(a - b) < 1e-6 * max(a, 1e-12), (c, z, a, b)


def test_segment_exactness_sandwich():
    """A 200-point cloud dense in [0, c] must bracket the exact segment density."""
    c = 1.0
    P = np.linspace(0.0, c, 200).astype(complex)
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        if min(abs(P - z)) < 0.05:
            continue
        lo = density_lower(P, z)
        seg = segment_complement_density(c, z)
        hi = density_upper(P, z)
        assert lo <= seg <= hi, (z, lo, seg, hi)
        checked += 1


# ---------------------------------------------------------------------------
# Contraction audits
# ---------------------------------------------------------------------------


def _circle(c, r, n=100):
    return [c + r * np.exp(2j * np.pi * k / n) for k in range(n)]


def test_identity_chain_ratios_exactly_one(exp_map):
    chain = pullback_chain(exp_map, [1.0 + 0.5j])
    P = postsingular_sample(exp_map, 10)
    audit = contraction_audit(exp_map, chain, _circle(1.0 + 0.5j, 0.1), P)
    assert all(r.ratio_lower == r.ratio_upper == 1.0 for r in audit.rows)
    assert all(r.verdict == VERDICT_OK for r in audit.rows)
    assert not audit.certified_violations


def test_zexp_segment_audit_conclusive(zexp_map):
    """Expansion along the boundary chain at 2 pi i; the exact segment bound
    makes the interval audit conclusive."""
    p = newton_periodic(zexp_map, 6j, 1).point
    P = postsingular_sample(zexp_map, 30)
    chain = chain_fixing(zexp_map, p, 2)
    audit = contraction_audit(
        zexp_map, chain, _circle(p, 0.3), P, segment=float(np.exp(-1.0))
    )
    assert not audit.certified_violations
    assert audit.conclusive_fraction >= 0.6


def test_exp_lambda_audit_slack_monotone_in_depth(exp_map):
    """Upper ratio bounds never grow as the postsingular cloud deepens."""
    chain = chain_fixing(exp_map, QR, 4)
    region = _circle(QR, 0.1)
    prev = None
    for depth in (10, 20, 40):
        P = postsingular_sample(exp_map, depth)
        audit = contraction_audit(exp_map, chain, region, P)
        assert not audit.certified_violations
        hi = max(r.ratio_upper for r in audit.rows)
        if prev is not None:
            assert hi <= prev + 1e-12
        prev = hi
    assert prev <= 1.2  # length-4 chain contracts hard enough to beat the slack


def test_no_violation_verdicts_across_catalog(exp_map, zexp_map, zplus_map):
    cases = []
    for length in (2, 4):
        cases.append((exp_map, chain_fixing(exp_map, QR, length),
                      _circle(QR, 0.1), postsingular_sample(exp_map, 20), None))
    p2 = newton_periodic(zexp_map, 6j, 1).point
    for length in (1, 2):
        cases.append((zexp_map, chain_fixing(zexp_map, p2, length),
                      _circle(p2, 0.3), postsingular_sample(zexp_map, 20),
                      float(np.exp(-1.0))))
    orbit = [1.0 + 1j * np.pi]
    for _ in range(3):
        orbit.append(zplus_map.evaluate(orbit[-1]))
    Pp = postsingular_sample(zplus_map, 15, k_bound=2)
    for length in (2, 3):
        cases.append((zplus_map, pullback_chain(zplus_map, orbit[: length + 1]),
                      _circle(orbit[length], 0.15), Pp, None))
    for m, chain, region, P, segment in cases:
        audit = contraction_audit(m, chain, region, P, segment=segment)
        assert not audit.certified_violations
        assert all(r.verdict != VERDICT_VIOLATION for r in audit.rows)


# ---------------------------------------------------------------------------
# The array audit against the per-point reference
# ---------------------------------------------------------------------------


def _reference_bound(p, z, segment):
    """density_bound of one point over every pair of p, repeated points
    masked, as the audit computed it point by point."""
    pts = np.asarray(p, dtype=complex).ravel()
    if float(np.min(np.abs(pts - z))) < 1e-14:
        raise OnPostsingularSet(z)
    a = pts[:, None]
    sep = pts[None, :] - a
    mask = np.abs(sep) > 0.0
    zeta = np.where(mask, (z - a) / np.where(mask, sep, 1.0), np.nan)
    r = np.abs(zeta)
    bound = 1.0 / (2.0 * r * (np.abs(np.log(r)) + TWICE_PUNCTURED_K))
    vals = np.where(mask, bound / np.abs(np.where(mask, sep, 1.0)), -np.inf)
    lower = float(np.nanmax(vals))
    upper = 2.0 / float(np.min(np.abs(pts - z)))
    if segment is not None:
        upper = min(upper, segment_complement_density(segment, z))
    return min(lower, upper), upper


def _reference_audit(m, chain, region, p, segment):
    """The audit's rows as (point, ratio_lower, ratio_upper, verdict), one point at a time."""
    rows = []
    for x in region:
        x = complex(x)
        y = apply_chain(chain, x)
        f_prime = 1.0 / abs(m.iterate_with_derivative(y, len(chain))[1])
        x_lower, x_upper = _reference_bound(p, x, segment)
        y_lower, y_upper = _reference_bound(p, y, segment)
        lo = y_lower * f_prime / x_upper
        hi = y_upper * f_prime / x_lower
        if hi <= 1.0:
            verdict = VERDICT_OK
        elif lo > 1.0:
            verdict = VERDICT_VIOLATION
        else:
            verdict = VERDICT_INCONCLUSIVE
        rows.append((x, lo.hex(), hi.hex(), verdict))
    return rows


def _rows(audit):
    return [(r.point, r.ratio_lower.hex(), r.ratio_upper.hex(), r.verdict) for r in audit.rows]


def _audit_cases(exp_map, zexp_map, zplus_map):
    """(map, chain, region, cloud with repeated points, segment): the bench's
    z_exp audit, an exp_lambda(1/4) chain and a z_plus_exp orbit chain."""
    p = newton_periodic(zexp_map, 6j, 1).point
    cloud = postsingular_sample(zexp_map, 30, k_bound=2)
    # the cloud as once sampled: the fixed asymptotic value 0 once per step
    repeated = np.concatenate([cloud, np.zeros(30, dtype=complex)])
    yield zexp_map, chain_fixing(zexp_map, p, 2), _circle(p, 0.3, 200), repeated, float(np.exp(-1.0))
    cloud = postsingular_sample(exp_map, 20)
    repeated = np.concatenate([cloud, cloud[::2]])
    yield exp_map, chain_fixing(exp_map, QR, 4), _circle(QR, 0.1), repeated, None
    orbit = [1.0 + 1j * np.pi]
    for _ in range(3):
        orbit.append(zplus_map.evaluate(orbit[-1]))
    cloud = postsingular_sample(zplus_map, 15, k_bound=2)
    repeated = np.concatenate([cloud[::3], cloud])
    yield zplus_map, pullback_chain(zplus_map, orbit), _circle(orbit[3], 0.15), repeated, None


def test_array_audit_equals_the_per_point_reference(exp_map, zexp_map, zplus_map, monkeypatch):
    """Every row of the array audit equals the per-point reference bit for
    bit, with repeated cloud points passed in, at the default chunk and at
    chunks that split the pairs of one point and group a few points."""
    for m, chain, region, cloud, segment in _audit_cases(exp_map, zexp_map, zplus_map):
        expected = _reference_audit(m, chain, region, cloud, segment)
        assert _rows(contraction_audit(m, chain, region, cloud, segment=segment)) == expected
        for chunk in (97, 3000):
            with monkeypatch.context() as patch:
                patch.setattr(hyperbolic, "_PAIR_CHUNK", chunk)
                audit = contraction_audit(m, chain, region, cloud, segment=segment)
            assert _rows(audit) == expected, (m, chunk)


def test_density_bound_of_an_array_equals_its_points(zexp_map):
    """An array query returns the bounds of its points in its own shape, and a
    point gives floats; the first point on P is the one named."""
    cloud = postsingular_sample(zexp_map, 30, k_bound=2)
    z = np.array([[0.5 + 0.5j, -1.0 + 2j], [3.0 + 0j, 0.1 - 0.2j]])
    lower, upper = density_bound(cloud, z, float(np.exp(-1.0)))
    assert lower.shape == upper.shape == (2, 2)
    for x, lo, hi in zip(z.ravel(), lower.ravel(), upper.ravel()):
        assert density_bound(cloud, x, float(np.exp(-1.0))) == (lo, hi)
        assert type(density_lower(cloud, x)) is float
    near = cloud[5] + 1e-15j
    with pytest.raises(OnPostsingularSet, match=re.escape(str(near))):
        density_upper(cloud, [1.0 + 1j, near, cloud[3]])
