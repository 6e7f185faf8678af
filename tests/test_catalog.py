import warnings

import numpy as np
import pytest

from fatoulab.catalog import (
    FAMILIES,
    EntireMap,
    exp_lambda,
    fatou_minus,
    fatou_plus,
    postsingular_sample,
    singular_values,
    z_exp,
    z_plus_exp,
)
from fatoulab.errors import Overflow

from conftest import QA


def all_maps():
    return [
        exp_lambda(0.25),
        fatou_plus(),
        fatou_minus(),
        z_plus_exp(),
        z_exp(),
    ]


def test_eval_closed_forms():
    assert z_plus_exp().evaluate(0.0) == 1.0  # e^0 = 1
    # high-precision direct evaluation of (1/e) e^{-1/e}
    x = 1.0 / np.e
    assert abs(z_exp().evaluate(x) - 0.25464638004358253) < 1e-15
    # fixed point of q = (1/4) e^q located by a Newton/Lambert oracle
    m = exp_lambda(0.25)
    assert abs(m.evaluate(QA) - QA) < 1e-12
    assert abs(QA - 0.357403) < 1e-6


def test_eval_with_derivative_consistent():
    rng = np.random.default_rng(2)
    for m in all_maps():
        for _ in range(50):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            f1 = m.evaluate(z)
            f2, _ = m.eval_with_derivative(z)
            assert f1 == f2


def test_overflow_is_an_error_value():
    with pytest.raises(Overflow):
        z_plus_exp().evaluate(-800.0)
    with pytest.raises(Overflow):
        exp_lambda(0.25).evaluate(800.0)
    # the array path returns a non-finite value instead, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = z_plus_exp().evaluate_array(np.array([-800.0 + 0j, 0j]))
    assert np.isfinite(w).tolist() == [False, True]


def test_derivative_matches_central_difference():
    # |f' - fd| / (1 + |f'|) < 1e-6 at 1000 random points with |z| <= 10
    rng = np.random.default_rng(7)
    h = 1e-6
    for m in all_maps():
        pts = rng.uniform(-1, 1, (1000, 2)) * np.array([10 / np.sqrt(2), 10 / np.sqrt(2)])
        worst = 0.0
        for re, im in pts:
            z = complex(re, im)
            d = m.eval_with_derivative(z)[1]
            fd = (m.evaluate(z + h) - m.evaluate(z - h)) / (2 * h)
            worst = max(worst, abs(d - fd) / (1.0 + abs(d)))
        assert worst < 1e-6, (m.family, worst)


def test_derivative_bound_covers_the_disk():
    """derivative_bound(p, r) is at least |f'| on 4096 points of the circle
    |z - p| = r, hence on the whole disk by the maximum principle; for
    exp_lambda it is attained at z = p + r."""
    derivatives = {
        "exp_lambda": lambda z: 0.25 * np.exp(z),
        "z_exp": lambda z: (1.0 - z) * np.exp(-z),
    }
    circle = np.exp(2j * np.pi * np.arange(4096) / 4096)
    rng = np.random.default_rng(11)
    for m in all_maps():
        df = derivatives.get(m.family, lambda z: 1.0 - np.exp(-z))
        for re, im in rng.uniform(-4.0, 4.0, (40, 2)):
            p = complex(re, im)
            for r in (1.0, 0.5, 0.125, 2.0**-10):
                sup = np.max(np.abs(df(p + r * circle)))
                bound = m.derivative_bound(p, r)
                assert sup <= bound * (1 + 1e-12), (m.family, p, r, sup, bound)
                if m.family == "exp_lambda":
                    assert sup == pytest.approx(bound, rel=1e-12)


def test_family_validation():
    with pytest.raises(ValueError):
        EntireMap("nope")
    with pytest.raises(ValueError):
        EntireMap("exp_lambda")
    with pytest.raises(ValueError):
        EntireMap("z_exp", 0.3)
    assert EntireMap("exp_lambda", np.float64(-1.5)).lam == -1.5


@pytest.mark.parametrize("lam", [0.3 + 0.1j, 0.25 + 0j, np.complex128(0.25), True, "0.25", 0.0,
                                 float("nan"), float("inf"), 10**400])
def test_exp_lambda_requires_a_finite_nonzero_real_lambda(lam):
    """A real lambda is what makes exp_lambda commute with conjugation, which
    the grids' conjugation fold relies on; the constructor enforces it, as
    the config schema does."""
    with pytest.raises(ValueError):
        EntireMap("exp_lambda", lam)
    with pytest.raises(ValueError):
        EntireMap.from_json({"family": "exp_lambda", "lambda": lam})
    assert set(FAMILIES) == {"exp_lambda", "fatou_plus", "fatou_minus", "z_plus_exp", "z_exp"}


def test_map_from_json():
    descriptors = [
        {"family": "exp_lambda", "lambda": 0.25},
        {"family": "fatou_plus"},
        {"family": "fatou_minus"},
        {"family": "z_plus_exp"},
        {"family": "z_exp"},
    ]
    assert [EntireMap.from_json(d) for d in descriptors] == all_maps()
    for bad in ({"lambda": 0.25}, {"family": "exp_lambda", "lambda": "quarter"}, ["z_exp"]):
        with pytest.raises(ValueError):
            EntireMap.from_json(bad)


# ---------------------------------------------------------------------------
# Singular data
# ---------------------------------------------------------------------------


def test_singular_values_z_plus_exp():
    sd = singular_values(z_plus_exp(), k_bound=3)
    assert len(sd.critical_points) == 7
    for k, cp, cv in zip(range(-3, 4), sd.critical_points, sd.critical_values):
        assert cp == 2j * np.pi * k
        assert abs(cv - (1 + 2j * np.pi * k)) < 1e-12
    assert sd.asymptotic_values == ()


def test_singular_values_z_exp_and_exp_lambda():
    sd = singular_values(z_exp())
    assert sd.critical_points == (1.0 + 0.0j,)
    assert abs(sd.critical_values[0] - np.exp(-1.0)) < 1e-15
    assert sd.asymptotic_values == (0.0 + 0.0j,)
    sd = singular_values(exp_lambda(0.25))
    assert sd.critical_points == ()
    assert sd.asymptotic_values == (0.0 + 0.0j,)


def test_critical_point_residuals():
    for m in all_maps():
        sd = singular_values(m, k_bound=8)
        for cp, cv in zip(sd.critical_points, sd.critical_values):
            assert abs(m.eval_with_derivative(cp)[1]) < 1e-12
            assert cv == m.evaluate(cp)  # listed values are exactly f(point)


# ---------------------------------------------------------------------------
# Postsingular sampling
# ---------------------------------------------------------------------------


def test_postsingular_chain_property():
    """The cloud lists distinct points in first-reached order: each point is a
    singular value or f of a point listed before it, bit for bit."""
    for m in all_maps():
        sd = singular_values(m, k_bound=2)
        sources = set(sd.critical_values + sd.asymptotic_values)
        cloud = postsingular_sample(m, 10, k_bound=2)
        assert cloud.dtype == complex and cloud.ndim == 1
        assert np.unique(cloud).size == cloud.size
        assert np.all(np.abs(cloud) <= 1e6)
        images = set()
        for p in cloud:
            assert p in sources or p in images, (m, p)
            try:
                images.add(m.evaluate(p))
            except Overflow:
                pass


def test_postsingular_zexp_tail():
    # direct-iteration oracle; monotone decrease since x e^{-x} < x on (0, 1/e]
    cloud = postsingular_sample(z_exp(), 3)
    tail = cloud[:4].real
    expected = [0.36787944117144233, 0.25464638004358253, 0.19739947309425335, 0.1620378556316583]
    assert np.allclose(tail, expected, rtol=0, atol=1e-14)
    assert all(0 < b < a <= 1 / np.e + 1e-15 for a, b in zip(tail, tail[1:]))
    # the fixed asymptotic value 0 comes last, once
    assert cloud.tolist() == [*cloud[:4].tolist(), 0j]


def test_postsingular_zexp_cloud_lists_zero_once():
    """At the audit's depth 30 the orbit of 1/e gives 31 points and the
    asymptotic value 0, which f fixes, one more: 32, not 62."""
    cloud = postsingular_sample(z_exp(), 30, k_bound=2)
    assert cloud.size == 32
    assert cloud[0] == z_exp().evaluate(1.0) and cloud[-1] == 0
    assert np.all(np.diff(cloud[:31].real) < 0)


def test_postsingular_exp_lambda_orbit():
    cloud = postsingular_sample(exp_lambda(0.25), 5)
    orbit = cloud.real
    expected = [0.0, 0.25, 0.32100635417193535, 0.34462858504576444,
                0.3528663957188888, 0.35578524825053476]
    assert np.allclose(orbit, expected, rtol=0, atol=1e-14)
    assert abs(orbit[-1] - QA) < 2e-3  # converging toward the fixed point


def test_postsingular_depth_zero_and_truncation():
    for m in all_maps():
        sd = singular_values(m, k_bound=1)
        cloud = postsingular_sample(m, 0, k_bound=1)
        assert cloud.tolist() == list(dict.fromkeys(sd.critical_values + sd.asymptotic_values))
    # escape ends an orbit: the first point past the radius is left out
    m = z_plus_exp()
    cloud = postsingular_sample(m, 50, escape_radius=3.0, k_bound=0)
    assert 1 < cloud.size < 51
    assert np.all(np.abs(cloud) <= 3.0) and abs(m.evaluate(cloud[-1])) > 3.0
    # overflow ends an orbit: 1000 e^1000 is past double range
    cloud = postsingular_sample(exp_lambda(1000.0), 5, escape_radius=1e300)
    assert cloud.tolist() == [0j, 1000 + 0j]
