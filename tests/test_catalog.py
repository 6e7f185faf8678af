import numpy as np
import pytest

import fatoulab as fl
from fatoulab.catalog import FAMILIES, CloudSample, EntireMap
from fatoulab.errors import Overflow, WindowTooSmall

from conftest import QA


def all_maps():
    return [
        fl.exp_lambda(0.25),
        fl.fatou_plus(),
        fl.fatou_minus(),
        fl.z_plus_exp(),
        fl.z_exp(),
    ]


def test_eval_closed_forms():
    assert fl.z_plus_exp().evaluate(0.0) == 1.0  # e^0 = 1
    # high-precision direct evaluation of (1/e) e^{-1/e}
    x = 1.0 / np.e
    assert abs(fl.z_exp().evaluate(x) - 0.25464638004358253) < 1e-15
    # fixed point of q = (1/4) e^q located by a Newton/Lambert oracle
    m = fl.exp_lambda(0.25)
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
        fl.z_plus_exp().evaluate(-800.0)
    with pytest.raises(Overflow):
        fl.exp_lambda(0.25).evaluate(800.0)
    # array path returns a mask instead
    _, bad = fl.z_plus_exp().evaluate_array(np.array([-800.0 + 0j, 0j]))
    assert bad.tolist() == [True, False]


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


def test_family_validation():
    with pytest.raises(ValueError):
        EntireMap("nope")
    with pytest.raises(ValueError):
        EntireMap("exp_lambda")
    with pytest.raises(ValueError):
        EntireMap("z_exp", 0.3)
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
    sd = fl.singular_values(fl.z_plus_exp(), k_bound=3)
    assert len(sd.critical_points) == 7
    for k, cp, cv in zip(sd.critical_indices, sd.critical_points, sd.critical_values):
        assert cp == 2j * np.pi * k
        assert abs(cv - (1 + 2j * np.pi * k)) < 1e-12
    assert sd.asymptotic_values == ()


def test_singular_values_z_exp_and_exp_lambda():
    sd = fl.singular_values(fl.z_exp())
    assert sd.critical_points == (1.0 + 0.0j,)
    assert abs(sd.critical_values[0] - np.exp(-1.0)) < 1e-15
    assert sd.asymptotic_values == (0.0 + 0.0j,)
    sd = fl.singular_values(fl.exp_lambda(0.25))
    assert sd.critical_points == ()
    assert sd.asymptotic_values == (0.0 + 0.0j,)


def test_critical_point_residuals():
    for m in all_maps():
        sd = fl.singular_values(m, k_bound=8)
        for cp, cv in zip(sd.critical_points, sd.critical_values):
            assert abs(m.eval_with_derivative(cp)[1]) < 1e-12
            assert cv == m.evaluate(cp)  # listed values are exactly f(point)


# ---------------------------------------------------------------------------
# Postsingular sampling
# ---------------------------------------------------------------------------


def test_postsingular_chain_property():
    for m in all_maps():
        cloud = fl.postsingular_sample(m, 10, k_bound=2)
        by_source = {}
        for s in cloud.samples:
            by_source.setdefault(s.source, []).append(s)
        for samples in by_source.values():
            samples.sort(key=lambda s: s.step)
            for a, b in zip(samples, samples[1:]):
                err = abs(m.evaluate(a.point) - b.point)
                assert err < 1e-10 * (1 + abs(b.point))
        assert all(abs(s.point) <= cloud.escape_radius for s in cloud.samples)


def test_postsingular_zexp_tail():
    # direct-iteration oracle; monotone decrease since x e^{-x} < x on (0, 1/e]
    cloud = fl.postsingular_sample(fl.z_exp(), 3)
    tail = [s.point.real for s in cloud.samples if s.source.startswith("cv")]
    expected = [0.36787944117144233, 0.25464638004358253, 0.19739947309425335, 0.1620378556316583]
    assert np.allclose(tail, expected, rtol=0, atol=1e-14)
    assert all(0 < b < a <= 1 / np.e + 1e-15 for a, b in zip(tail, tail[1:]))


def test_postsingular_exp_lambda_orbit():
    cloud = fl.postsingular_sample(fl.exp_lambda(0.25), 5)
    orbit = [s.point.real for s in cloud.samples]
    expected = [0.0, 0.25, 0.32100635417193535, 0.34462858504576444,
                0.3528663957188888, 0.35578524825053476]
    assert np.allclose(orbit, expected, rtol=0, atol=1e-14)
    assert abs(orbit[-1] - QA) < 2e-3  # converging toward the fixed point


def test_postsingular_depth_zero_and_truncation():
    for m in all_maps():
        cloud = fl.postsingular_sample(m, 0, k_bound=1)
        sd = fl.singular_values(m, k_bound=1)
        assert sorted((s.point for s in cloud.samples), key=abs) == sorted(
            (v for _, v in sd.sources()), key=abs
        )
    cloud = fl.postsingular_sample(fl.z_plus_exp(), 50, escape_radius=3.0, k_bound=0)
    assert "cv[k=0]" in cloud.truncated
    assert all(abs(s.point) <= 3.0 for s in cloud.samples)


# ---------------------------------------------------------------------------
# PS / SPS audits
# ---------------------------------------------------------------------------


def test_ps_audit_exp_lambda(exp_map, exp_grid):
    cloud = fl.postsingular_sample(exp_map, 25)
    rep = fl.ps_audit(exp_map, exp_grid, cloud, delta=0.1, sps=True)
    assert rep.ps_evidence
    assert rep.sps_evidence
    assert rep.min_distance > 1.5  # orbit of 0 sits deep inside the basin


def test_ps_audit_monotone_in_delta(exp_map, exp_grid):
    cloud = fl.postsingular_sample(exp_map, 25)
    assert fl.ps_audit(exp_map, exp_grid, cloud, delta=0.1).ps_evidence
    assert fl.ps_audit(exp_map, exp_grid, cloud, delta=0.05).ps_evidence


def test_ps_audit_z_plus_exp(zplus_map):
    grid = fl.label_components(
        fl.classify_grid(zplus_map, (-2.0, 10.0, -np.pi, np.pi), (300, 160), 400)
    )
    cloud = fl.postsingular_sample(zplus_map, 12, k_bound=0)
    rep = fl.ps_audit(zplus_map, grid, cloud, delta=0.5, sps=True)
    assert rep.in_window_fraction == 1.0
    assert rep.ps_evidence and rep.sps_evidence
    assert rep.min_distance > 2.0  # the critical-value orbit runs along R, ~pi off the edges


def test_ps_audit_sample_on_label_0_cell_is_at_distance_0(exp_map, exp_grid):
    deep, julia = CloudSample("fixed point", 0, QA + 0j), CloudSample("escaping", 1, 3.0 + 0j)
    assert exp_grid.label_at(deep.point) > 0 and exp_grid.label_at(julia.point) == 0
    cloud = fl.PostsingularCloud(samples=(deep, julia), depth=1, escape_radius=1e6)
    rep = fl.ps_audit(exp_map, exp_grid, cloud, delta=0.1)
    assert rep.offending_samples == (julia,)
    assert rep.min_distance == 0.0
    assert not rep.ps_evidence


def test_ps_audit_window_too_small(zplus_map):
    grid = fl.label_components(
        fl.classify_grid(zplus_map, (-2.0, 10.0, -np.pi, np.pi), (150, 80), 400)
    )
    cloud = fl.postsingular_sample(zplus_map, 12, k_bound=8)
    with pytest.raises(WindowTooSmall):
        fl.ps_audit(zplus_map, grid, cloud, delta=0.5)


def test_ps_audit_parabolic_contact(zexp_map, zexp_grid):
    # the petal orbit converges to the parabolic point 0 on the boundary:
    # evidence fails at delta = 0.15 unless contact at 0 is allowed
    cloud = fl.postsingular_sample(zexp_map, 40)
    strict = fl.ps_audit(zexp_map, zexp_grid, cloud, delta=0.15)
    relaxed = fl.ps_audit(zexp_map, zexp_grid, cloud, delta=0.15, allowed_contact=(0.0,))
    assert not strict.ps_evidence
    assert relaxed.ps_evidence
