import cmath
import json
import math
import time

import numpy as np
import pytest

from fatoulab import blaschke
from fatoulab.blaschke import (
    BOUNDARY,
    INTERIOR,
    BlaschkeProduct,
    RationalCircleMap,
    circle_periodic_points,
    denjoy_wolff,
    verify_inner_candidate,
)
from fatoulab.errors import LiftGridExhausted, PoleOnCircle, RotationLike
from fatoulab.serialize import canonical_json

TWO_PI = 2 * np.pi

B_SQUARE = BlaschkeProduct(zeros=(0, 0))  # B(z) = z^2
B_GENERIC = BlaschkeProduct(zeros=(0.3 + 0.2j, -0.1 + 0.4j))
MOEBIUS = BlaschkeProduct(zeros=(1 / 3,))  # (3z - 1)/(3 - z)


def test_construction_validation():
    with pytest.raises(ValueError):
        BlaschkeProduct(rotation=2.0)
    with pytest.raises(ValueError):
        BlaschkeProduct(zeros=(1.5,))


def test_unimodular_on_circle():
    thetas = TWO_PI * np.arange(10**4) / 10**4
    z = np.exp(1j * thetas)
    for b in (B_SQUARE, B_GENERIC, MOEBIUS):
        assert np.max(np.abs(np.abs(b.evaluate(z)) - 1.0)) < 1e-12


def test_contracting_inside():
    rng = np.random.default_rng(0)
    z = np.sqrt(rng.uniform(0, 1, 500)) * 0.999 * np.exp(1j * rng.uniform(0, TWO_PI, 500))
    for b in (B_SQUARE, B_GENERIC, MOEBIUS):
        assert np.all(np.abs(b.evaluate(z)) < 1.0)


def test_derivative_matches_difference_quotient():
    rng = np.random.default_rng(1)
    h = 1e-7
    for b in (B_SQUARE, B_GENERIC, MOEBIUS):
        for _ in range(50):
            z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            _, d = b.eval_with_derivative(z)
            fd = (b.evaluate(z + h) - b.evaluate(z - h)) / (2 * h)
            assert abs(d - fd) < 1e-6 * (1 + abs(d))


def unwrap_lift(func, n=1 << 14):
    """A continuous lift of theta -> arg func(e^{i theta}) on n + 1 nodes over [0, 2 pi]."""
    thetas = np.linspace(0.0, TWO_PI, n + 1)
    values = np.unwrap(np.angle(func(np.exp(1j * thetas))))
    assert np.max(np.abs(np.diff(values))) < 0.9 * np.pi  # no step is ambiguous
    return thetas, values


def test_lift_consistency():
    for b in (B_SQUARE, B_GENERIC):
        thetas, values = unwrap_lift(b.evaluate)
        assert round((values[-1] - values[0]) / TWO_PI) == b.degree
        # a lift of arg B on the circle, gaining 2 pi * degree over one turn
        assert np.allclose(np.exp(1j * values), b.evaluate(np.exp(1j * thetas)))
        assert abs(values[-1] - values[0] - TWO_PI * b.degree) < 1e-10
        # strictly increasing on the grid (orientation-preserving covering)
        assert np.all(np.diff(values) > 0)


def test_json_round_trip():
    """canonical_json writes a product as its fields, the form from_json reads."""
    b2 = BlaschkeProduct.from_json(json.loads(canonical_json(B_GENERIC)))
    assert b2 == B_GENERIC
    assert BlaschkeProduct.from_json({"zeros": [[0.3, 0.2], [-0.1, 0.4]]}) == B_GENERIC


# ---------------------------------------------------------------------------
# Denjoy-Wolff
# ---------------------------------------------------------------------------


def test_denjoy_wolff_superattracting():
    dw = denjoy_wolff(B_SQUARE)
    assert dw.location == INTERIOR
    assert abs(dw.point) < 1e-12
    assert dw.derivative_modulus < 1e-12


def test_denjoy_wolff_moebius_boundary():
    # fixed points solve z^2 = 1; M'(z) = 8/(3-z)^2, so M'(-1) = 1/2 (algebra oracle)
    dw = denjoy_wolff(MOEBIUS)
    assert dw.location == BOUNDARY
    assert abs(dw.point + 1.0) < 1e-9
    assert abs(dw.derivative_modulus - 0.5) < 1e-9
    assert dw.derivative_modulus <= 1.0 + 1e-8


def test_denjoy_wolff_start_independent():
    for phi in (0.4, 1.3, 2.9):
        dw = denjoy_wolff(B_SQUARE, z0=0.9 * cmath.exp(1j * phi))
        assert abs(dw.point) < 1e-12


def test_denjoy_wolff_rejects_rotation():
    rot = BlaschkeProduct(rotation=cmath.exp(1j * 0.773), zeros=(0,))
    with pytest.raises(RotationLike):
        denjoy_wolff(rot, budget=300)
    with pytest.raises(RotationLike):
        denjoy_wolff(rot, budget=300, z0=0.4 + 0.2j)


def test_denjoy_wolff_generic_interior():
    dw = denjoy_wolff(B_GENERIC)
    assert dw.location == INTERIOR
    assert abs(B_GENERIC.evaluate(dw.point) - dw.point) < 1e-10
    assert dw.derivative_modulus <= 1.0 + 1e-8


# ---------------------------------------------------------------------------
# Circle periodic points
# ---------------------------------------------------------------------------


def test_doubling_map_fixed_points():
    pts = circle_periodic_points(B_SQUARE, 1)
    assert [p.theta for p in pts] == [0.0]


def test_doubling_map_period_two():
    pts = circle_periodic_points(B_SQUARE, 2)
    assert np.allclose([p.theta for p in pts], [0.0, TWO_PI / 3, 2 * TWO_PI / 3], atol=1e-11)


def test_doubling_map_counts_match_roots_of_unity():
    # brute-force oracle: fixed points of theta -> 2^n theta are the (2^n - 1)-th roots of unity
    for n in (3, 4, 6):
        pts = circle_periodic_points(B_SQUARE, n)
        d = 2**n - 1
        expected = sorted(TWO_PI * j / d for j in range(d))
        assert len(pts) == d
        assert np.allclose([p.theta for p in pts], expected, atol=1e-10)
        assert max(p.residual for p in pts) < 1e-9


def test_generic_degree_two_period_three():
    pts = circle_periodic_points(B_GENERIC, 3)
    assert len(pts) == 7
    # cross-check against a dense-grid sign-change oracle on the displacement
    thetas, values = unwrap_lift(lambda z: B_GENERIC.iterate(z, 3))
    h = values - thetas
    crossings = 0
    for j in range(int(np.ceil(h.min() / TWO_PI)), int(np.floor(h.max() / TWO_PI)) + 1):
        hj = h - TWO_PI * j
        crossings += int(np.sum(hj[:-1] * hj[1:] < 0)) + int(np.sum(hj == 0.0))
    # theta = 0 and theta = 2 pi are the same circle point when both are roots
    wrap_dup = 1 if h[0] % TWO_PI == 0.0 else 0
    assert crossings - wrap_dup == len(pts)


def test_degree_requirements():
    with pytest.raises(ValueError):
        circle_periodic_points(MOEBIUS, 2)
    with pytest.raises(ValueError):
        circle_periodic_points(B_SQUARE, 0)


def random_products(seed, count, degrees):
    """Seeded products with nonzero zeros inside |z| < 0.9 and a non-real rotation."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(degrees[0], degrees[1] + 1))
        zeros = np.sqrt(rng.uniform(0.01, 0.81, d)) * np.exp(1j * rng.uniform(0.0, TWO_PI, d))
        rotation = cmath.exp(1j * rng.uniform(0.1, 3.0))
        yield BlaschkeProduct(rotation, tuple(complex(a) for a in zeros))


@pytest.mark.filterwarnings("ignore::fatoulab.errors.LiftNotExpandingWarning")
def test_residuals_equal_the_one_point_path_bitwise():
    """Each residual has the bits of abs(B^n(z) - z) evaluated for its point alone."""
    cases = [(B_SQUARE, n) for n in range(1, 9)]
    cases += [(BlaschkeProduct(zeros=(0, 0, 0)), n) for n in range(1, 5)]
    cases += [(b, n) for b in random_products(5, 20, (2, 3)) for n in range(1, 4)]
    checked = 0
    for b, n in cases:
        for p in circle_periodic_points(b, n):
            z = cmath.exp(1j * p.theta)
            assert p.residual == abs(b.iterate(z, n) - z), (b, n, p)
            checked += 1
    assert checked > 700


def per_branch_brackets(h):
    """The reference enumeration: every branch j scans the whole of h for roots and brackets."""
    nodes, node_j, ks, js = ([np.empty(0, dtype=int)] for _ in range(4))
    for j in range(math.ceil(h.min() / TWO_PI - 1e-12), math.floor(h.max() / TWO_PI + 1e-12) + 1):
        hj = h - TWO_PI * j
        nodes.append(np.nonzero(hj == 0.0)[0])
        node_j.append(np.full(nodes[-1].size, j))
        ks.append(np.nonzero(hj[:-1] * hj[1:] < 0.0)[0])
        js.append(np.full(ks[-1].size, j))
    return tuple(np.concatenate(parts) for parts in (nodes, node_j, ks, js))


def test_branch_brackets_equal_the_per_branch_scan(monkeypatch):
    """One sorted search finds the roots and brackets that a scan per branch finds."""
    cases = [(b.evaluate, None) for b in random_products(12, 30, (1, 4))]
    cases += [(lambda z, b=b, n=n: b.iterate(z, n), b.degree ** n)
              for b in random_products(13, 8, (2, 3)) for n in (1, 2, 3)]
    cases += [(lambda z, n=n: B_SQUARE.iterate(z, n), 2 ** n) for n in (1, 5, 9)]
    cases += [(RationalCircleMap(num=(3, 0, 1), den=(1, 0, 3)).evaluate, None)]
    cases += [(BlaschkeProduct(zeros=(0,) * d).evaluate, d) for d in (2, 3, 5)]
    one_search = blaschke._branch_brackets
    exact_nodes = 0
    reference_calls = 0

    def checked(h):
        nonlocal exact_nodes, reference_calls
        new, ref = one_search(h), per_branch_brackets(h)
        for got, want in ((new[:2], ref[:2]), (new[2:], ref[2:])):
            assert sorted(zip(*(a.tolist() for a in got))) == sorted(zip(*(a.tolist() for a in want)))
        exact_nodes += ref[0].size
        reference_calls += 1
        return ref

    for func, degree in cases:
        fast = blaschke._circle_roots(func, blaschke._BISECT_TOL, degree)
        with monkeypatch.context() as m:
            m.setattr(blaschke, "_branch_brackets", checked)
            slow = blaschke._circle_roots(func, blaschke._BISECT_TOL, degree)
        assert [(t.hex(), j) for t, j in fast] == [(t.hex(), j) for t, j in slow]
    assert reference_calls == len(cases)
    assert exact_nodes > 0  # z^d has h = 0 at theta = 0


def test_periods_past_every_lift_grid_raise_at_once():
    """B^n has degree d^n; from d^n >= 2^18 no grid of at most 2^19 steps resolves its lift."""
    for b, n in ((B_SQUARE, 18), (B_SQUARE, 10**9), (BlaschkeProduct(zeros=(0, 0, 0)), 12)):
        start = time.perf_counter()
        with pytest.raises(LiftGridExhausted, match="circle lift grid exhausted; map varies too fast"):
            circle_periodic_points(b, n)
        assert time.perf_counter() - start < 0.5
    # below that bound the grid loop itself still gives up: a zero 1e-7 from
    # the circle turns the lift by almost 2 pi within one step of every grid
    with pytest.raises(LiftGridExhausted, match="circle lift grid exhausted; map varies too fast"):
        blaschke._circle_roots(BlaschkeProduct(zeros=(0.9999999,)).evaluate, blaschke._BISECT_TOL)


def test_lift_steps_past_two_pi_do_not_alias():
    """z^3 at period 9 has 3^9 - 1 boundary periodic points, the 19682-th roots
    of unity. On the 2^14 grid each true lift step is 2pi * 1.2, which unwraps
    to a small positive step and a winding of 3299; the grid that resolves
    degree 3^9 must be the first one tried instead."""
    pts = circle_periodic_points(BlaschkeProduct(zeros=(0, 0, 0)), 9)
    d = 3**9 - 1
    assert len(pts) == d
    assert np.allclose([p.theta for p in pts], TWO_PI * np.arange(d) / d, atol=1e-10)
    # a declared degree that no grid of at most 2^19 steps resolves raises at once
    start = time.perf_counter()
    with pytest.raises(LiftGridExhausted, match="circle lift grid exhausted; map varies too fast"):
        blaschke._circle_roots(lambda z: z**300000, blaschke._BISECT_TOL, 300000)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# Rational circle-map candidates
# ---------------------------------------------------------------------------


def cubic_fixed_points():
    # factoring 3z^3 - z^2 + z - 3 = (z - 1)(3z^2 + 2z + 3); quadratic-formula oracle
    r = 2 * np.sqrt(2) / 3
    return [1.0 + 0j, complex(-1 / 3, r), complex(-1 / 3, -r)]


def test_candidate_from_inner_function_example():
    g = RationalCircleMap(num=(3, 0, 1), den=(1, 0, 3))
    rep = verify_inner_candidate(g, samples=10**4)
    assert rep.circle_preserving
    assert rep.max_circle_error < 1e-12
    assert not rep.maps_disk_in  # g(0) = 3: the anomaly is flagged
    assert any("g(0)" in note and "3" in note for note in rep.notes)
    assert len(rep.boundary_fixed_points) == 3
    for e in cubic_fixed_points():
        assert min(abs(e - p) for p in rep.boundary_fixed_points) < 1e-12


def test_candidate_z_squared():
    rep = verify_inner_candidate(RationalCircleMap(num=(0, 0, 1), den=(1,)))
    assert rep.circle_preserving
    assert rep.maps_disk_in
    assert len(rep.boundary_fixed_points) == 1
    assert abs(rep.boundary_fixed_points[0] - 1.0) < 1e-12


def test_candidate_composed_with_inversion():
    # (z^2 + 3)/(1 + 3 z^2) composed with z -> 1/z gives (1 + 3z^2)/(z^2 + 3)
    rep = verify_inner_candidate(RationalCircleMap(num=(1, 0, 3), den=(3, 0, 1)))
    assert rep.circle_preserving
    assert rep.maps_disk_in


def test_pole_on_circle():
    with pytest.raises(PoleOnCircle):
        verify_inner_candidate(RationalCircleMap(num=(1,), den=(-1, 1)))
