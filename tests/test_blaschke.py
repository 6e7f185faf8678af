import cmath
import json
import math
import os
import subprocess
import sys
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


def conjugate_by_rotation(b, alpha):
    """R^-1 B R for R(z) = e^{i alpha} z: zeros a -> e^{-i alpha} a, rotation c -> c e^{i(d-1) alpha}."""
    return BlaschkeProduct(
        b.rotation * cmath.exp(1j * (b.degree - 1) * alpha),
        tuple(cmath.exp(-1j * alpha) * a for a in b.zeros),
    )


def parabolic_moebius():
    """The Moebius product with zero i/(1+i) whose rotation puts a double fixed point at 1."""
    a = 1j / (1 + 1j)
    return BlaschkeProduct((1 - a.conjugate()) / (1 - a), (a,))


def upper_half_plane_conjugate():
    """The degree-2 product conjugate, by the Cayley map, to F(w) = w + 1 - 1/w on the upper half-plane.

    B = 0 where F(w) = i, at the roots of w^2 + (1 - i) w - 1 in the upper
    half-plane; the rotation matches B(0) to the image of F(i). F(w) ~ w + 1
    at w = infinity, so z = 1 is a parabolic boundary fixed point.
    """
    cayley = lambda w: (w - 1j) / (w + 1j)  # noqa: E731
    zeros = tuple(cayley(complex(w)) for w in np.roots([1, 1 - 1j, -1]) if w.imag > 0)
    c = cayley(1j + 1 - 1 / 1j) / np.prod([-a for a in zeros])
    return BlaschkeProduct(c / abs(c), zeros)


# Denjoy-Wolff point 1: with |B'(1)| = 2/3, and parabolic (B'(1) = 1, multiplicity 3)
B_HALF_SQUARED = BlaschkeProduct(zeros=(-0.5, -0.5))  # ((z + 1/2)/(1 + z/2))^2
B_PARABOLIC_3 = BlaschkeProduct(zeros=(1j / math.sqrt(3), -1j / math.sqrt(3)))  # (3z^2 + 1)/(3 + z^2)


@pytest.mark.parametrize("b", [B_HALF_SQUARED, B_PARABOLIC_3], ids=["half_squared", "parabolic_3"])
def test_denjoy_wolff_boundary_at_one(b):
    dw = denjoy_wolff(b)
    assert dw.location == BOUNDARY
    assert dw.point == 1.0
    assert dw.derivative_modulus <= 1.0 + 1e-9
    # a parabolic point of multiplicity 3 is resolved only to about eps^(1/3)
    for alpha in (0.1, 0.4, 1.0, 2.5):
        dw = denjoy_wolff(conjugate_by_rotation(b, alpha))
        assert dw.location == BOUNDARY
        assert abs(dw.point - cmath.exp(-1j * alpha)) < 1e-4


@pytest.mark.parametrize(
    "rotation, zeros, multiplier",
    [
        ((0.4213310888988597, -0.90690689352728),
         ((0.8067738319055644, -0.34950723358602165), (-0.7064458092587693, -0.010223136531296584)),
         0.9994159388421072),
        ((0.14299576230758124, 0.989723300706856),
         ((0.4114155695434676, 0.25758821644132346), (0.39865406565962735, 0.7427696388525029)),
         0.9915973383798737),
        ((-0.15248415195634624, 0.9883059158996034),
         ((0.7639226629369262, -0.5540507482061523), (0.1838256279151338, -0.5693094894161908),
          (0.9045458457719588, 0.12292345193562704)),
         0.9950500864456886),
    ],
)
def test_denjoy_wolff_weakly_attracting_interior(rotation, zeros, multiplier):
    """Random products whose interior fixed point attracts with |B'(p)| within 1e-2 of 1."""
    b = BlaschkeProduct(complex(*rotation), tuple(complex(*a) for a in zeros))
    dw = denjoy_wolff(b)
    assert dw.location == INTERIOR
    assert abs(b.evaluate(dw.point) - dw.point) < 1e-14
    assert abs(dw.derivative_modulus - multiplier) < 1e-12


@pytest.mark.parametrize(
    "b, alpha",
    [(parabolic_moebius(), 0.4), (upper_half_plane_conjugate(), 0.3), (upper_half_plane_conjugate(), 1.7)],
    ids=["moebius_0.4", "half_plane_0.3", "half_plane_1.7"],
)
def test_denjoy_wolff_missed_double_boundary_point_is_never_interior(b, alpha):
    """A double boundary fixed point that the lift touches without crossing.

    P's double root there splits by rounding into a pair about 1e-8 from the
    circle, with |B'| about 1 - 2e-8: that is a near-neutral point, not an
    attracting one, and its projection onto the circle is the boundary point
    e^{-i alpha}, found to about eps^(1/2).
    """
    dw = denjoy_wolff(conjugate_by_rotation(b, alpha))
    assert dw.location == BOUNDARY
    assert abs(dw.point - cmath.exp(-1j * alpha)) < 1e-7
    assert abs(abs(dw.point) - 1.0) < 1e-15
    assert dw.derivative_modulus <= 1.0 + 1e-9


def test_denjoy_wolff_double_boundary_point_on_a_node():
    for b in (parabolic_moebius(), upper_half_plane_conjugate()):
        dw = denjoy_wolff(b)
        assert dw.location == BOUNDARY
        assert abs(dw.point - 1.0) < 1e-12


def test_denjoy_wolff_rotation_equivariant():
    """DW(R^-1 B R) = R^-1 DW(B) for every rotation R, interior and boundary."""
    for b in (B_SQUARE, B_GENERIC, MOEBIUS, B_HALF_SQUARED):
        dw = denjoy_wolff(b)
        for alpha in (0.4, 1.3, 2.9):
            turned = denjoy_wolff(conjugate_by_rotation(b, alpha))
            assert turned.location == dw.location
            assert abs(turned.point - cmath.exp(-1j * alpha) * dw.point) < 1e-12
            assert abs(turned.derivative_modulus - dw.derivative_modulus) < 1e-12


def test_denjoy_wolff_rejects_rotation():
    rot = BlaschkeProduct(rotation=cmath.exp(1j * 0.773), zeros=(0,))
    with pytest.raises(RotationLike):
        denjoy_wolff(rot)
    # an elliptic automorphism phi(lam phi(z)) about p, with phi(z) = (p - z)/(1 - conj(p) z)
    p, lam = 0.3 + 0.2j, cmath.exp(0.9j)
    phi = lambda z: (p - z) / (1 - p.conjugate() * z)  # noqa: E731
    a = phi(p / lam)
    elliptic = BlaschkeProduct(phi(lam * p) / -a, (a,))
    assert abs(elliptic.evaluate(p) - p) < 1e-15
    with pytest.raises(RotationLike):
        denjoy_wolff(elliptic)


def test_denjoy_wolff_rejects_identity():
    with pytest.raises(RotationLike, match="identity"):
        denjoy_wolff(BlaschkeProduct(zeros=(0,)))


def test_denjoy_wolff_constant_product():
    c = cmath.exp(1.1j)
    dw = denjoy_wolff(BlaschkeProduct(rotation=c))
    assert dw.location == BOUNDARY
    assert abs(dw.point - c) < 1e-12
    assert type(dw.derivative_modulus) is float and dw.derivative_modulus == 0.0


def test_degree_zero_derivative_is_complex():
    b = BlaschkeProduct(rotation=1j)
    val, der = b.eval_with_derivative(0.5)
    assert type(val) is complex and type(der) is complex
    assert (val, der) == (1j, 0j)
    val, der = b.eval_with_derivative(np.array([0.5, 0.25j]))
    assert val.shape == der.shape == (2,)


@pytest.mark.parametrize("b", [MOEBIUS, B_HALF_SQUARED, B_PARABOLIC_3], ids=["moebius", "half_squared", "parabolic_3"])
def test_boundary_derivative_is_the_poisson_sum(b):
    """|B'(zeta)| = sum (1 - |a|^2)/|zeta - a|^2 at a circle point zeta."""
    dw = denjoy_wolff(b)
    assert dw.location == BOUNDARY
    poisson = sum((1 - abs(a) ** 2) / abs(dw.point - a) ** 2 for a in b.zeros)
    assert abs(dw.derivative_modulus - poisson) < 1e-12


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


# numpy's dispatch groups above the x86-64-v2 (SSE4.2) baseline, in numpy 2.4's names.
BASELINE_ONLY = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def complex_multiply_is_fused():
    """Whether numpy's complex multiply of a fixed array rounds otherwise than its float64 parts do."""
    rng = np.random.default_rng(3)
    u, v = (rng.standard_normal(512) + 1j * rng.standard_normal(512) for _ in range(2))
    parts = (u.real * v.real - u.imag * v.imag) + 1j * (u.real * v.imag + u.imag * v.real)
    return bool(np.any(u * v != parts))


def as_rational(b):
    """b as a RationalCircleMap, its coefficients expanded in CPython's complex arithmetic."""
    num, den = [b.rotation], [1.0 + 0.0j]
    for a in b.zeros:
        num = [s - a * t for s, t in zip([0j] + num, num + [0j])]
        den = [s - a.conjugate() * t for s, t in zip(den + [0j], [0j] + den)]
    return RationalCircleMap(tuple(num), tuple(den))


def dispatch_sample():
    """The hex of every float that a seeded sample of products and candidates reports."""
    values = []
    for b in random_products(7, 6, (2, 3)):
        for n in (1, 2, 3):
            values += [x.hex() for p in circle_periodic_points(b, n) for x in (p.theta, p.residual)]
        dw = denjoy_wolff(b)
        values += [x.hex() for x in (dw.point.real, dw.point.imag, dw.derivative_modulus)]
    for b in random_products(8, 6, (2, 3)):
        rep = verify_inner_candidate(as_rational(b), samples=2048)
        values += [rep.max_circle_error.hex()]
        values += [x.hex() for p in rep.boundary_fixed_points for x in (p.real, p.imag)]
    return values


@pytest.mark.filterwarnings("ignore::fatoulab.errors.LiftNotExpandingWarning")
def test_outputs_equal_at_the_sse42_baseline_bitwise():
    """Residuals, Denjoy-Wolff points and candidate audits have the same bits at
    numpy's SSE4.2 baseline as at the dispatch level of this process.

    numpy imports even when it does not know the names in
    NPY_DISABLE_CPU_FEATURES, so a canary proves that the baseline took effect:
    its complex multiply must round otherwise than the float64 parts here
    (fused multiply-adds, AVX2 and above) and like them in the subprocess.
    """
    if not complex_multiply_is_fused():
        pytest.skip("numpy's complex multiply is not fused at this dispatch level")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(blaschke.__file__)))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_ONLY,
               PYTHONPATH=os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")])))
    code = ("import json, warnings, test_blaschke as t\n"
            "warnings.simplefilter('ignore')\n"
            "print(json.dumps([t.complex_multiply_is_fused(), t.dispatch_sample()]))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    fused, values = json.loads(run.stdout)
    if fused:
        pytest.skip(f"NPY_DISABLE_CPU_FEATURES={BASELINE_ONLY!r} left the fused multiply in place")
    expected = dispatch_sample()
    assert len(expected) > 300
    assert values == expected


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
