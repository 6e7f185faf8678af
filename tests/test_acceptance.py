"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`)."""

import json
import time

import numpy as np

import fatoulab as fl
import fatoulab.cli as cli
from fatoulab.branches import inverse, pullback_chain
from fatoulab.hyperbolic import VERDICT_VIOLATION
from fatoulab.orbits import Kind, classify_orbits_array
from fatoulab.raster import fill_from_infinity

from conftest import QA, QR, cmath_exp_quarter, cmath_z_plus_exp, iterate


def _report(n, detail):
    print(f"[acceptance {n}] PASS — {detail}")


def test_c01_exponential_fixed_points(exp_map):
    """lambda = 1/4: attracting 0.357403 +- 1e-6, repelling 2.15329 +- 1e-5,
    multiplier of the repelling point equals the point value to 1e-8; < 1 s."""
    t0 = time.monotonic()
    res = classify_orbits_array(
        exp_map, np.array([0j]), 200, attractors=fl.default_attractors(exp_map)
    )
    assert res.kinds[0] == Kind.ATTRACTING
    # polish the attracting landing point with plain Newton on f(z) - z
    z = iterate(cmath_exp_quarter, 0j, int(res.iterations[0]))
    for _ in range(60):
        fz, d = exp_map.iterate_with_derivative(z, 1)
        if abs(fz - z) < 1e-14:
            break
        z = z - (fz - z) / (d - 1.0)
    assert abs(z - 0.357403) < 1e-6
    assert abs(z - QA) < 1e-10

    grid = fl.label_components(
        fl.classify_grid(exp_map, (-2, 4, -3, 3), (120, 120), 200,
                         attractors=fl.default_attractors(exp_map))
    )
    p = fl.find_periodic_boundary_point(exp_map, grid, (2.0, 2.3, -0.1, 0.1), 1, rng_seed=7)
    assert abs(p.point - 2.15329) < 1e-5
    assert abs(p.multiplier - p.point) < 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"q_att={z.real:.9f}, q_rep={p.point.real:.9f}, {elapsed:.2f}s")


def test_c02_zexp_repelling_points(zexp_map):
    """2 pi i k recovered for k in {+-1, +-2}; residual < 1e-10;
    |multiplier| = sqrt(1 + 4 pi^2 k^2) to 1e-8; < 1 s."""
    t0 = time.monotonic()
    for k, seed in ((1, 6j), (-1, -6j), (2, 12.4j), (-2, -12.4j)):
        p = fl.newton_periodic(zexp_map, seed, 1)
        assert abs(p.point - 2j * np.pi * k) < 1e-9
        assert p.residual < 1e-10
        assert abs(abs(p.multiplier) - np.sqrt(1 + 4 * np.pi**2 * k**2)) < 1e-8
        assert p.repelling
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, f"k = +-1, +-2 recovered, {elapsed:.2f}s")


def test_c03_blaschke_periodic_counts():
    """circle_periodic_points(z^2, n) returns exactly 2^n - 1 points for
    n = 1..10, residuals < 1e-9; < 5 s."""
    t0 = time.monotonic()
    b = fl.BlaschkeProduct(zeros=(0, 0))
    for n in range(1, 11):
        pts = fl.circle_periodic_points(b, n)
        assert len(pts) == 2**n - 1, (n, len(pts))
        assert max(p.residual for p in pts) < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(3, f"counts 2^n - 1 for n = 1..10, {elapsed:.2f}s")


def test_c04_inner_function_audit():
    """g = (z^2+3)/(1+3z^2): circle preservation < 1e-12 over 1e4 samples,
    boundary fixed points {1, (-1 +- 2 sqrt(2) i)/3} to 1e-12, g(0)=3 flagged."""
    g = fl.RationalCircleMap(num=(3, 0, 1), den=(1, 0, 3))
    rep = fl.verify_inner_candidate(g, samples=10**4)
    assert rep.circle_preserving and rep.max_circle_error < 1e-12
    r = 2 * np.sqrt(2) / 3
    expected = [1.0 + 0j, complex(-1 / 3, r), complex(-1 / 3, -r)]
    assert len(rep.boundary_fixed_points) == 3
    for e in expected:
        assert min(abs(e - p) for p in rep.boundary_fixed_points) < 1e-12
    assert not rep.maps_disk_in
    assert any("g(0)" in note for note in rep.notes)
    _report(4, f"3 fixed points, anomaly note: {rep.notes[0][:50]}...")


def test_c05_baker_slow_escape(zplus_map):
    """Orbit of 0 strictly increasing on R with Re f^100(0) in [4.0, 5.2]
    (continuum approximation log(100+e) ~ 4.63); Im = pi probes escape left."""
    x = 0.0
    for _ in range(100):
        x_next = x + np.exp(-x)
        assert x_next > x
        x = x_next
    assert 4.0 <= x <= 5.2

    probes = np.array([-1 + 1j * np.pi, 2 + 1j * np.pi, 5 + 1j * np.pi])
    res = classify_orbits_array(zplus_map, probes, 400)
    assert (res.kinds == Kind.ESCAPING).all()
    for probe, n in zip(probes.tolist(), res.iterations):
        assert iterate(cmath_z_plus_exp, probe, int(n)).real < -50
    _report(5, f"Re f^100(0) = {x:.4f}, line probes escape with Re -> -inf")


def test_c06_boundary_component_scans(exp_map, zexp_map):
    """Real-hair probes {3,4,5} certify Escaping within 20 iterations;
    z exp(-z) probe -0.5 certifies Escaping within 10."""
    p = fl.newton_periodic(exp_map, 2.2, 1)
    # a verdict within the budget n is a verdict within n iterations
    rep = fl.escaping_component_scan(exp_map, p, [3.0, 4.0, 5.0], 20)
    assert rep.escaping == (3 + 0j, 4 + 0j, 5 + 0j)

    prep = fl.parabolic_boundary_scan(zexp_map, [-0.5], budget=10)
    assert prep.escaping == (-0.5 + 0j,)
    _report(6, "hair probes escape in <= 20 its, parabolic probe in <= 10")


def test_c07_access_curve(exp_map, exp_grid):
    """60-step access curve to the repelling fixed point: final gap < 1e-8,
    per-step gap ratio within 10% of 1/2.15329, all vertices Fatou; < 2 s."""
    t0 = time.monotonic()
    p = fl.newton_periodic(exp_map, 2.2, 1, grid=exp_grid)
    curve = fl.access_curve(exp_map, p, 1.8 + 0j, 60, exp_grid)
    assert curve.final_gap() < 1e-8
    mu = abs(p.multiplier)
    checked = 0
    for a, b in zip(curve.gaps, curve.gaps[1:]):
        if 1e-12 < a < 0.05:
            assert abs(b / a - 1.0 / mu) <= 0.1 / mu
            checked += 1
    assert checked >= 10
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0
    _report(7, f"final gap {curve.final_gap():.2e}, {checked} decay ratios checked, {elapsed:.2f}s")


def test_c08_contraction_audit_soundness(exp_map, zexp_map, zplus_map):
    """Zero certified Schwarz-Pick violations over 3 maps x 2 chains x 100
    points; >= 60% conclusive on the segment-exact z exp(-z) case."""
    def circle(c, r, n=100):
        return [c + r * np.exp(2j * np.pi * k / n) for k in range(n)]

    total_rows = 0
    p2 = fl.newton_periodic(zexp_map, 6j, 1).point
    orbit = [1.0 + 1j * np.pi]
    for _ in range(3):
        orbit.append(zplus_map.evaluate(orbit[-1]))

    cases = [
        (exp_map, fl.chain_fixing(exp_map, QR, 2), circle(QR, 0.1),
         fl.postsingular_sample(exp_map, 20).points(), None),
        (exp_map, fl.chain_fixing(exp_map, QR, 4), circle(QR, 0.1),
         fl.postsingular_sample(exp_map, 20).points(), None),
        (zexp_map, fl.chain_fixing(zexp_map, p2, 1), circle(p2, 0.3),
         fl.postsingular_sample(zexp_map, 30).points(), float(np.exp(-1.0))),
        (zexp_map, fl.chain_fixing(zexp_map, p2, 2), circle(p2, 0.3),
         fl.postsingular_sample(zexp_map, 30).points(), float(np.exp(-1.0))),
        (zplus_map, fl.pullback_chain(zplus_map, orbit[:3]), circle(orbit[2], 0.15),
         fl.postsingular_sample(zplus_map, 15, k_bound=2).points(), None),
        (zplus_map, fl.pullback_chain(zplus_map, orbit[:4]), circle(orbit[3], 0.15),
         fl.postsingular_sample(zplus_map, 15, k_bound=2).points(), None),
    ]
    zexp_conclusive = []
    for m, chain, region, P, segment in cases:
        audit = fl.contraction_audit(m, chain, region, P, segment=segment)
        total_rows += len(audit.rows)
        assert not audit.certified_violations
        assert all(r.verdict != VERDICT_VIOLATION for r in audit.rows)
        if m is zexp_map:
            zexp_conclusive.append(audit.conclusive_fraction)
    assert total_rows == 600
    assert min(zexp_conclusive) >= 0.6
    _report(8, f"600 points, 0 violations, zexp conclusive >= {min(zexp_conclusive):.2f}")


def test_c09_harmonic_measure_suite(exp_map, exp_wide_grid, disk_calibration):
    """Disk-center chi-squared p > 0.01 and Poisson-kernel KS < 0.03 at 1e4
    samples; 2000-sample run: certified-escaping fraction does not increase
    and the undecided fraction does not increase when the orbit budget
    doubles 100 -> 200; decided verdicts persist per hit; < 60 s."""
    t0 = time.monotonic()
    assert disk_calibration.chi2_p > 0.01
    assert disk_calibration.ks_stat < 0.03

    eps = 2.5 * max(exp_wide_grid.cell_size)
    r100 = fl.measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 2000, eps, 100, rng_seed=11)
    r200 = fl.measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 2000, eps, 200, rng_seed=11)
    assert r100.fractions["escaping"] + r100.fractions["bounded"] + r100.fractions["undecided"] == 1.0
    assert r200.fractions["escaping"] <= r100.fractions["escaping"]
    assert r200.fractions["undecided"] <= r100.fractions["undecided"]
    for a, b in zip(r100.hits, r200.hits):
        if a.verdict != "UNDECIDED":
            assert b.verdict == a.verdict
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(
        9,
        f"chi2 p={disk_calibration.chi2_p:.3f}, KS={disk_calibration.ks_stat:.4f}, "
        f"fractions@100={r100.fractions}, {elapsed:.1f}s",
    )


def test_c10_engine_invariants(tmp_path, exp_map):
    """Budget monotonicity, fill idempotence/monotonicity, pullback round
    trips < 1e-11, and byte-identical reruns under fixed seeds; < 120 s."""
    t0 = time.monotonic()

    # orbit-kernel budget monotonicity over a deterministic sample
    att = fl.default_attractors(exp_map)
    rng = np.random.default_rng(0)
    z = np.array([complex(rng.uniform(-2, 4), rng.uniform(-3, 3)) for _ in range(60)])
    short = classify_orbits_array(exp_map, z, 60, attractors=att)
    long = classify_orbits_array(exp_map, z, 180, attractors=att)
    decided = short.kinds != Kind.UNDECIDED
    for name in ("kinds", "iterations", "classes"):
        assert np.array_equal(getattr(short, name)[decided], getattr(long, name)[decided])

    # fill_from_infinity: idempotent and monotone on random masks
    for _ in range(50):
        a = rng.uniform(size=(16, 16)) < 0.45
        b = a | (rng.uniform(size=(16, 16)) < 0.2)
        fa = fill_from_infinity(a)
        assert np.array_equal(fill_from_infinity(fa), fa)
        assert not (fa & ~fill_from_infinity(b)).any()

    # pullback round trips: 1000 random admissible (w, branch) per family
    for m in (fl.exp_lambda(0.25), fl.z_plus_exp(), fl.fatou_plus(), fl.fatou_minus(), fl.z_exp()):
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

    # byte-identical reruns under a fixed seed (grid image + CSV + hits)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "map": {"family": "exp_lambda", "lambda": 0.25},
        "window": [-2.0, 4.0, -3.0, 3.0],
        "resolution": [80, 80],
        "budgets": {"orbit": 150, "pullback": 100, "walk": 100000},
        "rng_seed": 13,
    }))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["render", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["render", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("grid.ppm", "grid.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    chain = pullback_chain(exp_map, [QR, QR, QR])
    assert abs(fl.apply_chain(chain, QR + 1e-3) - QR) < 1e-3

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(10, f"all engine invariants green, {elapsed:.1f}s")
