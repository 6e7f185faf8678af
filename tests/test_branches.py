import numpy as np
import pytest

import fatoulab as fl
from fatoulab.branches import branch_of, inverse, pullback_chain
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
    maps = [fl.exp_lambda(0.25), fl.z_plus_exp(), fl.fatou_plus(), fl.fatou_minus(), fl.z_exp()]
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
    assert abs(fl.apply_chain(chain, chain.terminal) - orbit[0]) < 1e-9


def test_single_point_orbit_identity(exp_map):
    chain = pullback_chain(exp_map, [1.0 + 0.5j])
    assert len(chain) == 0
    assert fl.apply_chain(chain, 0.3 + 0.2j) == 0.3 + 0.2j


def test_orbit_through_critical_value(zexp_map):
    with pytest.raises(AmbiguousBranch):
        pullback_chain(zexp_map, [1.0, float(np.exp(-1.0))])


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
    chain = fl.chain_fixing(exp_map, QR, 1)
    for dz in (0.1, 0.05j, -0.07 + 0.03j):
        z = QR + dz
        img = fl.apply_chain(chain, z)
        assert abs(img - QR) <= (1 / QR + 0.05) * abs(dz)


def test_chain_fixing_follows_a_period_two_cycle(exp_map):
    """The chain steps through p, f(p), p and its composed branch fixes p."""
    p = fl.newton_periodic(exp_map, 2.5 + 6.0j, 2).point
    chain = fl.chain_fixing(exp_map, p, 2, 2)
    assert [s.anchor for s in chain.steps] == [p, exp_map.evaluate(p)]
    assert abs(chain.terminal - p) < 1e-9
    assert abs(fl.apply_chain(chain, p) - p) < 1e-9
    assert len(fl.chain_fixing(exp_map, p, 4, 2)) == 4


def test_inverse_at_the_shift_has_no_log_seed(zplus_map):
    """At w = c the log seed is undefined; inverse skips it and either finds a
    preimage from the other seed or fails with a package error."""
    try:
        z = inverse(zplus_map, 0.0, 0)
    except NewtonDiverged:
        return
    assert abs(zplus_map.evaluate(z)) < 1e-12


def test_chain_contraction_zexp(zexp_map):
    p = fl.newton_periodic(zexp_map, 6j, 1).point
    mult = abs(1 - 2j * np.pi)
    chain = fl.chain_fixing(zexp_map, p, 1)
    for dz in (0.05, 0.04j):
        img = fl.apply_chain(chain, p + dz)
        assert abs(img - p) <= (1 / mult + 0.05) * abs(dz)


def test_branch_jump_detected(zplus_map):
    orbit = [0.0, 1.0, 1.0 + np.exp(-1.0)]
    chain = pullback_chain(zplus_map, orbit)
    assert [(s.branch, s.anchor) for s in chain.steps] == [(0, 0.0), (0, 1.0)]
    with pytest.raises(BranchJumpDetected):
        fl.apply_chain(chain, chain.terminal + 30.0)
