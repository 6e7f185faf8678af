import numpy as np
import pytest

import fatoulab as fl
from fatoulab import measure
from fatoulab.errors import LeftWindow, NotFatouClassified, TooManyWindowExits
from fatoulab.measure import (
    _DRAW_CHUNK,
    _MAX_WALK_STEPS,
    _keyed_chunks,
    _sample_rng,
    _walk_hits,
    _walk_lockstep,
)
from fatoulab.orbits import Kind

THREE_PI = 3 * np.pi


def test_sample_hit_deterministic():
    g = fl.disk_grid(resolution=200)
    eps = 2.5 * max(g.cell_size)
    assert _walk_hits(g, 0j, eps, 9, 50).tolist() == _walk_hits(g, 0j, eps, 9, 50).tolist()


def test_walk_eps_validation():
    g = fl.disk_grid(resolution=200)
    with pytest.raises(ValueError):
        _walk_hits(g, 0j, 0.5 * max(g.cell_size), 0, 1)
    with pytest.raises(NotFatouClassified):
        _walk_hits(g, 1.15 + 0j, 2.5 * max(g.cell_size), 0, 1)


def test_hits_land_on_boundary_raster():
    g = fl.disk_grid(resolution=300)
    eps = 2.5 * max(g.cell_size)
    for h in _walk_hits(g, 0j, eps, 4, 100).tolist():
        assert g.label_at(h) != g.label_at(0j)
        assert abs(abs(h) - 1.0) < eps + 2 * g.cell_diagonal


def test_calibration_disk_oracles(disk_calibration):
    """Center hits uniform (chi-squared) and Poisson-kernel hits at 0.5 (KS)."""
    assert disk_calibration.chi2_p > 0.01
    assert disk_calibration.ks_stat < 0.03
    assert disk_calibration.passed


def test_calibration_pinned(disk_calibration):
    """The hits of calibrate_disk are fixed; one moved hit shifts
    these statistics far beyond the tolerance."""
    assert disk_calibration.chi2_p == pytest.approx(0.25798432928256493, rel=1e-12)
    assert disk_calibration.ks_stat == pytest.approx(0.010589050454415327, rel=1e-12)


def test_calibration_exit_raises_left_window(monkeypatch):
    """A disk wider than the window lets walks exit; that is an error, not a NaN hit."""
    monkeypatch.setattr(
        measure, "disk_grid", lambda resolution: fl.disk_grid(resolution=resolution, margin=-0.1)
    )
    with pytest.raises(LeftWindow):
        fl.calibrate_disk(samples=200, resolution=100)


def test_measure_report_fractions_exact(exp_map, exp_wide_grid):
    eps = 2.5 * max(exp_wide_grid.cell_size)
    r = fl.measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 300, eps, 60, rng_seed=2)
    f = r.fractions
    assert f["escaping"] + f["bounded"] + f["undecided"] == 1.0
    assert sum(r.counts.values()) == 300 - r.left_window
    assert r.left_window < 150


def test_measure_report_independent_of_block_size(exp_map, exp_wide_grid, monkeypatch):
    eps = 2.5 * max(exp_wide_grid.cell_size)
    r1 = fl.measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 200, eps, 60, rng_seed=5)
    monkeypatch.setattr(measure, "_BLOCK", 7)
    r2 = fl.measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 200, eps, 60, rng_seed=5)
    assert r1.fractions == r2.fractions
    assert [(h.sample_id, h.hit) for h in r1.hits] == [(h.sample_id, h.hit) for h in r2.hits]


def test_keyed_chunks_follow_the_sample_stream():
    """Chunk r of walker i is draws r*k..(r+1)*k-1 of _sample_rng(seed, i)."""
    draw = _keyed_chunks(4)
    for i in (0, 1, 977):
        stream = _sample_rng(4, i).uniform(size=3 * _DRAW_CHUNK)
        for r in range(3):
            assert np.array_equal(draw(i, r), stream[r * _DRAW_CHUNK:(r + 1) * _DRAW_CHUNK])


def _single_walker_hits(grid, basepoint, eps, seed, n):
    """Reference: walker i alone, drawing its chunks in order from _sample_rng(seed, i)."""
    hits = []
    for i in range(n):
        rng = _sample_rng(seed, i)
        hit = _walk_lockstep(
            grid, basepoint, eps, 1, lambda j, r: rng.uniform(size=_DRAW_CHUNK), _MAX_WALK_STEPS
        )[0]
        hits.append(None if np.isnan(hit.real) else complex(hit))
    return hits


def test_lockstep_hits_equal_single_walker_hits_on_disk():
    g = fl.disk_grid(resolution=200)
    eps = 2.5 * max(g.cell_size)
    for basepoint in (0j, 0.5 + 0j):
        batched = _walk_hits(g, basepoint, eps, 9, 300)
        single = _single_walker_hits(g, basepoint, eps, 9, 300)
        assert batched.tolist() == single


def test_lockstep_hits_equal_single_walker_hits_with_exits(exp_map, exp_wide_grid):
    eps = 2.5 * max(exp_wide_grid.cell_size)
    batched = _walk_hits(exp_wide_grid, 0.3574 + 0j, eps, 2, 150)
    single = _single_walker_hits(exp_wide_grid, 0.3574 + 0j, eps, 2, 150)
    exited = [h is None for h in single]
    assert 0 < sum(exited) < 150
    assert np.isnan(batched.real).tolist() == exited
    assert [h for h, e in zip(batched.tolist(), exited) if not e] == [
        h for h in single if h is not None
    ]


def test_measure_budget_monotonicity(exp_map, exp_wide_grid):
    """Doubling the orbit budget only moves mass out of undecided; decided
    verdicts persist per hit."""
    eps = 2.5 * max(exp_wide_grid.cell_size)
    r1 = fl.measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 300, eps, 50, rng_seed=3)
    r2 = fl.measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 300, eps, 100, rng_seed=3)
    assert [h.hit for h in r1.hits] == [h.hit for h in r2.hits]
    for a, b in zip(r1.hits, r2.hits):
        if a.verdict != "UNDECIDED":
            assert a.verdict == b.verdict
    assert r2.fractions["undecided"] <= r1.fractions["undecided"]


def test_toy_disk_all_bounded(exp_map):
    """Hits on the toy disk raster sit inside the exponential basin, so every
    hit orbit certifies bounded: fractions {0, 1, 0}."""
    import dataclasses

    g = dataclasses.replace(
        fl.disk_grid(resolution=250), attractors=fl.default_attractors(exp_map), _tree_cache={}
    )
    eps = 2.5 * max(g.cell_size)
    r = fl.measure_report(exp_map, g, 0j, 150, eps, 200, rng_seed=1)
    assert r.fractions == {"escaping": 0.0, "bounded": 1.0, "undecided": 0.0}


def test_dense_orbit_stat_decreases_with_samples():
    """Hit orbits sweep the strip edge; more samples approach the targets better."""
    m = fl.fatou_minus()
    att = fl.default_attractors(m, k_bound=2)
    g = fl.label_components(
        fl.classify_grid(m, (-6.0, 14.0, -4.5, 4.5), (300, 135), 400, attractors=att)
    )
    eps = 2.5 * max(g.cell_size)
    targets = (2 + np.pi * 1j, -1 + np.pi * 1j)
    stats = [
        fl.measure_report(m, g, 0j, n, eps, 120, targets=targets, rng_seed=5).dense_orbit_stat
        for n in (500, 1000, 2000)
    ]
    assert stats[0] >= stats[1] >= stats[2]
    assert stats[2] < stats[0]


def test_too_many_window_exits(exp_map):
    """A window cut deep inside the basin loses most walks through the frame."""
    att = fl.default_attractors(exp_map)
    g = fl.label_components(
        fl.classify_grid(exp_map, (-2.0, 4.0, -3.0, 3.0), (150, 150), 300, attractors=att)
    )
    eps = 2.5 * max(g.cell_size)
    with pytest.raises(TooManyWindowExits):
        fl.measure_report(exp_map, g, 0.3574 + 0j, 150, eps, 50, rng_seed=0)


def test_measure_kind_names(exp_map, exp_wide_grid):
    eps = 2.5 * max(exp_wide_grid.cell_size)
    r = fl.measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 150, eps, 60, rng_seed=8)
    names = {h.verdict for h in r.hits}
    assert names <= {k.name for k in Kind}
