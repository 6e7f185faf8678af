import numpy as np
import pytest

from fatoulab import measure
from fatoulab.catalog import fatou_minus
from fatoulab.errors import LeftWindow, NotFatouClassified, TooManyWindowExits
from fatoulab.grid import classify_grid, label_components
from fatoulab.measure import (
    _DRAW_CHUNK,
    _FIRST_DRAWS,
    _MAX_WALK_STEPS,
    _philox_uniforms,
    _walk_hits,
    _walk_lockstep,
    calibrate_disk,
    disk_grid,
    measure_report,
)
from fatoulab.orbits import Kind, default_attractors

THREE_PI = 3 * np.pi


def test_sample_hit_deterministic():
    g = disk_grid(resolution=200)
    eps = 2.5 * max(g.cell_size)
    assert _walk_hits(g, 0j, eps, 9, 50).tolist() == _walk_hits(g, 0j, eps, 9, 50).tolist()


def test_walk_eps_validation():
    g = disk_grid(resolution=200)
    with pytest.raises(ValueError):
        _walk_hits(g, 0j, 0.5 * max(g.cell_size), 0, 1)
    with pytest.raises(NotFatouClassified):
        _walk_hits(g, 1.15 + 0j, 2.5 * max(g.cell_size), 0, 1)


def test_hits_land_on_boundary_raster():
    g = disk_grid(resolution=300)
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
    """The hits of calibrate_disk are fixed; one moved hit shifts the
    chi-squared p far beyond its tolerance and moves the KS distance, which
    is exact."""
    assert disk_calibration.chi2_p == pytest.approx(0.2579843292825647, rel=1e-12)
    assert disk_calibration.ks_stat == 0.010589050454415327


def test_calibration_statistics_equal_scipy_stats(monkeypatch):
    """calibrate_disk's KS distance is bit for bit that of scipy.stats, and its
    chi-squared p, a closed form, within 1e-14 of it (relative; the largest
    difference measured on 20,000 statistics in [0.01, 80] was 4.7e-15), on
    seeded hit sets of varied size and shape."""
    from scipy import stats

    rng = np.random.default_rng(11)
    draws = {}

    def fake_hits(grid, basepoint, eps, key, n):
        # Uniform centre hits; offset hits peaked like a Poisson kernel.
        theta = rng.uniform(-np.pi, np.pi, n) if key == 0 else rng.vonmises(0.0, 1.0, n)
        draws[key] = np.exp(1j * theta)
        return draws[key]

    monkeypatch.setattr(measure, "_walk_hits", fake_hits)
    for n in rng.integers(50, 3000, 50):
        cal = measure.calibrate_disk(samples=int(n), resolution=8)
        counts, _ = np.histogram(np.angle(draws[0]), bins=16, range=(-np.pi, np.pi))
        p = stats.chisquare(counts).pvalue
        assert abs(cal.chi2_p - p) <= 1e-14 * p
        assert cal.ks_stat == stats.kstest(np.angle(draws[1]), measure._poisson_cdf(0.5)).statistic


def test_calibration_exit_raises_left_window(monkeypatch):
    """A disk wider than the window lets walks exit; that is an error, not a NaN hit."""
    monkeypatch.setattr(
        measure, "disk_grid", lambda resolution: disk_grid(resolution=resolution, margin=-0.1)
    )
    with pytest.raises(LeftWindow):
        calibrate_disk(samples=200, resolution=100)


def test_measure_report_fractions_exact(exp_map, exp_wide_grid):
    eps = 2.5 * max(exp_wide_grid.cell_size)
    r = measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 300, eps, 60, rng_seed=2)
    f = r.fractions
    assert f["escaping"] + f["bounded"] + f["undecided"] == 1.0
    assert sum(r.counts.values()) == 300 - r.left_window
    assert r.left_window < 150


def test_measure_report_independent_of_block_size(exp_map, exp_wide_grid, monkeypatch):
    eps = 2.5 * max(exp_wide_grid.cell_size)
    r1 = measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 200, eps, 60, rng_seed=5)
    monkeypatch.setattr(measure, "_GROUP", 7)
    r2 = measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 200, eps, 60, rng_seed=5)
    assert r1.fractions == r2.fractions
    assert [(h.sample_id, h.hit) for h in r1.hits] == [(h.sample_id, h.hit) for h in r2.hits]


def _sample_rng(seed, sample_index):
    """The stream (seed, sample_index), from numpy's own Philox bit generator."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, sample_index], dtype=np.uint64)))


def test_philox_chunks_equal_numpy_philox_at_edge_keys_and_counters():
    """Uniforms s..s+c-1 of walker i are those draws of _sample_rng(seed, i),
    bit for bit, for keys at the edges of both 64-bit words, drawn for all
    walkers at once: the walk's first three chunks, a short and a long chunk
    off those bounds, and a chunk whose counter passes 2**32."""
    walkers = np.array([0, 2**32 - 1, 2**32, 2**63], dtype=np.uint64)
    chunks = [(0, _FIRST_DRAWS), (_FIRST_DRAWS, _DRAW_CHUNK - _FIRST_DRAWS),
              (_DRAW_CHUNK, _DRAW_CHUNK), (2 * _DRAW_CHUNK, 4), (4, 4 * _DRAW_CHUNK)]
    for seed in (0, 1, 2**64 - 1):
        streams = [_sample_rng(seed, int(i)).uniform(size=5 * _DRAW_CHUNK) for i in walkers]
        for start, count in chunks:
            uniforms = _philox_uniforms(seed, walkers, start, count)
            assert uniforms.shape == (walkers.size, count)
            for row, stream in zip(uniforms, streams):
                assert row.tobytes() == stream[start:start + count].tobytes()
        far = _philox_uniforms(seed, walkers[:1], 4 * 2**32, 8)
        rng = _sample_rng(seed, 0)
        rng.bit_generator.advance(2**32)
        assert far.tobytes() == rng.uniform(size=8).tobytes()


def _single_walker_hits(grid, basepoint, eps, seed, walkers):
    """Reference: each walker i alone, drawing each chunk in order from
    _sample_rng(seed, i), one numpy call per chunk. Also returns the most
    uniforms a walker drew."""
    hits, most = [], 0
    for i in walkers:
        rng, drawn = _sample_rng(seed, i), [0]

        def draw(js, start, count):
            assert js.tolist() == [0] and start == drawn[0]
            drawn[0] += count
            return rng.uniform(size=(1, count))

        hit = _walk_lockstep(grid, basepoint, eps, 1, draw, _MAX_WALK_STEPS)[0]
        hits.append(None if np.isnan(hit.real) else complex(hit))
        most = max(most, drawn[0])
    return hits, most


def test_lockstep_hits_equal_single_walker_hits_on_disk():
    """Walks in lockstep, on the chunks drawn for the whole group at once, hit
    where each walker alone hits with numpy's own Philox stream. On the
    calibration disk, walkers 2667, 2744 and 2867 of seed 0 draw a third
    chunk."""
    g = disk_grid(resolution=200)
    eps = 2.5 * max(g.cell_size)
    for basepoint in (0j, 0.5 + 0j):
        batched = _walk_hits(g, basepoint, eps, 9, 300)
        single, most = _single_walker_hits(g, basepoint, eps, 9, range(300))
        assert batched.tolist() == single
        assert most > _FIRST_DRAWS
    g = disk_grid(resolution=400)
    eps = 2.5 * max(g.cell_size)
    batched = _walk_hits(g, 0j, eps, 0, 2900)
    single, most = _single_walker_hits(g, 0j, eps, 0, range(2650, 2900))
    assert batched[2650:].tolist() == single
    assert most > _DRAW_CHUNK


def test_lockstep_hits_equal_single_walker_hits_with_exits(exp_map, exp_wide_grid):
    eps = 2.5 * max(exp_wide_grid.cell_size)
    batched = _walk_hits(exp_wide_grid, 0.3574 + 0j, eps, 2, 150)
    single, _ = _single_walker_hits(exp_wide_grid, 0.3574 + 0j, eps, 2, range(150))
    exited = [h is None for h in single]
    assert 0 < sum(exited) < 150
    assert np.isnan(batched.real).tolist() == exited
    assert [h for h, e in zip(batched.tolist(), exited) if not e] == [
        h for h in single if h is not None
    ]


def test_basepoint_near_the_boundary_stops_every_walker_at_step_0(monkeypatch):
    """Within walk_eps of the boundary raster, every walk ends before its first
    jump, at the basepoint's nearest center, from the one basepoint query."""
    g = disk_grid(resolution=200)
    eps = 2.5 * max(g.cell_size)
    basepoint = 0.985 + 0.01j
    label = g.label_at(basepoint)
    d, i = g.nearest_other_label(label, (basepoint.real, basepoint.imag))
    assert d - g.cell_diagonal < eps
    nearest = complex(g.other_label_center(label, i))
    queries = []
    query = type(g).nearest_other_label

    def counted(self, *args):
        queries.append(args)
        return query(self, *args)

    monkeypatch.setattr(type(g), "nearest_other_label", counted)
    hits = _walk_hits(g, basepoint, eps, 3, 40)
    assert hits.tolist() == [nearest] * 40
    assert len(queries) == 1


def test_hits_do_not_depend_on_the_block_size(monkeypatch):
    """Neither the walkers advanced together nor the points per index query
    change a hit."""
    g = disk_grid(resolution=200)
    eps = 2.5 * max(g.cell_size)
    for basepoint in (0j, 0.5 + 0j):
        ref = _walk_hits(g, basepoint, eps, 6, 300)
        for group, block in ((1, 1024), (7, 3), (300, 1), (16384, 7), (16384, 1024)):
            monkeypatch.setattr(measure, "_GROUP", group)
            monkeypatch.setattr(measure, "_BLOCK", block)
            assert _walk_hits(g, basepoint, eps, 6, 300).tobytes() == ref.tobytes()


def test_measure_budget_monotonicity(exp_map, exp_wide_grid):
    """Doubling the orbit budget only moves mass out of undecided; decided
    verdicts persist per hit."""
    eps = 2.5 * max(exp_wide_grid.cell_size)
    r1 = measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 300, eps, 50, rng_seed=3)
    r2 = measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 300, eps, 100, rng_seed=3)
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
        disk_grid(resolution=250), attractors=default_attractors(exp_map)
    )
    eps = 2.5 * max(g.cell_size)
    r = measure_report(exp_map, g, 0j, 150, eps, 200, rng_seed=1)
    assert r.fractions == {"escaping": 0.0, "bounded": 1.0, "undecided": 0.0}


def test_dense_orbit_stat_decreases_with_samples():
    """Hit orbits sweep the strip edge; more samples approach the targets better."""
    m = fatou_minus()
    att = default_attractors(m, k_bound=2)
    g = label_components(
        classify_grid(m, (-6.0, 14.0, -4.5, 4.5), (300, 135), 400, attractors=att)
    )
    eps = 2.5 * max(g.cell_size)
    targets = (2 + np.pi * 1j, -1 + np.pi * 1j)
    stats = [
        measure_report(m, g, 0j, n, eps, 120, targets=targets, rng_seed=5).dense_orbit_stat
        for n in (500, 1000, 2000)
    ]
    assert stats[0] >= stats[1] >= stats[2]
    assert stats[2] < stats[0]


def test_too_many_window_exits(exp_map):
    """A window cut deep inside the basin loses most walks through the frame."""
    att = default_attractors(exp_map)
    g = label_components(
        classify_grid(exp_map, (-2.0, 4.0, -3.0, 3.0), (150, 150), 300, attractors=att)
    )
    eps = 2.5 * max(g.cell_size)
    with pytest.raises(TooManyWindowExits):
        measure_report(exp_map, g, 0.3574 + 0j, 150, eps, 50, rng_seed=0)


def test_measure_kind_names(exp_map, exp_wide_grid):
    eps = 2.5 * max(exp_wide_grid.cell_size)
    r = measure_report(exp_map, exp_wide_grid, 0.3574 + 0j, 150, eps, 60, rng_seed=8)
    names = {h.verdict for h in r.hits}
    assert names <= {k.name for k in Kind}
