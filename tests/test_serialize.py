import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fatoulab import serialize
from fatoulab.boundary import access_curve, newton_periodic
from fatoulab.branches import chain_fixing
from fatoulab.catalog import postsingular_sample
from fatoulab.grid import ClassificationGrid
from fatoulab.hyperbolic import contraction_audit
from fatoulab.orbits import Kind

from conftest import QR


def test_curve_csv(tmp_path, exp_map, exp_grid):
    p = newton_periodic(exp_map, 2.2, 1, grid=exp_grid)
    curve = access_curve(exp_map, p, 1.8 + 0j, 5, exp_grid)
    serialize.curve_to_csv(curve, tmp_path / "curve.csv")
    rows = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert rows[0] == "m,re,im,gap"
    assert len(rows) == 1 + len(curve.vertices)


def test_audit_csv(tmp_path, exp_map):
    chain = chain_fixing(exp_map, QR, 2)
    P = postsingular_sample(exp_map, 10)
    region = [QR + 0.1 * np.exp(2j * np.pi * k / 8) for k in range(8)]
    audit = contraction_audit(exp_map, chain, region, P)
    serialize.audit_to_csv(audit, tmp_path / "audit.csv")
    rows = (tmp_path / "audit.csv").read_text().strip().splitlines()
    assert rows[0] == "re,im,ratio_lower,ratio_upper,verdict"
    assert len(rows) == 9
    assert all(r.rsplit(",", 1)[1] in ("ok", "inconclusive", "violation") for r in rows[1:])
    for r in rows[1:]:
        re, im, lower, upper = (float(c) for c in r.split(",")[:4])  # every number parses
        assert lower <= upper


def test_grid_ppm_palette(tmp_path, exp_grid):
    serialize.grid_to_ppm(exp_grid, tmp_path / "g.ppm")
    data = (tmp_path / "g.ppm").read_bytes()
    header = f"P6\n{exp_grid.nx} {exp_grid.ny}\n255\n".encode()
    assert data.startswith(header)
    assert len(data) == len(header) + 3 * exp_grid.nx * exp_grid.ny
    body = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(exp_grid.ny, exp_grid.nx, 3)
    # the attracting basin cell carries the attracting palette entry
    ix, iy = exp_grid.cell_of(0.357 + 0j)
    assert tuple(body[exp_grid.ny - 1 - iy, ix]) == serialize.PALETTE["attracting"]


def _grid_csv_reference(grid, path):
    """grid.csv as csv.writer writes it, one row per cell: the reference bytes."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x_index", "y_index", "kind", "label", "iterations"])
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                w.writerow([ix, iy, Kind(int(grid.kinds[iy, ix])).name.lower(),
                            int(grid.labels[iy, ix]), int(grid.iterations[iy, ix])])


def _grid(kinds, labels, iterations):
    ny, nx = kinds.shape
    return ClassificationGrid(
        window=(-1.0, 1.0, -1.0, 1.0), nx=nx, ny=ny, kinds=kinds.astype(np.int8),
        labels=labels.astype(np.int32), iterations=iterations.astype(np.int32),
        classes=np.zeros((ny, nx), dtype=np.int32), attractors=(), budget=2000,
        escape_radius=50.0, tol=1e-6,
    )


def _assert_grid_csv_is_reference(tmp_path, grid):
    serialize.grid_to_csv(grid, tmp_path / "grid.csv")
    _grid_csv_reference(grid, tmp_path / "reference.csv")
    data = (tmp_path / "grid.csv").read_bytes()
    assert data == (tmp_path / "reference.csv").read_bytes()
    assert data.count(b"\r\n") == 1 + grid.nx * grid.ny


def test_grid_csv_bytes_equal_csv_writer(tmp_path):
    rng = np.random.default_rng(3)
    ny, nx = 7, 11
    kinds = rng.integers(0, 4, (ny, nx))
    assert set(kinds.ravel().tolist()) == {int(k) for k in Kind}
    grid = _grid(kinds, rng.integers(0, 40, (ny, nx)), rng.integers(0, 2000, (ny, nx)))
    assert grid.labels.max() > 0
    _assert_grid_csv_is_reference(tmp_path, grid)


# Every change of decimal width from 0 to 10**6: the encoder sizes each digit
# matrix from the field's largest value.
WIDTH_EDGES = [0, 9, 10, 99, 100, 999, 1000, 9999, 10**4, 99999, 10**5, 999999, 10**6]


@pytest.mark.parametrize("top", WIDTH_EDGES + [2**31 - 1])
def test_grid_csv_digit_width_edges(tmp_path, top):
    """Labels and iterations hold every width edge up to `top`, their largest value."""
    values = np.array([v for v in WIDTH_EDGES if v < top] + [top])
    rng = np.random.default_rng(len(values))
    ny, nx = 4, 9
    labels, iterations = rng.choice(values, (ny, nx)), rng.choice(values, (ny, nx))
    labels.flat[:values.size] = values
    iterations.flat[-values.size:] = values
    _assert_grid_csv_is_reference(tmp_path, _grid(rng.integers(0, 4, (ny, nx)), labels, iterations))


@pytest.mark.parametrize("ny, nx", [(2, 2), (23, 2), (3, 101), (101, 11), (9, 10), (10, 100)])
@pytest.mark.parametrize("block", [1, 40, 1 << 16])
def test_grid_csv_blocks_and_index_widths(tmp_path, monkeypatch, ny, nx, block):
    """Blocks of one row (a block smaller than a row), of several rows with a
    short last block, and of the whole grid give the same bytes, while the
    indices cross 10 and 100."""
    monkeypatch.setattr(serialize, "_CSV_BLOCK", block)
    rng = np.random.default_rng(ny * nx)
    grid = _grid(rng.integers(0, 4, (ny, nx)), rng.integers(0, 300, (ny, nx)),
                 rng.integers(1, 5000, (ny, nx)))
    _assert_grid_csv_is_reference(tmp_path, grid)


def test_grid_csv_rejects_negative_fields(tmp_path):
    ones = np.ones((2, 2))
    with pytest.raises(ValueError):
        serialize.grid_to_csv(_grid(ones, -ones, ones), tmp_path / "grid.csv")


# Cells that stress number printing: signs, signed zero, exponents both ways,
# nan and both infinities.
AWKWARD = [-1.5, -0.0, 1e22, -3.25e-7, 2.5e-300, math.nan, math.inf, -math.inf, 0.1]


def _csv_reference(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _small_tables():
    """Name -> (writer, object, header, reference rows) for each CSV writer but grid_to_csv."""
    pts = [complex(a, b) for a, b in zip(AWKWARD, AWKWARD[::-1])]
    landing = complex(-0.25, 1e-5)
    curve = SimpleNamespace(segment_index=tuple(range(len(pts))), vertices=pts,
                            landing_point=landing)
    hits = [SimpleNamespace(sample_id=3 * i, hit=z, verdict=v, orbit_iterations=i * 7)
            for i, (z, v) in enumerate(zip(pts, ["ESCAPING", "UNDECIDED", "ATTRACTING"] * 3))]
    rows = [SimpleNamespace(point=z, ratio_lower=lo, ratio_upper=hi, verdict=v)
            for z, lo, hi, v in zip(pts, AWKWARD, AWKWARD[1:] + AWKWARD[:1],
                                    ["ok", "inconclusive", "violation"] * 3)]
    periodic = [(1, [SimpleNamespace(branch=0, theta=0.0, residual=0.0)]),
                (3, [SimpleNamespace(branch=j - 4, theta=t, residual=r)
                     for j, (t, r) in enumerate(zip(AWKWARD, AWKWARD[::-1]))])]
    return {
        "curve": (
            serialize.curve_to_csv, curve, ["m", "re", "im", "gap"],
            [[k, z.real, z.imag, abs(z - landing)] for k, z in enumerate(pts)]),
        "hits": (
            serialize.hits_to_csv, SimpleNamespace(hits=hits),
            ["sample_id", "hit_re", "hit_im", "verdict", "orbit_iterations"],
            [[h.sample_id, h.hit.real, h.hit.imag, h.verdict.lower(), h.orbit_iterations]
             for h in hits]),
        "audit": (
            serialize.audit_to_csv, SimpleNamespace(rows=rows),
            ["re", "im", "ratio_lower", "ratio_upper", "verdict"],
            [[r.point.real, r.point.imag, r.ratio_lower, r.ratio_upper, r.verdict] for r in rows]),
        "periodic_points": (
            serialize.periodic_points_to_csv, periodic, ["n", "j", "theta", "residual"],
            [[n, p.branch, p.theta, p.residual] for n, points in periodic for p in points]),
    }


@pytest.mark.parametrize("table", ["curve", "hits", "audit", "periodic_points"])
def test_small_csv_bytes_equal_csv_writer(tmp_path, table):
    write, obj, header, rows = _small_tables()[table]
    write(obj, tmp_path / "out.csv")
    _csv_reference(tmp_path / "reference.csv", header, rows)
    data = (tmp_path / "out.csv").read_bytes()
    assert data == (tmp_path / "reference.csv").read_bytes()
    assert data.count(b"\r\n") == 1 + len(rows)
    assert b"nan" in data and b"inf" in data and b"e-" in data
