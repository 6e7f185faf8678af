import csv

import numpy as np

from fatoulab import serialize
from fatoulab.boundary import access_curve, newton_periodic
from fatoulab.branches import chain_fixing
from fatoulab.catalog import postsingular_sample
from fatoulab.grid import ClassificationGrid, classify_grid
from fatoulab.hyperbolic import contraction_audit
from fatoulab.orbits import Kind, default_attractors

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
    P = postsingular_sample(exp_map, 10).points()
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


def test_grid_threads_deterministic(exp_map):
    kw = dict(attractors=default_attractors(exp_map))
    g1 = classify_grid(exp_map, (-2, 4, -3, 3), (64, 64), 120, threads=1, **kw)
    g4 = classify_grid(exp_map, (-2, 4, -3, 3), (64, 64), 120, threads=4, **kw)
    assert np.array_equal(g1.kinds, g4.kinds)
    assert np.array_equal(g1.iterations, g4.iterations)
    assert np.array_equal(g1.classes, g4.classes)


def _grid_csv_reference(grid, path):
    """grid.csv as csv.writer writes it, one row per cell: the reference bytes."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x_index", "y_index", "kind", "label", "iterations"])
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                w.writerow([ix, iy, Kind(int(grid.kinds[iy, ix])).name.lower(),
                            int(grid.labels[iy, ix]), int(grid.iterations[iy, ix])])


def test_grid_csv_bytes_equal_csv_writer(tmp_path):
    rng = np.random.default_rng(3)
    ny, nx = 7, 11
    kinds = rng.integers(0, 4, (ny, nx)).astype(np.int8)
    assert set(kinds.ravel().tolist()) == {int(k) for k in Kind}
    grid = ClassificationGrid(
        window=(-1.0, 1.0, -1.0, 1.0), nx=nx, ny=ny, kinds=kinds,
        labels=rng.integers(0, 40, (ny, nx)).astype(np.int32),
        iterations=rng.integers(0, 2000, (ny, nx)).astype(np.int32),
        classes=np.zeros((ny, nx), dtype=np.int32), attractors=(), budget=2000,
        escape_radius=50.0, tol=1e-6,
    )
    assert grid.labels.max() > 0
    serialize.grid_to_csv(grid, tmp_path / "grid.csv")
    _grid_csv_reference(grid, tmp_path / "reference.csv")
    data = (tmp_path / "grid.csv").read_bytes()
    assert data == (tmp_path / "reference.csv").read_bytes()
    assert data.count(b"\r\n") == 1 + nx * ny
