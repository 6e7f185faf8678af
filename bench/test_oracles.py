"""The benchmark's output checks pass on real CLI output and fail on corrupted output.

Run from the root of the repository: ``python3 -m pytest bench/test_oracles.py``.
Outputs come from the CLI in-process at reduced sizes; each test corrupts one
thing the matching check exists to catch.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from fatoulab import cli, serialize  # noqa: E402
from fatoulab.catalog import exp_lambda  # noqa: E402
from fatoulab.grid import classify_grid, label_components  # noqa: E402
from fatoulab.measure import measure_report  # noqa: E402
from fatoulab.orbits import default_attractors  # noqa: E402


def _invocation(workload, name):
    return next(i for i in workloads.WORKLOADS[workload](3) if i.name == name)


def _run_cli(tmp_path_factory, inv, **changes) -> tuple[Path, dict]:
    cfg = copy.deepcopy(inv.config)
    cfg.update(changes)
    base = tmp_path_factory.mktemp(inv.name)
    (base / "config.json").write_text(json.dumps(cfg))
    assert cli.main([inv.subcommand, "--config", str(base / "config.json"),
                     "--out", str(base / "out")]) == 0
    return base / "out", cfg


def _rng():
    return np.random.default_rng(0)


def _edit_csv_row(path: Path, index: int, column: int, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[index + 1].split(",")
    cells[column] = value
    lines[index + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def zexp_render(tmp_path_factory):
    return _run_cli(tmp_path_factory, _invocation("basins-deep", "z_exp"), resolution=[40, 40])


@pytest.fixture(scope="module")
def exp_render(tmp_path_factory):
    return _run_cli(tmp_path_factory, _invocation("basins-fine", "exp_lambda"),
                    resolution=[60, 60])


def _copy(tmp_path, out: Path) -> Path:
    dst = tmp_path / "copy"
    dst.mkdir()
    for p in out.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def test_render_checks_pass_on_cli_output(zexp_render, exp_render):
    for out, cfg in (zexp_render, exp_render):
        assert oracles.check_render(out, cfg, _rng()) == []


def test_flipped_cell_kind_breaks_palette_and_counts(tmp_path, zexp_render):
    out, cfg = zexp_render
    bad = _copy(tmp_path, out)
    grid = oracles.read_grid_csv(bad / "grid.csv")
    row = int(np.nonzero(grid[:, 2] == oracles.KIND_CODES["parabolic"])[0][0])
    _edit_csv_row(bad / "grid.csv", row, 2, "escaping")
    errors = oracles.check_render(bad, cfg, _rng())
    assert any("palette" in e for e in errors)
    assert any("cells_by_kind" in e for e in errors)


def test_dropped_grid_row_is_caught(tmp_path, zexp_render):
    out, cfg = zexp_render
    bad = _copy(tmp_path, out)
    lines = (bad / "grid.csv").read_text().splitlines()
    (bad / "grid.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert any("nx*ny" in e for e in oracles.check_render(bad, cfg, _rng()))


def test_cmath_reiteration_rejects_wrong_verdicts(exp_render, zexp_render):
    out, cfg = exp_render
    grid = oracles.read_grid_csv(out / "grid.csv")
    nx, ny = cfg["resolution"]
    attracting = grid[grid[:, 2] == oracles.KIND_CODES["attracting"]][0]
    z = oracles.cell_center(cfg["window"], nx, ny, int(attracting[0]), int(attracting[1]))
    assert oracles.check_cell(cfg, oracles.KIND_CODES["attracting"], 1, int(attracting[4]), z) is None
    assert oracles.check_cell(cfg, oracles.KIND_CODES["escaping"], 0, int(attracting[4]), z)

    escaping = grid[grid[:, 2] == oracles.KIND_CODES["escaping"]][0]
    z = oracles.cell_center(cfg["window"], nx, ny, int(escaping[0]), int(escaping[1]))
    assert oracles.check_cell(cfg, oracles.KIND_CODES["attracting"], 1, int(escaping[4]), z)

    out, cfg = zexp_render
    grid = oracles.read_grid_csv(out / "grid.csv")
    escaping = grid[grid[:, 2] == oracles.KIND_CODES["escaping"]][0]
    z = oracles.cell_center(cfg["window"], 40, 40, int(escaping[0]), int(escaping[1]))
    assert oracles.check_cell(cfg, oracles.KIND_CODES["parabolic"], 1, int(escaping[4]), z)


def test_drift_tail_rejects_a_non_monotone_orbit():
    inv = _invocation("basins-deep", "z_plus_exp")
    # Re z + e^{-z} decreases where cos(Im z) < 0.
    assert oracles.check_cell(inv.config, oracles.KIND_CODES["escaping"], 1, 0, complex(1.0, math.pi))
    assert oracles.check_cell(inv.config, oracles.KIND_CODES["escaping"], 1, 0, complex(1.0, 0.0)) is None


@pytest.fixture(scope="module")
def measure_output(tmp_path_factory):
    """A small measure output written by fatoulab's own writers, calibration stats as reported."""
    cfg = copy.deepcopy(_invocation("harmonic-measure", "exp_lambda").config)
    cfg["resolution"] = [175, 235]
    m = exp_lambda(0.25)
    grid = label_components(classify_grid(
        m, tuple(cfg["window"]), tuple(cfg["resolution"]), cfg["budgets"]["orbit"],
        attractors=default_attractors(m)))
    section = cfg["measure"]
    section["n_samples"] = 600
    eps = section["walk_eps_cells"] * max(grid.cell_size)
    report = measure_report(m, grid, complex(*section["basepoint"]), section["n_samples"], eps,
                            section["orbit_budget"])
    out = tmp_path_factory.mktemp("measure")
    payload = report.to_json()
    payload["calibration"] = {"chi2_p": 0.5, "ks_stat": 0.01}
    serialize.write_json(payload, out / "measure.json")
    serialize.hits_to_csv(report, out / "hits.csv")
    return out, cfg


def test_measure_checks_pass(measure_output):
    out, cfg = measure_output
    assert oracles.check_measure(out, cfg, _rng()) == []


def test_dropped_hit_row_is_caught(tmp_path, measure_output):
    out, cfg = measure_output
    bad = _copy(tmp_path, out)
    lines = (bad / "hits.csv").read_text().splitlines()
    (bad / "hits.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows, expected" in e for e in oracles.check_measure(bad, cfg, _rng()))


def test_failed_calibration_and_bounded_hits_are_caught(tmp_path, measure_output):
    out, cfg = measure_output
    bad = _copy(tmp_path, out)
    report = json.loads((bad / "measure.json").read_text())
    report["calibration"]["chi2_p"] = 0.001
    report["counts"]["bounded"] += 1
    report["counts"]["escaping"] -= 1
    (bad / "measure.json").write_text(json.dumps(report))
    errors = oracles.check_measure(bad, cfg, _rng())
    assert any("calibration" in e for e in errors)
    assert any("bounded" in e for e in errors)


def test_one_sided_hits_break_the_symmetry_test(tmp_path, measure_output):
    out, cfg = measure_output
    bad = _copy(tmp_path, out)
    lines = (bad / "hits.csv").read_text().splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[2] = repr(abs(float(cells[2])))
        lines[i] = ",".join(cells)
    (bad / "hits.csv").write_text("\n".join(lines) + "\n")
    assert any("4 sigma" in e for e in oracles.check_measure(bad, cfg, _rng()))


@pytest.fixture(scope="module")
def periodic_output(tmp_path_factory):
    return _run_cli(tmp_path_factory, _invocation("boundary-tools", "periodic"))


@pytest.fixture(scope="module")
def access_output(tmp_path_factory):
    return _run_cli(tmp_path_factory, _invocation("boundary-tools", "access"))


def test_fixed_point_checks(tmp_path, periodic_output):
    out, cfg = periodic_output
    assert oracles.check_periodic(out, cfg) == []
    bad = _copy(tmp_path, out)
    point = json.loads((bad / "points.json").read_text())
    point["point"][0] += 1e-7
    (bad / "points.json").write_text(json.dumps(point))
    assert any("-W_-1" in e for e in oracles.check_periodic(bad, cfg))


def test_access_curve_checks(tmp_path, access_output):
    out, cfg = access_output
    assert oracles.check_access(out, cfg) == []
    bad = _copy(tmp_path, out)
    _edit_csv_row(bad / "curve.csv", 30, 1, repr(0.123))
    assert any("f(v_(m+1))" in e for e in oracles.check_access(bad, cfg))


def test_audit_checks(tmp_path):
    cfg = _invocation("boundary-tools", "audit").config
    region = cfg["audit"]["region"]
    c, r = complex(*region["center"]), region["radius"]
    rows = []
    for j in range(region["count"]):
        z = c + r * complex(math.cos(2 * math.pi * j / region["count"]),
                            math.sin(2 * math.pi * j / region["count"]))
        rows.append(f"{z.real!r},{z.imag!r},0.01,0.08,ok")
    good = tmp_path / "good"
    good.mkdir()
    (good / "audit.csv").write_text("re,im,ratio_lower,ratio_upper,verdict\n" + "\n".join(rows) + "\n")
    assert oracles.check_audit(good, cfg) == []

    bad = _copy(tmp_path, good)
    _edit_csv_row(bad / "audit.csv", 5, 4, "violation")
    _edit_csv_row(bad / "audit.csv", 6, 2, "0.09")
    errors = oracles.check_audit(bad, cfg)
    assert any("violation row" in e for e in errors)
    assert any("ratio_lower" in e for e in errors)

    _edit_csv_row(bad / "audit.csv", 7, 2, "np.float64(0.01)")
    with pytest.raises(ValueError):
        oracles.check_audit(bad, cfg)


@pytest.fixture(scope="module")
def inner_output(tmp_path_factory):
    inv = _invocation("boundary-tools", "inner")
    return _run_cli(tmp_path_factory, inv, inner={**inv.config["inner"], "periods": [1, 2, 3, 4, 5]})


def test_inner_checks(tmp_path, inner_output):
    out, cfg = inner_output
    assert oracles.check_inner(out, cfg) == []

    bad = _copy(tmp_path, out)
    _edit_csv_row(bad / "periodic_points.csv", 4, 2, repr(1.0))
    assert any("2 pi j" in e for e in oracles.check_inner(bad, cfg))

    lines = (bad / "periodic_points.csv").read_text().splitlines()
    (bad / "periodic_points.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert any("expected 2^n - 1" in e for e in oracles.check_inner(bad, cfg))

    points = json.loads((bad / "points.json").read_text())
    points["candidate"]["boundary_fixed_points"][0][1] += 1e-9
    (bad / "points.json").write_text(json.dumps(points))
    assert any("candidate" in e for e in oracles.check_inner(bad, cfg))


def test_scan_checks(tmp_path_factory):
    out, cfg = _run_cli(tmp_path_factory, _invocation("boundary-tools", "scan"))
    assert oracles.check_scan(out, cfg) == []
    points = json.loads((out / "points.json").read_text())
    points["other"].append(points["escaping"].pop())
    (out / "points.json").write_text(json.dumps(points))
    assert any("-0.5" in e for e in oracles.check_scan(out, cfg))


def test_digest_ignores_wall_time_only(tmp_path, periodic_output):
    out, _ = periodic_output
    copy_dir = _copy(tmp_path, out)
    digest = oracles.output_digest(copy_dir)
    summary = json.loads((copy_dir / "summary.json").read_text())
    summary["wall_time"] += 1.0
    (copy_dir / "summary.json").write_text(json.dumps(summary))
    assert oracles.output_digest(copy_dir) == digest
    points = json.loads((copy_dir / "points.json").read_text())
    points["residual"] *= 2
    (copy_dir / "points.json").write_text(json.dumps(points))
    assert oracles.output_digest(copy_dir) != digest


def test_lambert_references():
    attracting, repelling = oracles.lambert_fixed_points(0.25)
    for q in (attracting, repelling):
        assert abs(0.25 * np.exp(q) - q) < 1e-14
    assert abs(attracting - 0.357402956181389) < 1e-12
    assert abs(repelling - 2.153292364110349) < 1e-12
