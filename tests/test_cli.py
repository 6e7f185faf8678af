import ast
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fatoulab
import fatoulab.cli as cli
from fatoulab.measure import CalibrationResult


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

BASE = {
    "map": {"family": "exp_lambda", "lambda": 0.25},
    "window": [-2.0, 4.0, -3.0, 3.0],
    "resolution": [80, 80],
    "budgets": {"orbit": 150, "pullback": 100, "walk": 100000},
    "rng_seed": 7,
}


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    code = cli.main(["render", "--config", str(bad), "--out", str(out)])
    assert code == 2
    assert not out.exists()  # no partial outputs


def test_schema_violations_exit_2(tmp_path):
    cases = [
        ("render", {}),  # no map
        ("render", {"map": {"family": "uncatalogued"}}),
        ("render", {**BASE, "window": [4, -2, -3, 3]}),
        ("render", {**BASE, "resolution": [1, 80]}),
        ("render", {**BASE, "budgets": {"orbit": 0, "pullback": 1, "walk": 1}}),
        ("render", {**BASE, "attractors": [[0.3]]}),
        ("periodic", BASE),  # missing seed_region
        ("access", {**BASE, "access": {"seed": [2.2, 0.0]}}),  # missing z0
        ("audit", {**BASE, "audit": {"region": {"center": [0, 0]}}}),  # no chain
        ("measure", {**BASE, "measure": {"basepoint": [0.3, 0.0], "walk_eps_cells": 0.5}}),
        ("scan", {**BASE, "scan": {"kind": "escaping", "probes": []}}),
        ("inner", {**BASE, "inner": {}}),
    ]
    for sub, payload in cases:
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out_schema"
        assert cli.main([sub, "--config", str(cfg), "--out", str(out)]) == 2, (sub, payload)
        assert not out.exists()


@pytest.mark.parametrize(
    "sub, payload",
    [
        ("periodic",
         {**BASE, "periodic": {"seed_region": [2.0, 2.3, -0.1, 0.1], "max_period": "two"}}),
        ("render", {**BASE, "escape_radius": "big"}),
        ("scan", {**BASE, "scan": {"kind": "parabolic", "probes": [[-0.5, 0.0]], "budget": 100}}),
        ("render", {**BASE, "map": {"family": "exp_lambda", "lambda": "quarter"}}),
        ("render", {**BASE, "attractors": [["0.36", 0.0, 1]]}),
        ("render", {**BASE, "budgets": 300}),
        ("audit", {**BASE, "audit": {"fixed_point": [0.0, 6.28], "region": {}, "segment": "e"}}),
        ("audit", {**BASE, "audit": {"fixed_point": [0.0, 6.28], "orbit": [[0.0, 6.28]],
                                     "region": {}}}),
        ("inner", {**BASE, "inner": {"blaschke": {"zeros": [[2.0, 0.0]]}}}),
        ("inner", {**BASE, "inner": {"candidate": {"num": ["3", 0, 1], "den": [1, 0, 3]}}}),
        ("scan", {**BASE, "scan": {"kind": "escaping", "probes": [[2.0, 0.0]]}}),
        ("inner", {"map": {"family": "z_exp"},
                   "inner": {"blaschke": {"zeros": [[0.5, 0.0]]}, "periods": [1]}}),
        ("render", {**BASE, "attractors": [[60, 0, 1]]}),
        ("inner", {**BASE, "inner": {"candidate": {"num": [], "den": [1]}}}),
        ("inner", {**BASE, "inner": {"candidate": {"num": [1], "den": []}}}),
        ("measure", {**BASE, "measure": {"basepoint": [0.3, 0.0],
                                         "calibration": {"samples": 200, "resolution": 2}}}),
        ("audit", {**BASE, "audit": {"orbit": [[1.0, 0.0], [5.0, 0.0]], "region": {}}}),
        ("audit", {**BASE, "audit": {"orbit": [[800.0, 0.0], [1.0, 0.0]], "region": {}}}),
        ("render", {**BASE, "window": [-math.inf, 4.0, -3.0, 3.0]}),
        ("render", {**BASE, "map": {"family": "exp_lambda", "lambda": math.nan}}),
        ("measure", {**BASE, "measure": {"basepoint": [0.3, 0.0], "walk_eps_cells": math.inf}}),
        ("render", {**BASE, "escape_radius": 10**400}),
        ("render", {**BASE, "window": [-2.0, 10**400, -3.0, 3.0]}),
        ("render", {**BASE, "map": {"family": "exp_lambda", "lambda": 10**400}}),
        ("periodic", {**BASE, "periodic": {"seed_region": [2.3, 2.0, 0.1, -0.1]}}),
        ("inner", {**BASE, "inner": {"blaschke": {"zeros": [[0.0, 0.0], [0.0, 0.0]]},
                                     "periods": [2, 2]}}),
    ],
    ids=["max_period_string", "escape_radius_string", "parabolic_scan_without_parabolic_point",
         "lambda_string", "attractor_string", "budgets_not_object",
         "segment_string", "orbit_and_fixed_point", "blaschke_zero_outside_disk",
         "candidate_string_coefficient", "escaping_scan_without_point",
         "blaschke_degree_1_with_periods", "attractor_beyond_escape_radius",
         "candidate_empty_num", "candidate_empty_den", "calibration_resolution_2",
         "audit_orbit_not_consecutive", "audit_orbit_overflows", "window_minus_infinity",
         "lambda_nan", "walk_eps_cells_infinity", "escape_radius_10_400", "window_bound_10_400",
         "lambda_10_400", "seed_region_reversed", "inner_periods_repeated"],
)
def test_malformed_values_exit_2_before_writing(tmp_path, sub, payload):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main([sub, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("sub, section, field", [
    ("render", "budgets", "orbit"),
    ("measure", "measure", "orbit_budget"),
    ("scan", "scan", "budget"),
])
def test_orbit_budget_beyond_int32_exits_2(tmp_path, capsys, sub, section, field):
    """The orbit kernel counts steps in int32: 2**31 exits 2 naming the field
    and writes nothing, 2**31 - 1 still resolves."""
    payload = json.loads((EXAMPLES / f"{sub}.json").read_text())
    payload.setdefault(section, {})[field] = 2**31
    out = tmp_path / "out"
    assert cli.main([sub, "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 2
    assert f"{section}.{field}" in capsys.readouterr().err
    assert not out.exists()
    payload[section][field] = 2**31 - 1
    assert cli.resolve_config(payload, sub, {})[section][field] == 2**31 - 1


def test_audit_cloud_off_segment_exits_3(tmp_path):
    """`segment: c` takes every cloud point to lie on [0, c]. For z exp(-z)
    the cloud runs from the critical value 1/e down to 0, so 0.01 is refused
    with exit 3 and no audit.csv; the example's segment 1/e is met exactly."""
    example = json.loads((EXAMPLES / "audit.json").read_text())
    payload = copy.deepcopy(example)
    payload["audit"]["segment"] = 0.01
    out = tmp_path / "short"
    assert cli.main(["audit", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["errors"][0].startswith("CloudOffSegment:")
    assert not (out / "audit.csv").exists()
    out = tmp_path / "example"
    assert cli.main(["audit", "--config", str(write_config(tmp_path, example)), "--out", str(out)]) == 0


def test_fatou_minus_auto_attractors_render(tmp_path):
    """'auto' keeps only the attracting points 2 pi i k inside the escape radius."""
    cfg = write_config(tmp_path, {"map": {"family": "fatou_minus"}, "resolution": [20, 20]})
    out = tmp_path / "fm"
    assert cli.main(["render", "--config", str(cfg), "--out", str(out)]) == 0


def test_render_end_to_end_and_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["render", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["render", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("grid.ppm", "grid.csv", "resolved_config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert set(summary) >= {"subcommand", "config_hash", "wall_time", "outputs", "errors"}
    assert summary["errors"] == []
    header = (out1 / "grid.ppm").read_bytes()[:15]
    assert header.startswith(b"P6\n80 80\n255\n")


def test_resolved_config_echoes_defaults(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "echo"
    assert cli.main(["render", "--config", str(cfg), "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["escape_radius"] == 50.0  # default filled in
    assert resolved["tolerances"]["orbit_tol"] == 1e-6
    assert "out_dir" not in resolved  # location is not a run parameter


def test_threads_change_neither_echo_nor_hash(tmp_path):
    """`threads` is no longer a field, so like any unknown key it is dropped."""
    cfg1 = write_config(tmp_path, BASE)
    cfg2 = write_config(tmp_path, {**BASE, "threads": 1}, name="threads.json")
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert cli.main(["render", "--config", str(cfg1), "--out", str(out1)]) == 0
    assert cli.main(["render", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert (out1 / "resolved_config.json").read_bytes() == (out2 / "resolved_config.json").read_bytes()
    h1 = json.loads((out1 / "summary.json").read_text())["config_hash"]
    h2 = json.loads((out2 / "summary.json").read_text())["config_hash"]
    assert h1 == h2


@pytest.mark.parametrize(
    "extra",
    [{"scan": {"kind": "nonsense"}}, {"notes": "not a field"}, {"budgets": {"junk": 1}},
     {"inner": {"blaschke": {"zeros": [[0.0, 0.0], [0.0, 0.0]]}, "bogus": [1, 2]}}],
    ids=["other_section", "unknown_key", "nested_unknown_key", "section_unknown_key"])
def test_other_sections_change_neither_echo_nor_hash(tmp_path, extra):
    """Only the fields the table names, at the top level and in the run's own
    section, are echoed and hashed; unknown keys at any depth are dropped."""
    inner = {"map": {"family": "z_exp"},
             "inner": {"blaschke": {"zeros": [[0.0, 0.0], [0.0, 0.0]]}}}
    plain = write_config(tmp_path, inner, "plain.json")
    padded = write_config(tmp_path, {**inner, **extra}, "padded.json")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["inner", "--config", str(plain), "--out", str(out1)]) == 0
    assert cli.main(["inner", "--config", str(padded), "--out", str(out2)]) == 0
    assert (out1 / "resolved_config.json").read_bytes() == (out2 / "resolved_config.json").read_bytes()
    h1 = json.loads((out1 / "summary.json").read_text())["config_hash"]
    h2 = json.loads((out2 / "summary.json").read_text())["config_hash"]
    assert h1 == h2


TOP_DEFAULTS = {
    "window": [-2.0, 4.0, -3.0, 3.0],
    "resolution": [200, 200],
    "budgets": {"orbit": 300, "pullback": 200, "walk": 100000},
    "escape_radius": 50.0,
    "tolerances": {"orbit_tol": 1e-6},
    "attractors": "auto",
    "rng_seed": 0,
}

# (minimal section, the defaults it must echo) per subcommand
SECTIONS = {
    "render": ({}, {}),
    "periodic": ({"seed_region": [2.0, 2.3, -0.1, 0.1]},
                 {"max_period": 4, "return_radius_cells": 5.0}),
    "access": ({"seed": [2.2, 0.0], "z0": [1.8, 0.0]}, {"steps": 60, "period": 1}),
    "audit": ({"fixed_point": [0.0, 6.28], "region": {}},
              {"region": {"center": [0.0, 0.0], "radius": 0.3, "count": 100},
               "cloud": {"depth": 20, "k_bound": 2, "escape_radius": 1e6},
               "period": 1, "length": 2, "segment": None}),
    "measure": ({"basepoint": [0.3, 0.0]},
                {"n_samples": 2000, "orbit_budget": 100, "walk_eps_cells": 2.5, "targets": [],
                 "calibration": {"samples": 10000, "resolution": 400}}),
    "inner": ({"blaschke": {"zeros": [[0.0, 0.0], [0.0, 0.0]]}},
              {"periods": [1, 2, 3], "samples": 10000}),
    "scan": ({"kind": "escaping", "probes": [[2.0, 0.0]], "point": [2.2, 0.0]},
             {"period": 1, "budget": 60}),
}


@pytest.mark.parametrize("sub", cli.SUBCOMMANDS)
def test_minimal_config_echoes_every_default(sub):
    minimal, defaults = SECTIONS[sub]
    raw = {"map": {"family": "exp_lambda", "lambda": 0.25}, sub: minimal}
    cfg = cli.resolve_config(raw, sub, {})
    assert {k: cfg[k] for k in TOP_DEFAULTS} == TOP_DEFAULTS
    assert cfg[sub] == {**minimal, **defaults}


def test_spelled_out_defaults_hash_like_omitted(tmp_path):
    """inner without periods runs periods 1, 2, 3 and hashes like a config naming them."""
    inner = {"blaschke": {"rotation": [1.0, 0.0], "zeros": [[0.0, 0.0], [0.0, 0.0]]}}
    omitted = write_config(tmp_path, {**BASE, "inner": inner}, "omitted.json")
    spelled = write_config(
        tmp_path, {**BASE, "inner": {**inner, "periods": [1, 2, 3], "samples": 10000}}, "spelled.json"
    )
    out1, out2 = tmp_path / "i1", tmp_path / "i2"
    assert cli.main(["inner", "--config", str(omitted), "--out", str(out1)]) == 0
    assert cli.main(["inner", "--config", str(spelled), "--out", str(out2)]) == 0
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["periodic_counts"] == {"1": 1, "2": 3, "3": 7}
    assert s1["config_hash"] == s2["config_hash"]
    assert (out1 / "resolved_config.json").read_bytes() == (out2 / "resolved_config.json").read_bytes()


def test_periodic_subcommand(tmp_path):
    payload = {**BASE, "resolution": [150, 150], "budgets": {"orbit": 250, "pullback": 150, "walk": 1},
               "periodic": {"seed_region": [2.0, 2.3, -0.1, 0.1], "max_period": 1}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "per"
    assert cli.main(["periodic", "--config", str(cfg), "--out", str(out)]) == 0
    pt = json.loads((out / "points.json").read_text())
    assert abs(pt["point"][0] - 2.15329) < 1e-4
    assert pt["period"] == 1 and pt["repelling"]


def test_numerical_failure_exits_3(tmp_path):
    payload = {**BASE, "periodic": {"seed_region": [-1.9, -1.5, -2.9, -2.5], "max_period": 1}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "fail3"
    assert cli.main(["periodic", "--config", str(cfg), "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["errors"] and "NoReturnWithinBudget" in summary["errors"][0]


EXP_QUARTER = {"family": "exp_lambda", "lambda": 0.25}


@pytest.mark.parametrize(
    "sub, payload, error",
    [
        ("measure", {"map": EXP_QUARTER, "resolution": [60, 60],
                     "measure": {"basepoint": [3.5, 0.0], "n_samples": 100,
                                 "calibration": {"samples": 2000, "resolution": 200}}},
         "NotFatouClassified"),
        ("audit", {"map": EXP_QUARTER,
                   "audit": {"fixed_point": [2.2, 0.0], "cloud": {"depth": 0},
                             "region": {"center": [2.15, 0.5], "radius": 0.1, "count": 4}}},
         "DegeneratePointSet"),
        ("audit", {"map": {"family": "z_exp"},
                   "audit": {"fixed_point": [0.0, 2 * np.pi], "cloud": {"escape_radius": 1e-9},
                             "region": {"center": [0.0, 2 * np.pi], "count": 4}}},
         "DegeneratePointSet"),
        ("inner", {"map": {"family": "z_exp"},
                   "inner": {"blaschke": {"zeros": [[0.0, 0.0], [0.0, 0.0]]}, "periods": [19]}},
         "LiftGridExhausted"),
        ("inner", {"map": {"family": "z_exp"},
                   "inner": {"blaschke": {"zeros": [[0.0, 0.0], [0.0, 0.0]]}, "periods": [1000000]}},
         "LiftGridExhausted"),
    ],
    ids=["basepoint_not_fatou", "cloud_of_one_point", "cloud_of_one_repeated_point",
         "lift_grid_exhausted", "period_past_every_lift_grid"],
)
def test_numerical_failures_are_package_errors(tmp_path, sub, payload, error):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "fail3"
    assert cli.main([sub, "--config", str(cfg), "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["errors"][0].startswith(f"{error}: ")


def test_run_lets_errors_from_outside_the_package_propagate(tmp_path, monkeypatch):
    """Exit 3 reports a package error; any other exception is a bug and is not caught."""
    def broken(cfg, out):
        raise ValueError("not a numerical failure")

    monkeypatch.setitem(cli._RUNNERS, "render", broken)
    cfg = cli.resolve_config(BASE, "render", {"out_dir": str(tmp_path / "out")})
    with pytest.raises(ValueError, match="not a numerical failure"):
        cli.run("render", cfg)


def test_access_and_audit_follow_a_period_two_cycle(tmp_path):
    access = {"map": EXP_QUARTER, "window": [-2.0, 4.0, -8.0, 8.0], "resolution": [300, 300],
              "access": {"seed": [2.5, 6.0], "period": 2, "z0": [0.5, 0.0], "steps": 3}}
    cfg = write_config(tmp_path, access, "access.json")
    out = tmp_path / "access"
    assert cli.main(["access", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["point"]["period"] == 2
    assert summary["point"]["point"] == pytest.approx([2.6550370741242513, 6.624256148158474],
                                                      abs=1e-12)
    assert 0.0 < summary["final_gap"] < 2e-4

    audit = {"map": EXP_QUARTER,
             "audit": {"fixed_point": [2.5, 6.0], "period": 2,
                       "region": {"center": [2.6, 6.6], "radius": 0.1, "count": 10}}}
    cfg = write_config(tmp_path, audit, "audit.json")
    out = tmp_path / "audit"
    assert cli.main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["points"] == 10
    assert summary["certified_violations"] == 0


def test_calibration_failure_exits_4(tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli, "calibrate_disk",
        lambda **kw: CalibrationResult(chi2_p=0.0, ks_stat=1.0, passed=False, samples=0),
    )
    payload = {**BASE, "measure": {"basepoint": [0.3574, 0.0], "n_samples": 100, "orbit_budget": 20}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "fail4"
    assert cli.main(["measure", "--config", str(cfg), "--out", str(out)]) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert "disk oracle failed" in summary["errors"][0]


def test_coarsest_calibration_fails_its_test(tmp_path):
    """At 3 cells a side the disk grid has a boundary raster, so the walks hit
    it and the too coarse calibration fails its test (exit 4), not a walk."""
    payload = {**BASE, "measure": {"basepoint": [0.3, 0.0],
                                   "calibration": {"samples": 200, "resolution": 3}}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "coarse"
    assert cli.main(["measure", "--config", str(cfg), "--out", str(out)]) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert "disk oracle failed" in summary["errors"][0]


def test_scan_subcommand(tmp_path):
    payload = {
        "map": {"family": "z_exp"},
        "scan": {"kind": "parabolic", "probes": [[-0.5, 0.0], [0.0, 0.0], [0.2, 0.0]], "budget": 2000},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "scan"
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    result = json.loads((out / "points.json").read_text())
    assert result["escaping"] == [[-0.5, 0.0]]
    assert result["interior_controls"] == [[0.2, 0.0]]
    assert result["fixed"] == [[0.0, 0.0]]


def test_inner_subcommand(tmp_path):
    payload = {
        "map": {"family": "z_exp"},
        "inner": {
            "blaschke": {"rotation": [1.0, 0.0], "zeros": [[0.0, 0.0], [0.0, 0.0]]},
            "candidate": {"num": [3, 0, 1], "den": [1, 0, 3]},
            "periods": [1, 2, 3],
        },
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "inner"
    assert cli.main(["inner", "--config", str(cfg), "--out", str(out)]) == 0
    result = json.loads((out / "points.json").read_text())
    assert result["periodic_counts"] == {"1": 1, "2": 3, "3": 7}
    assert result["candidate"]["circle_preserving"] is True
    assert result["candidate"]["maps_disk_in"] is False
    assert result["candidate"]["notes"]  # the g(0) = 3 anomaly is flagged
    rows = (out / "periodic_points.csv").read_text().strip().splitlines()
    assert rows[0] == "n,j,theta,residual"
    assert len(rows) == 1 + 1 + 3 + 7


@pytest.mark.parametrize(
    "zeros, modulus",
    [
        ([[-0.5, 0.0], [-0.5, 0.0]], 2 / 3),  # ((z + 1/2)/(1 + z/2))^2
        ([[0.0, 3 ** -0.5], [0.0, -(3 ** -0.5)]], 1.0),  # (3z^2 + 1)/(3 + z^2), parabolic
    ],
    ids=["half_squared", "parabolic_3"],
)
# the circle map of ((z + 1/2)/(1 + z/2))^2 contracts at 1, so a branch has several roots
@pytest.mark.filterwarnings("ignore::fatoulab.errors.LiftNotExpandingWarning")
def test_inner_boundary_denjoy_wolff_point(tmp_path, zeros, modulus):
    payload = {"map": {"family": "z_exp"}, "inner": {"blaschke": {"zeros": zeros}, "periods": [1]}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "inner"
    assert cli.main(["inner", "--config", str(cfg), "--out", str(out)]) == 0
    dw = json.loads((out / "points.json").read_text())["denjoy_wolff"]
    assert dw["location"] == "boundary"
    assert dw["point"] == [1.0, 0.0]
    assert abs(dw["derivative_modulus"] - modulus) < 1e-12


def test_render_strips_lists_three_major_components(tmp_path):
    three_pi = 3 * np.pi
    payload = {
        "map": {"family": "z_plus_exp"},
        "window": [-2.0, 10.0, -three_pi, three_pi],
        "resolution": [300, 300],
        "budgets": {"orbit": 400, "pullback": 100, "walk": 1},
        "rng_seed": 7,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "strips"
    assert cli.main(["render", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["major_components"] == 3


def test_seed_override_changes_hash(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["render", "--config", str(cfg), "--out", str(out1), "--seed", "1"]) == 0
    assert cli.main(["render", "--config", str(cfg), "--out", str(out2), "--seed", "2"]) == 0
    h1 = json.loads((out1 / "summary.json").read_text())["config_hash"]
    h2 = json.loads((out2 / "summary.json").read_text())["config_hash"]
    assert h1 != h2


def test_measure_without_targets_writes_null(tmp_path):
    """Without targets there is no dense-orbit statistic: measure.json holds
    null, and conftest's check parses the file as standard JSON."""
    example = json.loads((EXAMPLES / "measure.json").read_text())
    del example["measure"]["targets"]
    cfg = write_config(tmp_path, example)
    out = tmp_path / "out"
    assert cli.main(["measure", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "measure.json").read_text())["dense_orbit_stat"] is None


def test_rng_seed_outside_uint64_exits_2_before_writing(tmp_path, capsys):
    """The seed is a uint64 Philox key word: 2**64 exits 2 naming rng_seed,
    from the config and from --seed, and 2**64 - 1 still resolves."""
    example = json.loads((Path(__file__).resolve().parents[1] / "examples" / "measure.json").read_text())
    for payload, flags in (({**example, "rng_seed": 2**64}, []), (example, ["--seed", str(2**64)])):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["measure", "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert "rng_seed" in capsys.readouterr().err
        assert not out.exists()
    top = cli.resolve_config({**example, "rng_seed": 2**64 - 1}, "measure", {})
    assert top["rng_seed"] == 2**64 - 1


def _fresh_python(*args):
    """Run `python *args` in a fresh interpreter on this checkout's package."""
    src = str(Path(fatoulab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )


def _python_m_fatoulab(*args):
    return _fresh_python("-m", "fatoulab", *args)


def test_python_m_fatoulab_entry_point(tmp_path):
    cfg = write_config(tmp_path, {**BASE, "resolution": [20, 20]})
    out = tmp_path / "render"
    proc = _python_m_fatoulab("render", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "grid.csv", "grid.ppm", "resolved_config.json", "summary.json"
    ]

    bad = write_config(tmp_path, {**BASE, "escape_radius": "big"}, "bad.json")
    out = tmp_path / "bad"
    proc = _python_m_fatoulab("render", "--config", str(bad), "--out", str(out))
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert not out.exists()


# Runs the CLI with every import of SciPy failing; prints the exit code (null
# when only importing).
_NO_SCIPY_PROBE = """
import json, sys
sys.modules["scipy"] = None
import fatoulab.cli as cli
print(json.dumps(cli.main(sys.argv[1:]) if sys.argv[1:] else None))
"""


def _exit_code_without_scipy(*argv):
    proc = _fresh_python("-c", _NO_SCIPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_examples_run_without_scipy(tmp_path):
    """numpy is the only runtime dependency: with every SciPy import failing,
    the CLI imports, and each of the seven examples and a `render` of `z_exp`
    exit 0."""
    assert _exit_code_without_scipy() is None
    zexp = write_config(tmp_path, {**BASE, "map": {"family": "z_exp"}, "resolution": [20, 20]}, "z.json")
    assert _exit_code_without_scipy("render", "--config", str(zexp), "--out", str(tmp_path / "z")) == 0
    for sub in cli.SUBCOMMANDS:
        argv = (sub, "--config", str(EXAMPLES / f"{sub}.json"), "--out", str(tmp_path / sub))
        assert _exit_code_without_scipy(*argv) == 0, sub


_BENCH_TRACER = EXAMPLES.parent / "bench" / "tracer.py"


def test_bench_tracer_wraps_resolve():
    """Every (module, attribute) that the benchmark's tracer wraps exists once
    `fatoulab.cli` is imported, so renaming a traced function fails here too.
    The tracer's WRAPS table is read from its source, not imported."""
    tree = ast.parse(_BENCH_TRACER.read_text())
    wraps = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "WRAPS")
    pairs = sorted({(module, attr) for module, attr, *_ in wraps})
    check = (
        "import json, sys\n"
        "import fatoulab.cli\n"
        "pairs = json.loads(sys.argv[1])\n"
        "print(json.dumps([p for p in pairs if not hasattr(sys.modules.get(p[0]), p[1])]))\n"
    )
    proc = _fresh_python("-c", check, json.dumps(pairs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    assert len(pairs) > 20


# One config per subcommand that gives every field of SCHEMA a value of the
# JSON type it takes; `audit` holds both an orbit and a fixed point, so that
# each of the two is typed (the pair passes the table, not the audit rule).
_TOP = {
    "map": {"family": "exp_lambda", "lambda": 0.25},
    "window": [-2.0, 4.0, -3.0, 3.0],
    "resolution": [20, 20],
    "budgets": {"orbit": 50, "pullback": 50, "walk": 1000},
    "escape_radius": 50.0,
    "tolerances": {"orbit_tol": 1e-6},
    "attractors": "auto",
    "rng_seed": 0,
    "out_dir": "out",
}
_SECTIONS = {
    "render": {},
    "periodic": {"seed_region": [2.0, 2.3, -0.1, 0.1], "max_period": 2, "return_radius_cells": 5.0},
    "access": {"seed": [2.15, 0.0], "z0": [1.8, 0.0], "steps": 5, "period": 1},
    "audit": {"region": {"center": [2.15, 0.0], "radius": 0.3, "count": 8},
              "cloud": {"depth": 5, "k_bound": 1, "escape_radius": 1e6},
              "orbit": [[2.15, 0.0]], "fixed_point": [2.15, 0.0], "period": 1, "length": 2,
              "segment": 0.5},
    "measure": {"basepoint": [0.3, 0.0], "n_samples": 100, "orbit_budget": 50,
                "walk_eps_cells": 2.5, "targets": [[0.36, 0.0]],
                "calibration": {"samples": 100, "resolution": 40}},
    "inner": {"blaschke": {"rotation": [1.0, 0.0], "zeros": [[0.0, 0.0], [0.0, 0.0]]},
              "candidate": {"num": [3, 0, 1], "den": [1, 0, 3]}, "periods": [1], "samples": 100},
    "scan": {"kind": "escaping", "probes": [[2.0, 0.0]], "point": [2.15, 0.0], "period": 1,
             "budget": 10},
}
# Fields that take more than the JSON type of the value above.
_ALSO_TAKES = {"attractors": {"list"}, "audit.segment": {"null"}}


def _json_type(v) -> str:
    if isinstance(v, bool):
        return "bool"
    return {type(None): "null", int: "int", float: "float", str: "str",
            list: "list", dict: "object"}[type(v)]


def _typed_config(key: str) -> tuple[str, dict]:
    """The subcommand whose run checks `key`, and its fully typed config."""
    head = key.partition(".")[0]
    sub = head if head in cli.SUBCOMMANDS else "render"
    return sub, {**copy.deepcopy(_TOP), sub: copy.deepcopy(_SECTIONS[sub])}


def _field(cfg: dict, key: str):
    *parents, name = key.split(".")
    for p in parents:
        cfg = cfg[p]
    return cfg, name


def _accepted_types(key: str) -> set[str]:
    holder, name = _field(_typed_config(key)[1], key)
    kind = _json_type(holder[name])
    return ({kind, "int"} if kind == "float" else {kind}) | _ALSO_TAKES.get(key, set())


def test_typed_configs_name_every_schema_field():
    for key in cli.SCHEMA:
        holder, name = _field(_typed_config(key)[1], key)
        assert name in holder, key
    for sub in cli.SUBCOMMANDS:
        cfg = _typed_config(sub)[1]
        cfg[sub].pop("orbit", None)
        cli.resolve_config(cfg, sub, {})


_SCALAR = st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.text(max_size=6)
_OF_TYPE = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-10**6, 10**6),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=6),
    "list": st.lists(_SCALAR, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), _SCALAR, max_size=3),
}
# A field, then a JSON type it does not take, then a value of that type.
_WRONG_TYPE = st.sampled_from(list(cli.SCHEMA)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(
        sorted(set(_OF_TYPE) - _accepted_types(key))).flatmap(_OF_TYPE.get))
)


@settings(max_examples=150, deadline=None)
@given(case=_WRONG_TYPE)
def test_wrong_json_type_in_any_field_exits_2_and_writes_nothing(case):
    key, value = case
    sub, cfg = _typed_config(key)
    holder, name = _field(cfg, key)
    holder[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        if key != "out_dir":
            cfg["out_dir"] = str(Path(tmp) / "out")
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([sub, "--config", str(path)])
        assert code == 2, (key, value)
        assert stderr.getvalue().startswith(f"config error: {key}:"), stderr.getvalue()
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["cfg.json"]
