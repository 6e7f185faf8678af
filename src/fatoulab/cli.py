"""Single command-line entry point: render, periodic, access, audit, measure, inner, scan.

Every run validates its JSON config up front (exit 2 on any schema problem,
with no partial outputs), echoes the resolved config with defaults filled
next to the outputs, and writes a machine-readable summary.json. Exit codes:
0 success, 2 config error, 3 numerical failure, 4 calibration failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import serialize
from .blaschke import (
    BlaschkeProduct,
    RationalCircleMap,
    circle_periodic_points,
    denjoy_wolff,
    verify_inner_candidate,
)
from .boundary import (
    access_curve,
    escaping_component_scan,
    find_periodic_boundary_point,
    newton_periodic,
    parabolic_boundary_scan,
)
from .branches import pullback_chain
from .catalog import EntireMap, postsingular_sample
from .errors import CalibrationFailure, ConfigError, FatouLabError
from .grid import classify_grid, label_components
from .hyperbolic import contraction_audit
from .measure import calibrate_disk, measure_report
from .orbits import default_attractors, parabolic_points

SUBCOMMANDS = ("render", "periodic", "access", "audit", "measure", "inner", "scan")

_DEFAULTS = {
    "window": [-2.0, 4.0, -3.0, 3.0],
    "resolution": [200, 200],
    "budgets": {"orbit": 300, "pullback": 200, "walk": 100000},
    "escape_radius": 50.0,
    "tolerances": {"orbit_tol": 1e-6},
    "attractors": "auto",
    "rng_seed": 0,
    "threads": max(1, os.cpu_count() or 1),
    "out_dir": "out",
}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_pair(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(_is_real(x) for x in v)


def _require_int(section: dict, key: str, default: int, minimum: int, where: str) -> None:
    v = section.get(key, default)
    _require(
        isinstance(v, int) and not isinstance(v, bool) and v >= minimum,
        f"{where}.{key} must be an integer >= {minimum}",
    )


def _require_positive(section: dict, key: str, default: float, where: str) -> None:
    v = section.get(key, default)
    _require(_is_real(v) and v > 0, f"{where}.{key} must be a positive number")


def _as_complex(v, name: str) -> complex:
    _require(_is_pair(v), f"{name} must be a [re, im] pair")
    return complex(v[0], v[1])


def _validate_section(subcommand: str, section: dict, m: EntireMap) -> None:
    """Eager per-subcommand schema checks, so config problems never write outputs."""
    if subcommand == "periodic":
        region = section.get("seed_region")
        _require(
            isinstance(region, list) and len(region) == 4 and all(_is_real(x) for x in region),
            "periodic.seed_region must be [re_min, re_max, im_min, im_max]",
        )
        _require_int(section, "max_period", 4, 1, "periodic")
        _require_positive(section, "return_radius_cells", 5.0, "periodic")
    elif subcommand == "access":
        _require(_is_pair(section.get("seed")), "access.seed must be a [re, im] pair")
        _require(_is_pair(section.get("z0")), "access.z0 must be a [re, im] pair")
        _require_int(section, "steps", 60, 0, "access")
        _require_int(section, "period", 1, 1, "access")
    elif subcommand == "audit":
        reg = section.get("region")
        _require(isinstance(reg, dict), "audit.region is required")
        _require(_is_pair(reg.get("center", [0.0, 0.0])), "audit.region.center must be [re, im]")
        _require_positive(reg, "radius", 0.3, "audit.region")
        _require_int(reg, "count", 100, 1, "audit.region")
        cloud = section.get("cloud", {})
        _require(isinstance(cloud, dict), "audit.cloud must be an object")
        _require_int(cloud, "depth", 20, 0, "audit.cloud")
        _require_int(cloud, "k_bound", 2, 0, "audit.cloud")
        _require_positive(cloud, "escape_radius", 1e6, "audit.cloud")
        if "orbit" in section:
            orbit = section["orbit"]
            _require(
                isinstance(orbit, list) and len(orbit) >= 1 and all(_is_pair(v) for v in orbit),
                "audit.orbit must be a nonempty list of [re, im] pairs",
            )
        else:
            _require(_is_pair(section.get("fixed_point")), "audit needs a fixed_point or an orbit")
            _require_int(section, "period", 1, 1, "audit")
            _require_int(section, "length", 2, 1, "audit")
        seg = section.get("segment")
        _require(seg is None or (_is_real(seg) and seg > 0),
                 "audit.segment must be a positive number or null")
    elif subcommand == "measure":
        _require(_is_pair(section.get("basepoint")), "measure.basepoint must be [re, im]")
        _require_int(section, "n_samples", 2000, 100, "measure")
        _require_int(section, "orbit_budget", 100, 1, "measure")
        eps_cells = section.get("walk_eps_cells", 2.5)
        _require(_is_real(eps_cells) and eps_cells >= 2.0,
                 "measure.walk_eps_cells must be >= 2 grid cells")
        targets = section.get("targets", [])
        _require(isinstance(targets, list) and all(_is_pair(t) for t in targets),
                 "measure.targets must be [re, im] pairs")
        cal = section.get("calibration", {})
        _require(isinstance(cal, dict), "measure.calibration must be an object")
        _require_int(cal, "samples", 10000, 1, "measure.calibration")
        _require_int(cal, "resolution", 400, 2, "measure.calibration")
    elif subcommand == "inner":
        _require("blaschke" in section or "candidate" in section,
                 "inner needs a 'blaschke' and/or 'candidate' entry")
        if "candidate" in section:
            cand = section["candidate"]
            _require(
                isinstance(cand, dict)
                and isinstance(cand.get("num"), list) and isinstance(cand.get("den"), list),
                "inner.candidate needs 'num' and 'den' coefficient lists",
            )
        _require(all(isinstance(n, int) and n >= 1 for n in section.get("periods", [1])),
                 "inner.periods must be integers >= 1")
        _require_int(section, "samples", 10000, 1, "inner")
    elif subcommand == "scan":
        _require(section.get("kind") in ("escaping", "parabolic"),
                 "scan.kind must be 'escaping' or 'parabolic'")
        probes = section.get("probes", [])
        _require(isinstance(probes, list) and len(probes) > 0 and all(_is_pair(v) for v in probes),
                 "scan.probes must be a nonempty list of [re, im] pairs")
        if section.get("kind") == "escaping":
            _require(_is_pair(section.get("point")), "scan.point (a periodic seed) is required")
            _require_int(section, "period", 1, 1, "scan")
        else:
            _require(bool(parabolic_points(m)),
                     f"scan.kind 'parabolic' needs a parabolic map; {m.family} has none")
        _require_int(section, "budget", 60, 1, "scan")


def resolve_config(raw: dict, subcommand: str, overrides: dict) -> dict:
    _require(isinstance(raw, dict), "config root must be a JSON object")
    cfg = copy.deepcopy(_DEFAULTS)
    for k, v in raw.items():
        if isinstance(v, dict) and isinstance(cfg.get(k), dict):
            cfg[k].update(v)
        else:
            cfg[k] = copy.deepcopy(v)
    for k, v in overrides.items():
        if v is not None:
            cfg[k] = v

    _require("map" in cfg, "config must declare a map")
    try:
        m = EntireMap.from_json(cfg["map"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad map descriptor: {exc}") from exc
    w = cfg["window"]
    _require(
        isinstance(w, (list, tuple)) and len(w) == 4
        and all(isinstance(x, (int, float)) for x in w)
        and w[0] < w[1] and w[2] < w[3],
        "window must be [re_min, re_max, im_min, im_max] with min < max",
    )
    r = cfg["resolution"]
    _require(
        isinstance(r, (list, tuple)) and len(r) == 2
        and all(isinstance(x, int) and x >= 2 for x in r),
        "resolution must be two integers >= 2",
    )
    _require(isinstance(cfg["rng_seed"], int), "rng_seed must be an integer")
    _require(isinstance(cfg["threads"], int) and cfg["threads"] >= 1, "threads must be >= 1")
    _require(_is_real(cfg["escape_radius"]) and cfg["escape_radius"] > 0,
             "escape_radius must be a positive number")
    _require(isinstance(cfg["tolerances"], dict), "tolerances must be an object")
    _require_positive(cfg["tolerances"], "orbit_tol", 1e-6, "tolerances")
    b = cfg["budgets"]
    _require(isinstance(b, dict), "budgets must be an object")
    for key in ("orbit", "pullback", "walk"):
        _require(isinstance(b.get(key), int) and b[key] >= 1, f"budgets.{key} must be >= 1")
    att = cfg["attractors"]
    if att != "auto":
        _require(
            isinstance(att, list)
            and all(isinstance(a, (list, tuple)) and len(a) == 3 for a in att),
            "attractors must be 'auto' or a list of [re, im, period]",
        )
    _require(subcommand in SUBCOMMANDS, f"unknown subcommand {subcommand}")
    section = cfg.get(subcommand, {})
    _require(isinstance(section, dict), f"section {subcommand!r} must be an object")
    cfg[subcommand] = section
    _validate_section(subcommand, section, m)
    return cfg


def _map_of(cfg: dict) -> EntireMap:
    return EntireMap.from_json(cfg["map"])


def _attractors_of(cfg: dict, m: EntireMap):
    if cfg["attractors"] == "auto":
        return default_attractors(m, escape_radius=cfg["escape_radius"])
    return tuple((complex(a[0], a[1]), int(a[2])) for a in cfg["attractors"])


def _build_grid(cfg: dict, m: EntireMap):
    grid = classify_grid(
        m,
        tuple(cfg["window"]),
        tuple(cfg["resolution"]),
        cfg["budgets"]["orbit"],
        escape_radius=cfg["escape_radius"],
        attractors=_attractors_of(cfg, m),
        tol=cfg["tolerances"]["orbit_tol"],
        threads=cfg["threads"],
    )
    return label_components(grid)


# ---------------------------------------------------------------------------
# Subcommand runners: each returns (summary_extras, {filename: writer})
# ---------------------------------------------------------------------------


def _run_render(cfg: dict, out: Path) -> dict:
    m = _map_of(cfg)
    grid = _build_grid(cfg, m)
    serialize.grid_to_ppm(grid, out / "grid.ppm")
    serialize.grid_to_csv(grid, out / "grid.csv")
    labels, counts = np.unique(grid.labels[grid.labels > 0], return_counts=True)
    major = counts >= 0.01 * grid.nx * grid.ny
    return {
        "components": int(labels.size),
        "major_components": int(major.sum()),
        "major_labels": [int(l) for l in labels[major]],
        "cells_by_kind": {
            name.lower(): int((grid.kinds == kind).sum())
            for name, kind in (("undecided", 0), ("escaping", 1), ("attracting", 2), ("parabolic", 3))
        },
        "outputs": ["grid.ppm", "grid.csv"],
    }


def _run_periodic(cfg: dict, out: Path) -> dict:
    m = _map_of(cfg)
    section = cfg["periodic"]
    _require("seed_region" in section, "periodic.seed_region is required")
    region = section["seed_region"]
    _require(isinstance(region, list) and len(region) == 4, "seed_region must have 4 numbers")
    grid = _build_grid(cfg, m)
    point = find_periodic_boundary_point(
        m,
        grid,
        tuple(region),
        max_period=int(section.get("max_period", 4)),
        pullback_budget=cfg["budgets"]["pullback"],
        return_radius_cells=float(section.get("return_radius_cells", 5.0)),
        rng_seed=cfg["rng_seed"],
    )
    serialize.write_json(point.to_json(), out / "points.json")
    return {"point": point.to_json(), "outputs": ["points.json"]}


def _run_access(cfg: dict, out: Path) -> dict:
    m = _map_of(cfg)
    section = cfg["access"]
    for key in ("seed", "z0"):
        _require(key in section, f"access.{key} is required")
    grid = _build_grid(cfg, m)
    point = newton_periodic(
        m, _as_complex(section["seed"], "access.seed"), int(section.get("period", 1)), grid=grid
    )
    curve = access_curve(
        m,
        point,
        _as_complex(section["z0"], "access.z0"),
        int(section.get("steps", 60)),
        grid,
    )
    serialize.curve_to_csv(curve, out / "curve.csv")
    serialize.write_json(point.to_json(), out / "points.json")
    return {
        "point": point.to_json(),
        "final_gap": curve.final_gap(),
        "vertices": len(curve.vertices),
        "outputs": ["curve.csv", "points.json"],
    }


def _run_audit(cfg: dict, out: Path) -> dict:
    m = _map_of(cfg)
    section = cfg["audit"]
    _require("region" in section, "audit.region is required")
    reg = section["region"]
    center = _as_complex(reg.get("center", [0.0, 0.0]), "audit.region.center")
    radius = float(reg.get("radius", 0.3))
    count = int(reg.get("count", 100))
    region = [center + radius * np.exp(2j * np.pi * j / count) for j in range(count)]

    if "orbit" in section:
        orbit = [_as_complex(v, "audit.orbit[]") for v in section["orbit"]]
    else:
        _require("fixed_point" in section, "audit needs a fixed_point or an orbit")
        p = newton_periodic(
            m, _as_complex(section["fixed_point"], "audit.fixed_point"),
            int(section.get("period", 1)),
        )
        length = int(section.get("length", 2))
        orbit = [p.point] * (length * p.period + 1)
    chain = pullback_chain(m, orbit)

    cloud_cfg = section.get("cloud", {})
    cloud = postsingular_sample(
        m,
        int(cloud_cfg.get("depth", 20)),
        escape_radius=float(cloud_cfg.get("escape_radius", 1e6)),
        k_bound=int(cloud_cfg.get("k_bound", 2)),
    )
    segment = section.get("segment")
    audit = contraction_audit(
        m, chain, region, cloud.points(), segment=None if segment is None else float(segment)
    )
    serialize.audit_to_csv(audit, out / "audit.csv")
    return {
        "certified_violations": len(audit.certified_violations),
        "conclusive_fraction": audit.conclusive_fraction,
        "points": len(audit.rows),
        "outputs": ["audit.csv"],
    }


def _run_measure(cfg: dict, out: Path) -> dict:
    m = _map_of(cfg)
    section = cfg["measure"]
    _require("basepoint" in section, "measure.basepoint is required")
    cal_cfg = section.get("calibration", {})
    cal = calibrate_disk(
        rng_seed=cfg["rng_seed"],
        samples=int(cal_cfg.get("samples", 10000)),
        resolution=int(cal_cfg.get("resolution", 400)),
    )
    if not cal.passed:
        raise CalibrationFailure(
            f"disk oracle failed: chi2 p = {cal.chi2_p:.4g}, KS = {cal.ks_stat:.4g}"
        )
    grid = _build_grid(cfg, m)
    walk_eps = float(section.get("walk_eps_cells", 2.5)) * max(grid.cell_size)
    report = measure_report(
        m,
        grid,
        _as_complex(section["basepoint"], "measure.basepoint"),
        int(section.get("n_samples", 2000)),
        walk_eps,
        int(section.get("orbit_budget", 100)),
        targets=tuple(_as_complex(t, "measure.targets[]") for t in section.get("targets", [])),
        rng_seed=cfg["rng_seed"],
        walk_budget=cfg["budgets"]["walk"],
    )
    payload = report.to_json()
    payload["calibration"] = {"chi2_p": cal.chi2_p, "ks_stat": cal.ks_stat}
    serialize.write_json(payload, out / "measure.json")
    serialize.hits_to_csv(report, out / "hits.csv")
    return {
        "fractions": report.fractions,
        "left_window": report.left_window,
        "outputs": ["measure.json", "hits.csv"],
    }


def _run_inner(cfg: dict, out: Path) -> dict:
    section = cfg["inner"]
    results: dict = {}
    outputs: list[str] = []
    if "blaschke" in section:
        b = BlaschkeProduct.from_json(section["blaschke"])
        dw = denjoy_wolff(b)
        results["denjoy_wolff"] = {
            "point": [dw.point.real, dw.point.imag],
            "location": dw.location,
            "derivative_modulus": dw.derivative_modulus,
        }
        rows = []
        counts = {}
        for n in section.get("periods", [1, 2, 3]):
            pts = circle_periodic_points(b, int(n))
            counts[str(n)] = len(pts)
            rows.append((int(n), pts))
        results["periodic_counts"] = counts
        serialize.periodic_points_to_csv(rows, out / "periodic_points.csv")
        outputs.append("periodic_points.csv")
    if "candidate" in section:
        cand = RationalCircleMap(
            tuple(complex(c) for c in section["candidate"]["num"]),
            tuple(complex(c) for c in section["candidate"]["den"]),
        )
        rep = verify_inner_candidate(cand, samples=int(section.get("samples", 10000)))
        results["candidate"] = {
            "circle_preserving": rep.circle_preserving,
            "maps_disk_in": rep.maps_disk_in,
            "max_circle_error": rep.max_circle_error,
            "boundary_fixed_points": [[p.real, p.imag] for p in rep.boundary_fixed_points],
            "notes": list(rep.notes),
        }
    _require(results, "inner section needs a 'blaschke' and/or 'candidate' entry")
    serialize.write_json(results, out / "points.json")
    outputs.append("points.json")
    return {**results, "outputs": outputs}


def _run_scan(cfg: dict, out: Path) -> dict:
    m = _map_of(cfg)
    section = cfg["scan"]
    kind = section.get("kind")
    _require(kind in ("escaping", "parabolic"), "scan.kind must be 'escaping' or 'parabolic'")
    probes = [_as_complex(v, "scan.probes[]") for v in section.get("probes", [])]
    _require(len(probes) > 0, "scan.probes must be nonempty")
    budget = int(section.get("budget", 60))
    if kind == "escaping":
        _require("point" in section, "scan.point (a periodic seed) is required")
        p = newton_periodic(m, _as_complex(section["point"], "scan.point"), int(section.get("period", 1)))
        rep = escaping_component_scan(m, p, probes, budget, cfg["escape_radius"])
        payload = {
            "escaping": [[e.probe.real, e.probe.imag] for e in rep.escaping],
            "non_escaping": [[e.probe.real, e.probe.imag] for e in rep.non_escaping],
            "exempt": [[z.real, z.imag] for z in rep.exempt],
        }
    else:
        rep = parabolic_boundary_scan(m, probes, budget, cfg["escape_radius"])
        payload = {
            "escaping": [[e.probe.real, e.probe.imag] for e in rep.escaping],
            "interior_controls": [[e.probe.real, e.probe.imag] for e in rep.interior_controls],
            "fixed": [[z.real, z.imag] for z in rep.fixed],
            "other": [[e.probe.real, e.probe.imag] for e in rep.other],
        }
    serialize.write_json(payload, out / "points.json")
    return {**payload, "outputs": ["points.json"]}


_RUNNERS = {
    "render": _run_render,
    "periodic": _run_periodic,
    "access": _run_access,
    "audit": _run_audit,
    "measure": _run_measure,
    "inner": _run_inner,
    "scan": _run_scan,
}


def run(subcommand: str, cfg: dict) -> int:
    """Execute one resolved config; returns the process exit code."""
    out = Path(cfg["out_dir"])
    started = time.monotonic()
    out.mkdir(parents=True, exist_ok=True)
    # out_dir is a location, not a run parameter: the echo and the hash skip it
    # so reruns into different directories stay byte-identical.
    echoed = {k: v for k, v in cfg.items() if k != "out_dir"}
    resolved = serialize.canonical_json(echoed)
    config_hash = hashlib.sha256(resolved.encode()).hexdigest()
    (out / "resolved_config.json").write_text(resolved + "\n")

    summary = {
        "subcommand": subcommand,
        "config_hash": config_hash,
        "wall_time": 0.0,
        "outputs": ["resolved_config.json"],
        "errors": [],
    }
    code = 0
    try:
        extras = _RUNNERS[subcommand](cfg, out)
        summary["outputs"] += extras.pop("outputs", [])
        summary.update(extras)
    except CalibrationFailure as exc:
        summary["errors"].append(str(exc))
        code = 4
    except ConfigError as exc:  # eager validation should make this unreachable
        summary["errors"].append(f"{type(exc).__name__}: {exc}")
        code = 2
    except (FatouLabError, ValueError) as exc:
        summary["errors"].append(f"{type(exc).__name__}: {exc}")
        code = 3
    summary["wall_time"] = time.monotonic() - started
    serialize.write_json(summary, out / "summary.json")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fatoulab", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument(
        "--threads", type=int, default=None, help="worker threads for grid classification"
    )
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="rng seed override")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    overrides = {"threads": args.threads, "out_dir": args.out, "rng_seed": args.seed}
    try:
        cfg = resolve_config(raw, args.subcommand, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(args.subcommand, cfg)


if __name__ == "__main__":
    sys.exit(main())
