"""Single command-line entry point: render, periodic, access, audit, measure, inner, scan.

Every run checks its JSON config up front against the field table SCHEMA
(exit 2 on any schema problem, with no partial outputs), echoes the resolved
config with every default filled next to the outputs, and writes a
machine-readable summary.json. Exit codes: 0 success, 2 config error,
3 numerical failure (a package error), 4 calibration failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
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
from .branches import ORBIT_TOL, chain_fixing, pullback_chain
from .catalog import EntireMap, postsingular_sample
from .errors import CalibrationFailure, ConfigError, FatouLabError, Overflow
from .grid import classify_grid, label_components
from .hyperbolic import contraction_audit
from .measure import calibrate_disk, measure_report
from .orbits import DEFAULT_ESCAPE_RADIUS, DEFAULT_TOL, Kind, default_attractors, parabolic_points

SUBCOMMANDS = ("render", "periodic", "access", "audit", "measure", "inner", "scan")

# Markers for a table field without a default: REQUIRED ones must be given,
# OPTIONAL ones may be absent and are then not echoed.
REQUIRED = object()
OPTIONAL = object()


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_real(v) -> bool:
    """A finite JSON number. json.loads reads NaN, Infinity and 1e400 (as inf),
    and integers past the float range; the comparison rejects them all
    without converting, so it cannot overflow."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_list(v, ok, length: int | None = None) -> bool:
    return isinstance(v, list) and length in (None, len(v)) and all(ok(x) for x in v)


def _is_pair(v) -> bool:
    return _is_list(v, _is_real, 2)


def _is_pairs(v) -> bool:
    return _is_list(v, _is_pair)


def _must(what: str, ok):
    """A checker that raises ValueError('must be <what>') for values failing `ok`."""
    def check(v) -> None:
        if not ok(v):
            raise ValueError(f"must be {what}")
    return check


def _int_at_least(n: int):
    return _must(f"an integer >= {n}", lambda v: _is_int(v) and v >= n)


def _blaschke(v) -> None:
    if not (isinstance(v, dict) and _is_pair(v.get("rotation", [1.0, 0.0]))
            and _is_pairs(v.get("zeros", []))):
        raise ValueError("must be an object with a [re, im] rotation and [re, im] zeros")
    BlaschkeProduct.from_json(v)  # raises for a zero outside the disk


_OBJECT = _must("an object", lambda v: isinstance(v, dict))
_POSITIVE = _must("a positive number", lambda v: _is_real(v) and v > 0)
_PAIR = _must("a [re, im] pair", _is_pair)
_PAIRS = _must("a list of [re, im] pairs", _is_pairs)
_NONEMPTY_PAIRS = _must("a nonempty list of [re, im] pairs", lambda v: _is_pairs(v) and len(v) > 0)
_RECTANGLE = _must(
    "[re_min, re_max, im_min, im_max] with min < max",
    lambda v: _is_list(v, _is_real, 4) and v[0] < v[1] and v[2] < v[3])
# The orbit kernel counts steps in int32.
_ORBIT_BUDGET = _must("an integer in [1, 2**31 - 1]", lambda v: _is_int(v) and 1 <= v < 2**31)

# The config schema: dotted key -> (default, checker). A checker raises
# ValueError or TypeError for a bad value. resolve_config walks the table in
# order, so an object comes before its fields. The first part of a key that
# names a subcommand marks its section, which is walked only for that run.
SCHEMA = {
    "map": (REQUIRED, EntireMap.from_json),
    "window": ([-2.0, 4.0, -3.0, 3.0], _RECTANGLE),
    "resolution": ([200, 200], _must(
        "two integers >= 2", lambda v: _is_list(v, lambda x: _is_int(x) and x >= 2, 2))),
    "budgets": ({}, _OBJECT),
    "budgets.orbit": (300, _ORBIT_BUDGET),
    "budgets.pullback": (200, _int_at_least(1)),
    "budgets.walk": (100000, _int_at_least(1)),
    "escape_radius": (DEFAULT_ESCAPE_RADIUS, _POSITIVE),
    "tolerances": ({}, _OBJECT),
    "tolerances.orbit_tol": (DEFAULT_TOL, _POSITIVE),
    "attractors": ("auto", _must(
        "'auto' or a list of [re, im, period]",
        lambda v: v == "auto" or _is_list(
            v, lambda a: _is_list(a, _is_real, 3) and _is_int(a[2]) and a[2] >= 1))),
    # The seed is a uint64 word of every Philox key (measure._philox_chunks).
    "rng_seed": (0, _must("an integer in [0, 2**64)", lambda v: _is_int(v) and 0 <= v < 2**64)),
    "out_dir": ("out", _must("a string", lambda v: isinstance(v, str))),
    "render": ({}, _OBJECT),
    "periodic": ({}, _OBJECT),
    "periodic.seed_region": (REQUIRED, _RECTANGLE),
    "periodic.max_period": (4, _int_at_least(1)),
    "periodic.return_radius_cells": (5.0, _POSITIVE),
    "access": ({}, _OBJECT),
    "access.seed": (REQUIRED, _PAIR),
    "access.z0": (REQUIRED, _PAIR),
    "access.steps": (60, _int_at_least(0)),
    "access.period": (1, _int_at_least(1)),
    "audit": ({}, _OBJECT),
    "audit.region": (REQUIRED, _OBJECT),
    "audit.region.center": ([0.0, 0.0], _PAIR),
    "audit.region.radius": (0.3, _POSITIVE),
    "audit.region.count": (100, _int_at_least(1)),
    "audit.cloud": ({}, _OBJECT),
    "audit.cloud.depth": (20, _int_at_least(0)),
    "audit.cloud.k_bound": (2, _int_at_least(0)),
    "audit.cloud.escape_radius": (1e6, _POSITIVE),
    "audit.orbit": (OPTIONAL, _NONEMPTY_PAIRS),
    "audit.fixed_point": (OPTIONAL, _PAIR),
    "audit.period": (1, _int_at_least(1)),
    "audit.length": (2, _int_at_least(1)),
    "audit.segment": (None, _must("a positive number or null",
                                  lambda v: v is None or _is_real(v) and v > 0)),
    "measure": ({}, _OBJECT),
    "measure.basepoint": (REQUIRED, _PAIR),
    "measure.n_samples": (2000, _int_at_least(100)),
    "measure.orbit_budget": (100, _ORBIT_BUDGET),
    "measure.walk_eps_cells": (2.5, _must("a number >= 2 (grid cells)",
                                          lambda v: _is_real(v) and v >= 2.0)),
    "measure.targets": ([], _PAIRS),
    "measure.calibration": ({}, _OBJECT),
    "measure.calibration.samples": (10000, _int_at_least(1)),
    # From 3 cells a side the corner cells of the disk grid lie outside the
    # unit disk, so the calibration disk has a boundary to hit.
    "measure.calibration.resolution": (400, _int_at_least(3)),
    "inner": ({}, _OBJECT),
    "inner.blaschke": (OPTIONAL, _blaschke),
    "inner.candidate": (OPTIONAL, _must(
        "an object with nonempty 'num' and 'den' lists of real coefficients",
        lambda v: isinstance(v, dict) and all(
            _is_list(v.get(k), _is_real) and len(v[k]) > 0 for k in ("num", "den")))),
    "inner.periods": ([1, 2, 3], _must(
        "a list of distinct integers >= 1",
        lambda v: _is_list(v, lambda n: _is_int(n) and n >= 1) and len(set(v)) == len(v))),
    "inner.samples": (10000, _int_at_least(1)),
    "scan": ({}, _OBJECT),
    "scan.kind": (REQUIRED, _must("'escaping' or 'parabolic'", lambda v: v in ("escaping", "parabolic"))),
    "scan.probes": (REQUIRED, _NONEMPTY_PAIRS),
    "scan.point": (OPTIONAL, _PAIR),
    "scan.period": (1, _int_at_least(1)),
    "scan.budget": (60, _ORBIT_BUDGET),
}

# Where a run happens, not what it computes: the echo and the hash skip it,
# so reruns into other directories stay byte-identical.
_EXECUTION = ("out_dir",)


def resolve_config(raw: dict, subcommand: str, overrides: dict) -> dict:
    """Check every field of the run and fill every default; ConfigError on the first bad one."""
    _require(isinstance(raw, dict), "config root must be a JSON object")
    _require(subcommand in SUBCOMMANDS, f"unknown subcommand {subcommand}")
    # The run, its echo and its hash see only the fields the table names: other
    # subcommands' sections and unknown keys, at any depth, are dropped. A
    # field that is not an object section (map, inner.blaschke, ...) is kept as given.
    given = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    cfg: dict = {}
    for key, (default, check) in SCHEMA.items():
        head = key.partition(".")[0]
        if head in SUBCOMMANDS and head != subcommand:
            continue
        *parents, name = key.split(".")
        source, holder = given, cfg
        for p in parents:
            source, holder = source.get(p, {}), holder[p]
        if name not in source:
            _require(default is not REQUIRED, f"{key} is required")
            if default is not OPTIONAL:
                holder[name] = copy.deepcopy(default)
            continue
        try:
            check(source[name])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        holder[name] = {} if check is _OBJECT else copy.deepcopy(source[name])

    if cfg["attractors"] != "auto":
        _require(all(abs(_as_complex(a)) < cfg["escape_radius"] for a in cfg["attractors"]),
                 "attractors: every modulus must be below escape_radius")
    section = cfg[subcommand]
    if subcommand == "audit":
        _require(("orbit" in section) != ("fixed_point" in section),
                 "audit takes either an orbit or a fixed_point")
        if "orbit" in section:
            m = _map_of(cfg)
            orbit = [_as_complex(v) for v in section["orbit"]]
            try:
                consecutive = all(abs(m.evaluate(a) - b) <= ORBIT_TOL
                                  for a, b in zip(orbit, orbit[1:]))
            except Overflow:
                consecutive = False
            _require(consecutive,
                     f"audit.orbit: f must map each point to the next within {ORBIT_TOL:g}")
    elif subcommand == "scan":
        if section["kind"] == "escaping":
            _require("point" in section, "scan.point (a periodic seed) is required")
        else:
            m = _map_of(cfg)
            _require(bool(parabolic_points(m)),
                     f"scan.kind 'parabolic' needs a parabolic map; {m.family} has none")
    elif subcommand == "inner":
        _require("blaschke" in section or "candidate" in section,
                 "inner needs a 'blaschke' and/or 'candidate' entry")
        _require("blaschke" not in section or len(section["blaschke"].get("zeros", [])) >= 2
                 or section["periods"] == [],
                 "inner.periods must be [] for a blaschke with fewer than 2 zeros")
    return cfg


def _map_of(cfg: dict) -> EntireMap:
    return EntireMap.from_json(cfg["map"])


def _as_complex(v) -> complex:
    return complex(v[0], v[1])


def _attractors_of(cfg: dict, m: EntireMap):
    if cfg["attractors"] == "auto":
        return default_attractors(m, escape_radius=cfg["escape_radius"])
    return tuple((_as_complex(a), a[2]) for a in cfg["attractors"])


def _build_grid(cfg: dict, m: EntireMap):
    grid = classify_grid(
        m,
        tuple(cfg["window"]),
        tuple(cfg["resolution"]),
        cfg["budgets"]["orbit"],
        escape_radius=cfg["escape_radius"],
        attractors=_attractors_of(cfg, m),
        tol=cfg["tolerances"]["orbit_tol"],
    )
    return label_components(grid)


# ---------------------------------------------------------------------------
# Subcommand runners: each returns its summary fields, with "outputs" listing its files
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
        "cells_by_kind": {kind.name.lower(): int((grid.kinds == kind).sum()) for kind in Kind},
        "outputs": ["grid.ppm", "grid.csv"],
    }


def _run_periodic(cfg: dict, out: Path) -> dict:
    m = _map_of(cfg)
    section = cfg["periodic"]
    grid = _build_grid(cfg, m)
    point = find_periodic_boundary_point(
        m,
        grid,
        tuple(section["seed_region"]),
        max_period=section["max_period"],
        pullback_budget=cfg["budgets"]["pullback"],
        return_radius_cells=section["return_radius_cells"],
        rng_seed=cfg["rng_seed"],
    )
    serialize.write_json(point, out / "points.json")
    return {"point": point, "outputs": ["points.json"]}


def _run_access(cfg: dict, out: Path) -> dict:
    m = _map_of(cfg)
    section = cfg["access"]
    grid = _build_grid(cfg, m)
    point = newton_periodic(m, _as_complex(section["seed"]), section["period"], grid=grid)
    curve = access_curve(m, point, _as_complex(section["z0"]), section["steps"], grid)
    serialize.curve_to_csv(curve, out / "curve.csv")
    serialize.write_json(point, out / "points.json")
    return {
        "point": point,
        "final_gap": curve.final_gap(),
        "vertices": len(curve.vertices),
        "outputs": ["curve.csv", "points.json"],
    }


def _run_audit(cfg: dict, out: Path) -> dict:
    m = _map_of(cfg)
    section = cfg["audit"]
    reg = section["region"]
    center, radius, count = _as_complex(reg["center"]), reg["radius"], reg["count"]
    region = [center + radius * np.exp(2j * np.pi * j / count) for j in range(count)]

    if "orbit" in section:
        chain = pullback_chain(m, [_as_complex(v) for v in section["orbit"]])
    else:
        p = newton_periodic(m, _as_complex(section["fixed_point"]), section["period"])
        chain = chain_fixing(m, p.point, section["length"] * p.period, p.period)

    cloud_cfg = section["cloud"]
    cloud = postsingular_sample(
        m,
        cloud_cfg["depth"],
        escape_radius=cloud_cfg["escape_radius"],
        k_bound=cloud_cfg["k_bound"],
    )
    audit = contraction_audit(m, chain, region, cloud, segment=section["segment"])
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
    cal = calibrate_disk(
        samples=section["calibration"]["samples"],
        resolution=section["calibration"]["resolution"],
    )
    if not cal.passed:
        raise CalibrationFailure(
            f"disk oracle failed: chi2 p = {cal.chi2_p:.4g}, KS = {cal.ks_stat:.4g}"
        )
    grid = _build_grid(cfg, m)
    report = measure_report(
        m,
        grid,
        _as_complex(section["basepoint"]),
        section["n_samples"],
        section["walk_eps_cells"] * max(grid.cell_size),
        section["orbit_budget"],
        targets=tuple(_as_complex(t) for t in section["targets"]),
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
        results["denjoy_wolff"] = denjoy_wolff(b)
        rows = []
        counts = {}
        for n in section["periods"]:
            pts = circle_periodic_points(b, n)
            counts[str(n)] = len(pts)
            rows.append((n, pts))
        results["periodic_counts"] = counts
        serialize.periodic_points_to_csv(rows, out / "periodic_points.csv")
        outputs.append("periodic_points.csv")
    if "candidate" in section:
        cand = RationalCircleMap(
            tuple(complex(c) for c in section["candidate"]["num"]),
            tuple(complex(c) for c in section["candidate"]["den"]),
        )
        results["candidate"] = verify_inner_candidate(cand, samples=section["samples"])
    serialize.write_json(results, out / "points.json")
    outputs.append("points.json")
    return {**results, "outputs": outputs}


def _run_scan(cfg: dict, out: Path) -> dict:
    m = _map_of(cfg)
    section = cfg["scan"]
    probes = [_as_complex(v) for v in section["probes"]]
    budget = section["budget"]
    if section["kind"] == "escaping":
        p = newton_periodic(m, _as_complex(section["point"]), section["period"])
        rep = escaping_component_scan(m, p, probes, budget, cfg["escape_radius"])
    else:
        rep = parabolic_boundary_scan(m, probes, budget, cfg["escape_radius"])
    serialize.write_json(rep, out / "points.json")
    return {**vars(rep), "outputs": ["points.json"]}


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
    echoed = {k: v for k, v in cfg.items() if k not in _EXECUTION}
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
    except FatouLabError as exc:
        summary["errors"].append(f"{type(exc).__name__}: {exc}")
        code = 3
    summary["wall_time"] = time.monotonic() - started
    serialize.write_json(summary, out / "summary.json")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fatoulab", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="rng seed override")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    overrides = {"out_dir": args.out, "rng_seed": args.seed}
    try:
        cfg = resolve_config(raw, args.subcommand, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(args.subcommand, cfg)


if __name__ == "__main__":
    sys.exit(main())
