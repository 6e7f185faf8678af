"""Benchmark workloads: the CLI invocations each one runs, built from a seed.

Every invocation pins ``threads: 1`` (the walk pool in ``measure_report`` runs
slower at 2 threads than at 1 on a 2-core machine, and a thread count that
follows the machine would make the figures machine-dependent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
EXP_QUARTER = {"family": "exp_lambda", "lambda": 0.25}
Z_EXP = {"family": "z_exp"}


@dataclass(frozen=True)
class Invocation:
    """One ``python -m fatoulab <subcommand>`` run and the config it reads."""

    name: str
    subcommand: str
    config: dict


def _config(seed: int, **fields) -> dict:
    cfg = {
        "escape_radius": 50.0,
        "tolerances": {"orbit_tol": 1e-6},
        "attractors": "auto",
        "rng_seed": seed,
        "threads": 1,
    }
    cfg.update(fields)
    return cfg


def basins_deep(seed: int) -> list[Invocation]:
    return [
        Invocation("z_exp", "render", _config(
            seed, map=Z_EXP, window=[-2.0, 2.0, -2.0, 2.0], resolution=[300, 300],
            budgets={"orbit": 1500, "pullback": 200, "walk": 100000},
        )),
        Invocation("z_plus_exp", "render", _config(
            seed, map={"family": "z_plus_exp"},
            window=[-2.0, 10.0, -3 * math.pi, 3 * math.pi], resolution=[300, 300],
            budgets={"orbit": 400, "pullback": 200, "walk": 100000},
        )),
    ]


def basins_fine(seed: int) -> list[Invocation]:
    return [
        Invocation("exp_lambda", "render", _config(
            seed, map=EXP_QUARTER, window=[-2.0, 4.0, -3.0, 3.0], resolution=[1000, 1000],
            budgets={"orbit": 300, "pullback": 200, "walk": 100000},
        )),
    ]


def harmonic_measure(seed: int) -> list[Invocation]:
    # The disk calibration draws from rng_seed and fails its chi-squared gate
    # on some seeds (see CHANGES.md), so rng_seed stays at the CLI default 0
    # and the seed moves the basepoint along the real axis instead: every
    # such basepoint keeps the conjugation symmetry the checks rely on.
    basepoint = float(np.random.default_rng(seed).uniform(-0.5, 1.5))
    return [
        Invocation("exp_lambda", "measure", _config(
            0, map=EXP_QUARTER, window=[-10.0, 4.0, -3 * math.pi, 3 * math.pi],
            resolution=[350, 470],
            budgets={"orbit": 300, "pullback": 200, "walk": 100000},
            measure={
                "basepoint": [basepoint, 0.0], "n_samples": 2000, "orbit_budget": 100,
                "walk_eps_cells": 2.5,
                "calibration": {"samples": 10000, "resolution": 400},
            },
        )),
    ]


def boundary_tools(seed: int) -> list[Invocation]:
    exp_grid = {
        "map": EXP_QUARTER, "window": [-2.0, 4.0, -3.0, 3.0], "resolution": [200, 200],
        "budgets": {"orbit": 300, "pullback": 200, "walk": 100000},
    }
    return [
        Invocation("periodic", "periodic", _config(
            seed, **exp_grid, periodic={"seed_region": [2.0, 2.3, -0.1, 0.1], "max_period": 1},
        )),
        Invocation("access", "access", _config(
            seed, **exp_grid,
            access={"seed": [2.2, 0.0], "period": 1, "z0": [1.8, 0.0], "steps": 60},
        )),
        Invocation("audit", "audit", _config(
            seed, map=Z_EXP,
            audit={
                "fixed_point": [0.0, TWO_PI], "period": 1, "length": 2,
                "region": {"center": [0.0, TWO_PI], "radius": 0.3, "count": 400},
                "cloud": {"depth": 30, "k_bound": 2}, "segment": math.exp(-1.0),
            },
        )),
        Invocation("inner", "inner", _config(
            seed, map=EXP_QUARTER,
            inner={
                "blaschke": {"rotation": [1.0, 0.0], "zeros": [[0.0, 0.0], [0.0, 0.0]]},
                "candidate": {"num": [3, 0, 1], "den": [1, 0, 3]},
                "periods": list(range(1, 12)),
            },
        )),
        Invocation("scan", "scan", _config(
            seed, map=Z_EXP,
            scan={"kind": "parabolic", "probes": [[-0.5, 0.0], [0.2, 0.0]], "budget": 2000},
        )),
    ]


WORKLOADS = {
    "basins-deep": basins_deep,
    "basins-fine": basins_fine,
    "harmonic-measure": harmonic_measure,
    "boundary-tools": boundary_tools,
}
