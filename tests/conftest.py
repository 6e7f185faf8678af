import cmath
import json

import numpy as np
import pytest

from fatoulab.catalog import exp_lambda, z_exp, z_plus_exp
from fatoulab.grid import classify_grid, label_components
from fatoulab.measure import calibrate_disk
from fatoulab.orbits import default_attractors

# Frozen oracle constants (independent oracles, see module tests):
# QA/QR are the two real roots of (1/4) e^q = q, computed via Lambert W
# (-W_0(-1/4) and -W_{-1}(-1/4)); MULT_2PI_I is |1 - 2 pi i|.
QA = 0.35740295618138895
QR = 2.1532923641103494
MULT_2PI_I = 6.362265131567328

THREE_PI = 3.0 * np.pi


# Catalog maps in plain cmath, independent of fatoulab's evaluators.
def cmath_exp_quarter(z):
    return 0.25 * cmath.exp(z)


def cmath_z_plus_exp(z):
    return z + cmath.exp(-z)


def cmath_z_exp(z):
    return z * cmath.exp(-z)


def iterate(f, z: complex, n: int) -> complex | None:
    """The n-th iterate of z under f, or None once cmath overflows."""
    for _ in range(n):
        try:
            z = f(z)
        except OverflowError:
            return None
    return z


@pytest.fixture(scope="session")
def exp_map():
    return exp_lambda(0.25)


@pytest.fixture(scope="session")
def zexp_map():
    return z_exp()


@pytest.fixture(scope="session")
def zplus_map():
    return z_plus_exp()


@pytest.fixture(scope="session")
def exp_grid(exp_map):
    """Attracting-basin window for lambda = 1/4."""
    grid = classify_grid(
        exp_map, (-2.0, 4.0, -3.0, 3.0), (200, 200), 300,
        attractors=default_attractors(exp_map),
    )
    return label_components(grid)


@pytest.fixture(scope="session")
def exp_wide_grid(exp_map):
    """Wide window for harmonic-measure walks (keeps window exits below half)."""
    grid = classify_grid(
        exp_map, (-10.0, 4.0, -THREE_PI, THREE_PI), (350, 470), 300,
        attractors=default_attractors(exp_map),
    )
    return label_components(grid)


@pytest.fixture(scope="session")
def zplus_grid(zplus_map):
    """Three Baker strips of z + exp(-z)."""
    grid = classify_grid(zplus_map, (-2.0, 10.0, -THREE_PI, THREE_PI), (300, 300), 400)
    return label_components(grid)


@pytest.fixture(scope="session")
def zexp_grid(zexp_map):
    """Parabolic basin of z exp(-z); long budget for the slow petal convergence."""
    grid = classify_grid(zexp_map, (-2.0, 2.0, -2.0, 2.0), (220, 220), 1500)
    return label_components(grid)


@pytest.fixture(scope="session")
def disk_calibration():
    """The walk-on-spheres disk oracle; shared by measure tests and acceptance."""
    return calibrate_disk(samples=10**4)


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(autouse=True)
def measure_json_is_standard(request):
    """Every measure.json a test writes under its tmp_path parses as standard
    JSON, without NaN or Infinity."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    for path in tmp_path.rglob("measure.json"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)
