import cmath

import numpy as np
import pytest

import fatoulab as fl

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
    return fl.exp_lambda(0.25)


@pytest.fixture(scope="session")
def zexp_map():
    return fl.z_exp()


@pytest.fixture(scope="session")
def zplus_map():
    return fl.z_plus_exp()


@pytest.fixture(scope="session")
def exp_grid(exp_map):
    """Attracting-basin window for lambda = 1/4."""
    grid = fl.classify_grid(
        exp_map, (-2.0, 4.0, -3.0, 3.0), (200, 200), 300,
        attractors=fl.default_attractors(exp_map),
    )
    return fl.label_components(grid)


@pytest.fixture(scope="session")
def exp_wide_grid(exp_map):
    """Wide window for harmonic-measure walks (keeps window exits below half)."""
    grid = fl.classify_grid(
        exp_map, (-10.0, 4.0, -THREE_PI, THREE_PI), (350, 470), 300,
        attractors=fl.default_attractors(exp_map),
    )
    return fl.label_components(grid)


@pytest.fixture(scope="session")
def zplus_grid(zplus_map):
    """Three Baker strips of z + exp(-z)."""
    grid = fl.classify_grid(zplus_map, (-2.0, 10.0, -THREE_PI, THREE_PI), (300, 300), 400)
    return fl.label_components(grid)


@pytest.fixture(scope="session")
def zexp_grid(zexp_map):
    """Parabolic basin of z exp(-z); long budget for the slow petal convergence."""
    grid = fl.classify_grid(zexp_map, (-2.0, 2.0, -2.0, 2.0), (220, 220), 1500)
    return fl.label_components(grid)


@pytest.fixture(scope="session")
def disk_calibration():
    """The walk-on-spheres disk oracle; shared by measure tests and acceptance."""
    return fl.calibrate_disk(samples=10**4)
