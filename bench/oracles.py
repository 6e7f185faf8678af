"""Output checks computed apart from fatoulab.

Each ``check_<subcommand>`` reads one CLI output directory and returns a list
of failure messages (empty when every check holds). The reference values come
from plain ``cmath`` re-iteration, ``mpmath`` Lambert W, closed forms and
properties the method must have; nothing here imports fatoulab or compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import cmath
import csv
import functools
import hashlib
import io
import json
import math
from pathlib import Path

import mpmath
import numpy as np

KIND_CODES = {"undecided": 0, "escaping": 1, "attracting": 2, "parabolic": 3}

# The fixed PPM palette of the README: kind code -> RGB, drift escapes apart.
PALETTE = {0: (0, 0, 0), 1: (68, 119, 170), 2: (238, 153, 68), 3: (102, 204, 102)}
DRIFT_RGB = (34, 170, 204)
DRIFT_FAMILIES = ("z_plus_exp", "fatou_plus")

# exp() of a double overflows past this real argument; both the program and
# these oracles treat it as escape evidence.
EXP_OVERFLOW = 709.0

PARABOLIC_NEAR = 2e-3
PARABOLIC_TAIL = 500
DRIFT_TAIL = 200
ATTRACTING_TOL = 1e-9
ATTRACTING_EXTRA = 64


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------


@functools.cache
def lambert_fixed_points(lam: float) -> tuple[complex, complex]:
    """Real fixed points of lam*e^z for 0 < lam < 1/e: (-W_0(-lam), -W_{-1}(-lam))."""
    with mpmath.workdps(30):
        return (
            complex(-mpmath.lambertw(-lam, 0)),
            complex(-mpmath.lambertw(-lam, -1)),
        )


class Overflowed(Exception):
    """The exponential left the double range."""


def map_of(descriptor: dict):
    """The catalog map as a plain cmath function; raises Overflowed past EXP_OVERFLOW."""
    family = descriptor["family"]
    if family == "exp_lambda":
        lam = float(descriptor["lambda"])

        def f(z: complex) -> complex:
            if z.real > EXP_OVERFLOW:
                raise Overflowed
            return lam * cmath.exp(z)

        return f
    offsets = {"fatou_plus": 1.0, "fatou_minus": -1.0, "z_plus_exp": 0.0}

    def f(z: complex) -> complex:
        if -z.real > EXP_OVERFLOW:
            raise Overflowed
        e = cmath.exp(-z)
        if family == "z_exp":
            return z * e
        if family == "z_plus_exp":
            return z + e
        return z + offsets[family] + e

    return f


def escapes_within(f, z: complex, budget: int, radius: float) -> bool:
    """True when the orbit leaves |z| <= radius or overflows within `budget` steps."""
    for _ in range(budget):
        try:
            z = f(z)
        except (Overflowed, OverflowError):
            return True
        if not (math.isfinite(z.real) and math.isfinite(z.imag)) or abs(z) > radius:
            return True
    return False


# ---------------------------------------------------------------------------
# Parsing and digests
# ---------------------------------------------------------------------------


def read_json(path: Path):
    return json.loads(path.read_text())


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    return rows[0], rows[1:]


def read_grid_csv(path: Path) -> np.ndarray:
    """grid.csv as an int64 array of (x_index, y_index, kind code, label, iterations)."""
    text = path.read_text()
    header, _, body = text.partition("\n")
    if header != "x_index,y_index,kind,label,iterations":
        raise ValueError(f"unexpected grid.csv header {header!r}")
    for name, code in KIND_CODES.items():
        body = body.replace(f",{name},", f",{code},")
    return np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2)


def read_ppm(path: Path) -> np.ndarray:
    """Binary P6 as an (ny, nx, 3) uint8 array with row 0 at the top (max Im)."""
    data = path.read_bytes()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P6" or parts[2] != b"255":
        raise ValueError("not an 8-bit binary P6 image")
    nx, ny = (int(v) for v in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8)
    if pixels.size != nx * ny * 3:
        raise ValueError(f"P6 body holds {pixels.size} bytes, expected {nx * ny * 3}")
    return pixels.reshape(ny, nx, 3)


def output_digest(out: Path) -> str:
    """sha256 over every data output; summary.json enters without its wall_time."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            summary.pop("wall_time", None)
            data = json.dumps(summary, sort_keys=True).encode()
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def cell_center(window, nx: int, ny: int, ix: int, iy: int) -> complex:
    re_min, re_max, im_min, im_max = window
    hx = (re_max - re_min) / nx
    hy = (im_max - im_min) / ny
    return complex(re_min + (ix + 0.5) * hx, im_min + (iy + 0.5) * hy)


def check_cell(cfg: dict, kind: int, label: int, iterations: int, z: complex) -> str | None:
    """Re-iterate one cell centre in cmath and confirm its verdict; None when it holds."""
    try:
        return _check_cell(cfg, kind, label, iterations, z)
    except (Overflowed, OverflowError):
        return f"{'escaping' if kind == KIND_CODES['escaping'] else 'bounded'} cell overflows"


def _check_cell(cfg: dict, kind: int, label: int, iterations: int, z: complex) -> str | None:
    f = map_of(cfg["map"])
    family = cfg["map"]["family"]
    budget = cfg["budgets"]["orbit"]
    radius = float(cfg["escape_radius"])
    if kind == KIND_CODES["attracting"]:
        q = lambert_fixed_points(float(cfg["map"]["lambda"]))[0]
        for _ in range(budget + ATTRACTING_EXTRA):
            z = f(z)
            if abs(z - q) < ATTRACTING_TOL:
                return None
        return f"attracting cell does not reach -W0(-lam) within {ATTRACTING_TOL}"
    if kind == KIND_CODES["parabolic"]:
        for step in range(iterations + PARABOLIC_TAIL):
            z = f(z)
            if abs(z) > radius:
                return "parabolic cell escapes"
            if step + 1 >= iterations and not (z.real > 0 and abs(z) < PARABOLIC_NEAR):
                return f"parabolic cell leaves Re > 0, |z| < {PARABOLIC_NEAR} at step {step + 1}"
        return None
    if kind == KIND_CODES["escaping"] and label > 0:
        if family not in DRIFT_FAMILIES:
            return "labeled escaping cell outside a Baker-domain family"
        for _ in range(iterations):
            z = f(z)
        for step in range(DRIFT_TAIL):
            w = f(z)
            if not w.real > z.real:
                return f"drift cell: Re stops increasing {step} steps after its verdict"
            z = w
        return None
    if kind == KIND_CODES["escaping"]:
        if not escapes_within(f, z, budget, radius):
            return f"escaping cell stays in |z| <= {radius} for the whole budget"
    return None


def check_render(out: Path, cfg: dict, rng: np.random.Generator, per_kind: int = 200) -> list[str]:
    errors: list[str] = []
    nx, ny = cfg["resolution"]
    summary = read_json(out / "summary.json")
    grid = read_grid_csv(out / "grid.csv")
    if grid.shape != (nx * ny, 5):
        return [f"grid.csv has {grid.shape[0]} rows, expected nx*ny = {nx * ny}"]
    x_index, y_index, kinds, labels, iterations = grid.T
    order = np.arange(nx * ny)
    if not (np.array_equal(x_index, order % nx) and np.array_equal(y_index, order // nx)):
        errors.append("grid.csv rows are not in (y_index, x_index) raster order")

    by_kind = summary.get("cells_by_kind", {})
    if sum(by_kind.values()) != nx * ny:
        errors.append(f"cells_by_kind sums to {sum(by_kind.values())}, expected {nx * ny}")
    for name, code in KIND_CODES.items():
        if by_kind.get(name) != int(np.count_nonzero(kinds == code)):
            errors.append(f"cells_by_kind[{name}] disagrees with grid.csv")

    fatou = (kinds == KIND_CODES["attracting"]) | (kinds == KIND_CODES["parabolic"])
    if np.any(labels[fatou] <= 0) or np.any(labels[kinds == KIND_CODES["undecided"]] != 0):
        errors.append("bounded cells must carry a label and undecided cells label 0")
    positive = np.unique(labels[labels > 0])
    if summary.get("components") != positive.size:
        errors.append("summary components disagrees with the labels in grid.csv")

    expected = np.zeros((nx * ny, 3), dtype=np.uint8)
    for code, rgb in PALETTE.items():
        expected[kinds == code] = rgb
    expected[(kinds == KIND_CODES["escaping"]) & (labels > 0)] = DRIFT_RGB
    image = read_ppm(out / "grid.ppm")
    if image.shape != (ny, nx, 3):
        errors.append(f"grid.ppm is {image.shape[1]}x{image.shape[0]}, expected {nx}x{ny}")
    else:
        mismatch = np.count_nonzero(np.any(image[::-1].reshape(-1, 3) != expected, axis=1))
        if mismatch:
            errors.append(f"grid.ppm and grid.csv disagree under the palette on {mismatch} cells")

    window = cfg["window"]
    for code in KIND_CODES.values():
        if code == KIND_CODES["undecided"]:
            continue
        for drift in (False, True):
            pool = np.nonzero((kinds == code) & ((labels > 0) == drift))[0]
            if pool.size == 0:
                continue
            for r in rng.choice(pool, size=min(per_kind, pool.size), replace=False):
                z = cell_center(window, nx, ny, int(x_index[r]), int(y_index[r]))
                why = check_cell(cfg, int(code), int(labels[r]), int(iterations[r]), z)
                if why:
                    errors.append(f"cell ({x_index[r]}, {y_index[r]}) at {z}: {why}")
    return errors


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def check_measure(out: Path, cfg: dict, rng: np.random.Generator, sample: int = 200) -> list[str]:
    errors: list[str] = []
    section = cfg["measure"]
    report = read_json(out / "measure.json")
    cal = report["calibration"]
    if not (cal["chi2_p"] > 0.01 and cal["ks_stat"] < 0.03):
        errors.append(f"disk calibration fails: chi2 p = {cal['chi2_p']}, KS = {cal['ks_stat']}")

    samples = section["n_samples"]
    kept = samples - report["left_window"]
    counts = report["counts"]
    if sum(counts.values()) != kept:
        errors.append(f"counts sum to {sum(counts.values())}, expected samples - left_window = {kept}")
    header, rows = read_csv(out / "hits.csv")
    if header != ["sample_id", "hit_re", "hit_im", "verdict", "orbit_iterations"]:
        errors.append(f"unexpected hits.csv header {header}")
        return errors
    if len(rows) != kept:
        errors.append(f"hits.csv has {len(rows)} rows, expected {kept}")
    if counts.get("bounded") != 0:
        errors.append(f"{counts.get('bounded')} hits are bounded; the basin boundary lies in the Julia set")

    ids = [int(r[0]) for r in rows]
    if ids != sorted(set(ids)) or (ids and not 0 <= ids[0] <= ids[-1] < samples):
        errors.append("sample ids are not distinct, ascending and below n_samples")
    listed = {"escaping": 0, "bounded": 0, "undecided": 0}
    for r in rows:
        listed["bounded" if r[3] in ("attracting", "parabolic") else r[3]] += 1
    if listed != counts:
        errors.append(f"hits.csv lists {listed} hits by verdict, counts say {counts}")

    hits = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    re_min, re_max, im_min, im_max = cfg["window"]
    nx, ny = cfg["resolution"]
    fx = (hits.real - re_min) / ((re_max - re_min) / nx) - 0.5
    fy = (hits.imag - im_min) / ((im_max - im_min) / ny) - 0.5
    if np.any(np.abs(fx - np.round(fx)) > 1e-6) or np.any(np.abs(fy - np.round(fy)) > 1e-6):
        errors.append("a hit is not a raster cell centre")

    # Domain, window and basepoint are symmetric under conjugation, so the
    # upper half takes a binomial(n, 1/2) share of the off-axis hits.
    up = int(np.count_nonzero(hits.imag > 0))
    n = up + int(np.count_nonzero(hits.imag < 0))
    if n == 0 or abs(up - n / 2) > 4 * math.sqrt(n) / 2:
        errors.append(f"{up} of {n} off-axis hits have Im > 0: beyond 4 sigma of half")

    f = map_of(cfg["map"])
    escaping = [i for i, r in enumerate(rows) if r[3] == "escaping"]
    for i in rng.permutation(escaping)[:sample]:
        if not escapes_within(f, hits[i], section["orbit_budget"], float(cfg["escape_radius"])):
            errors.append(f"hit {rows[i][0]} at {hits[i]} is listed escaping but stays bounded")
    return errors


# ---------------------------------------------------------------------------
# boundary tools
# ---------------------------------------------------------------------------


def _point(payload) -> complex:
    return complex(payload[0], payload[1])


def check_periodic(out: Path, cfg: dict, rng=None) -> list[str]:
    """points.json holds the repelling fixed point -W_{-1}(-lam) with multiplier equal to it."""
    point = read_json(out / "points.json")
    p, mult = _point(point["point"]), _point(point["multiplier"])
    q = lambert_fixed_points(float(cfg["map"]["lambda"]))[1]
    errors = []
    if abs(p - q) > 1e-9:
        errors.append(f"periodic point {p} is {abs(p - q):.3e} from -W_-1(-lam) = {q}")
    if abs(mult - p) > 1e-8 or point["period"] != 1 or not point["repelling"]:
        errors.append(f"fixed point {p}: multiplier {mult} must equal the point, period 1, repelling")
    return errors


def check_access(out: Path, cfg: dict, rng=None) -> list[str]:
    errors = check_periodic(out, cfg)
    landing = _point(read_json(out / "points.json")["point"])
    header, rows = read_csv(out / "curve.csv")
    if header != ["m", "re", "im", "gap"] or not rows:
        return errors + ["curve.csv is empty or has an unexpected header"]
    generations: dict[int, list[complex]] = {}
    for r in rows:
        generations.setdefault(int(r[0]), []).append(complex(float(r[1]), float(r[2])))
    steps = cfg["access"]["steps"]
    if sorted(generations) != list(range(steps + 1)):
        errors.append(f"curve.csv generations are not 0..{steps}")
        return errors
    final_gap = abs(generations[steps][-1] - landing)
    if not final_gap < 1e-8:
        errors.append(f"final gap {final_gap:.3e} is not below 1e-8")
    f = map_of(cfg["map"])
    worst = 0.0
    for m in range(steps):
        if len(generations[m + 1]) != len(generations[m]):
            return errors + [f"generation {m + 1} has another vertex count than generation {m}"]
        for v_next, v in zip(generations[m + 1], generations[m]):
            worst = max(worst, abs(f(v_next) - v) / max(1.0, abs(v)))
    if worst > 1e-12:
        errors.append(f"f(v_(m+1)) differs from v_m by {worst:.3e} (relative)")
    return errors


def check_audit(out: Path, cfg: dict, rng=None) -> list[str]:
    header, rows = read_csv(out / "audit.csv")
    region = cfg["audit"]["region"]
    errors = []
    if header != ["re", "im", "ratio_lower", "ratio_upper", "verdict"]:
        return [f"unexpected audit.csv header {header}"]
    if len(rows) != region["count"]:
        errors.append(f"audit.csv has {len(rows)} rows, expected {region['count']}")
    centre = _point(region["center"])
    for r in rows:
        z = complex(float(r[0]), float(r[1]))
        lo, hi = float(r[2]), float(r[3])
        if r[4] == "violation":
            errors.append(f"violation row at {z}")
        if not lo <= hi:
            errors.append(f"ratio_lower {lo} > ratio_upper {hi} at {z}")
        if abs(abs(z - centre) - region["radius"]) > 1e-12:
            errors.append(f"audited point {z} is off the region circle")
    return errors


def check_inner(out: Path, cfg: dict, rng=None) -> list[str]:
    section = cfg["inner"]
    errors = []
    header, rows = read_csv(out / "periodic_points.csv")
    thetas: dict[int, list[float]] = {}
    for r in rows:
        thetas.setdefault(int(r[0]), []).append(float(r[2]))
    degree = len(section["blaschke"]["zeros"])
    for n in section["periods"]:
        got = sorted(thetas.get(n, []))
        want = degree**n - 1
        if len(got) != want:
            errors.append(f"period {n}: {len(got)} points, expected {degree}^n - 1 = {want}")
            continue
        # For z^d the period-n points are exp(2 pi i j / (d^n - 1)), j = 0..d^n - 2.
        js = [t * want / (2 * math.pi) for t in got]
        if any(abs(j - k) > 1e-9 * want for k, j in enumerate(js)):
            errors.append(f"period {n}: angles are not 2 pi j / (d^n - 1)")
    points = read_json(out / "points.json")
    r = 2 * math.sqrt(2) / 3
    expected = [1.0 + 0j, complex(-1 / 3, r), complex(-1 / 3, -r)]
    found = [_point(p) for p in points["candidate"]["boundary_fixed_points"]]
    if len(found) != 3 or any(min(abs(e - p) for p in found) > 1e-12 for e in expected):
        errors.append(f"candidate fixed points {found} are not {{1, (-1 +- 2 sqrt 2 i)/3}}")
    return errors


def check_scan(out: Path, cfg: dict, rng=None) -> list[str]:
    points = read_json(out / "points.json")
    errors = []
    if [-0.5, 0.0] not in points["escaping"]:
        errors.append("-0.5 is not listed escaping")
    if [0.2, 0.0] not in points["interior_controls"]:
        errors.append("0.2 is not listed as a petal-interior control")
    f = map_of(cfg["map"])
    budget = cfg["scan"]["budget"]
    if not escapes_within(f, -0.5 + 0j, budget, float(cfg["escape_radius"])):
        errors.append("-0.5 does not escape in cmath")
    z = 0.2 + 0j
    for _ in range(budget):
        w = f(z)
        if not 0.0 < w.real < z.real:
            errors.append("0.2 does not decrease monotonically to 0 along R+")
            break
        z = w
    return errors


CHECKS = {
    "render": check_render,
    "measure": check_measure,
    "periodic": check_periodic,
    "access": check_access,
    "audit": check_audit,
    "inner": check_inner,
    "scan": check_scan,
}
