"""Output writers: binary PPM images, CSV tables, canonical JSON.

All CSVs carry a header row and '.' decimal separators and end every line,
the last one included, with CRLF, as csv.writer does. Every float cell goes
through _num, which prints the shortest repr of the Python float, so reruns
under fixed seeds are byte-identical and numpy scalars print as plain
numbers. grid.csv has one row per cell, `x_index,y_index,kind,label,iterations`:
integer indices, label and iteration count, and the kind's lower-case name,
in raster order (iy outer, ix inner). canonical_json writes a complex number
as its [re, im] pair and a dataclass instance as the object of its fields.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

from .grid import ClassificationGrid
from .orbits import Kind

# Fixed kind -> RGB palette. An escaping cell with a nonzero label class from
# the orbit kernel (a drift-certified Baker escape) gets its own hue.
PALETTE = {
    "undecided": (0, 0, 0),
    "escaping": (68, 119, 170),
    "escaping_drift": (34, 170, 204),
    "attracting": (238, 153, 68),
    "parabolic": (102, 204, 102),
}


def _num(x) -> str:
    """One float CSV cell: shortest round-trip repr, also for numpy scalars."""
    return repr(float(x))


def _cell_colors(grid: ClassificationGrid) -> np.ndarray:
    rgb = np.zeros((grid.ny, grid.nx, 3), dtype=np.uint8)
    kinds = grid.kinds
    rgb[kinds == Kind.ESCAPING] = PALETTE["escaping"]
    rgb[(kinds == Kind.ESCAPING) & (grid.classes != 0)] = PALETTE["escaping_drift"]
    rgb[kinds == Kind.ATTRACTING] = PALETTE["attracting"]
    rgb[kinds == Kind.PARABOLIC] = PALETTE["parabolic"]
    return rgb


def grid_to_ppm(grid: ClassificationGrid, path: str | Path) -> None:
    """Binary P6 image; the top image row is the top of the window (max Im)."""
    rgb = _cell_colors(grid)[::-1]  # flip so +Im is up
    header = f"P6\n{grid.nx} {grid.ny}\n255\n".encode("ascii")
    Path(path).write_bytes(header + rgb.tobytes())


def grid_to_csv(grid: ClassificationGrid, path: str | Path) -> None:
    """One joined string per raster row; no cell needs csv quoting."""
    names = [k.name.lower() for k in Kind]
    with open(path, "w", newline="") as f:
        f.write("x_index,y_index,kind,label,iterations\r\n")
        for iy in range(grid.ny):
            row = zip(grid.kinds[iy].tolist(), grid.labels[iy].tolist(), grid.iterations[iy].tolist())
            f.write("".join([f"{ix},{iy},{names[k]},{lab},{it}\r\n"
                             for ix, (k, lab, it) in enumerate(row)]))


def curve_to_csv(curve, path: str | Path) -> None:
    """Access-curve polyline rows (m, re, im, gap to the landing point)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["m", "re", "im", "gap"])
        for gen, v in zip(curve.segment_index, curve.vertices):
            w.writerow([gen, _num(v.real), _num(v.imag), _num(abs(v - curve.landing_point))])


def hits_to_csv(report, path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sample_id", "hit_re", "hit_im", "verdict", "orbit_iterations"])
        for h in report.hits:
            w.writerow(
                [h.sample_id, _num(h.hit.real), _num(h.hit.imag), h.verdict.lower(), h.orbit_iterations]
            )


def audit_to_csv(audit, path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["re", "im", "ratio_lower", "ratio_upper", "verdict"])
        for row in audit.rows:
            w.writerow(
                [
                    _num(row.point.real),
                    _num(row.point.imag),
                    _num(row.ratio_lower),
                    _num(row.ratio_upper),
                    row.verdict,
                ]
            )


def periodic_points_to_csv(rows, path: str | Path) -> None:
    """Circle periodic points, one block per (period n, points of period n) in `rows`."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["n", "j", "theta", "residual"])
        for n, points in rows:
            for p in points:
                w.writerow([n, p.branch, _num(p.theta), _num(p.residual)])


def write_json(obj, path: str | Path) -> None:
    Path(path).write_text(canonical_json(obj) + "\n")


def _encode(o):
    if isinstance(o, complex):
        return [o.real, o.imag]
    if dataclasses.is_dataclass(o) and not isinstance(o, type):
        return {f.name: getattr(o, f.name) for f in dataclasses.fields(o)}
    if isinstance(o, np.generic):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_encode)
