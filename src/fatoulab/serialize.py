"""Output writers: binary PPM images, CSV tables, canonical JSON.

All CSVs go through _write_csv: a header row, '.' decimal separators, and
CRLF at the end of every line, the last one included, as csv.writer writes
them. Every float cell goes through _num, which prints the shortest repr of
the Python float, so reruns under fixed seeds are byte-identical and numpy
scalars print as plain numbers. grid.csv has one row per cell,
`x_index,y_index,kind,label,iterations`: integer indices, label and
iteration count, and the kind's lower-case name, in raster order (iy outer,
ix inner). canonical_json writes a complex number
as its [re, im] pair and a dataclass instance as the object of its fields.
"""

from __future__ import annotations

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


def _write_csv(path: str | Path, header: str, lines) -> None:
    """The header, then each line, every one ended with CRLF as csv.writer ends it.

    No cell of these tables needs csv quoting: each is a number or a lower-case name.
    """
    with open(path, "w", newline="") as f:
        f.write(header + "\r\n")
        for line in lines:
            f.write(line + "\r\n")


def grid_to_csv(grid: ClassificationGrid, path: str | Path) -> None:
    """One joined string per raster row."""
    names = [k.name.lower() for k in Kind]
    _write_csv(path, "x_index,y_index,kind,label,iterations", (
        "\r\n".join([f"{ix},{iy},{names[k]},{lab},{it}" for ix, (k, lab, it) in enumerate(
            zip(grid.kinds[iy].tolist(), grid.labels[iy].tolist(), grid.iterations[iy].tolist()))])
        for iy in range(grid.ny)))


def curve_to_csv(curve, path: str | Path) -> None:
    """Access-curve polyline rows (m, re, im, gap to the landing point)."""
    _write_csv(path, "m,re,im,gap", (
        f"{gen},{_num(v.real)},{_num(v.imag)},{_num(abs(v - curve.landing_point))}"
        for gen, v in zip(curve.segment_index, curve.vertices)))


def hits_to_csv(report, path: str | Path) -> None:
    _write_csv(path, "sample_id,hit_re,hit_im,verdict,orbit_iterations", (
        f"{h.sample_id},{_num(h.hit.real)},{_num(h.hit.imag)},"
        f"{h.verdict.lower()},{h.orbit_iterations}"
        for h in report.hits))


def audit_to_csv(audit, path: str | Path) -> None:
    _write_csv(path, "re,im,ratio_lower,ratio_upper,verdict", (
        f"{_num(r.point.real)},{_num(r.point.imag)},"
        f"{_num(r.ratio_lower)},{_num(r.ratio_upper)},{r.verdict}"
        for r in audit.rows))


def periodic_points_to_csv(rows, path: str | Path) -> None:
    """Circle periodic points, one block per (period n, points of period n) in `rows`."""
    _write_csv(path, "n,j,theta,residual", (
        f"{n},{p.branch},{_num(p.theta)},{_num(p.residual)}" for n, points in rows for p in points))


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
