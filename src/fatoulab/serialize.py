"""Output writers: binary PPM images, CSV tables, canonical JSON.

Every CSV has a header row, '.' decimal separators, and CRLF at the end of
every line, the last one included, as csv.writer writes them. The four small
tables go through _write_csv, and every float cell through _num, which
prints the shortest repr of the Python float, so reruns under fixed seeds are
byte-identical and numpy scalars print as plain numbers.

grid.csv has one row per cell, `x_index,y_index,kind,label,iterations`:
integer indices, label and iteration count, and the kind's lower-case name,
in raster order (iy outer, ix inner). It is the one large table, so numpy
encodes it, one block of about _CSV_BLOCK cells in whole raster rows at a
time: each integer field becomes a fixed-width digit matrix, NUL-padded on
the left, the kind a gather from a table of `,name,` byte rows, and the
block goes out as one write of its non-NUL bytes. The bytes are those
csv.writer writes.

canonical_json writes a complex number as its [re, im] pair and a dataclass
instance as the object of its fields.
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

# Cells per grid.csv block, rounded down to whole raster rows: the encoder's
# byte matrices stay a few MB.
_CSV_BLOCK = 1 << 16


def _num(x) -> str:
    """One float CSV cell: shortest round-trip repr, also for numpy scalars."""
    return repr(float(x))


# Row k is the color of Kind k; row 4 that of a drift-certified escape.
_PALETTE_ROWS = np.array(
    [PALETTE[name] for name in ("undecided", "escaping", "attracting", "parabolic", "escaping_drift")],
    dtype=np.uint8,
)


def _cell_colors(grid: ClassificationGrid) -> np.ndarray:
    """(ny, nx, 3) colors of the cells, top image row first (+Im up)."""
    kinds, classes = grid.kinds[::-1], grid.classes[::-1]
    rows = np.where((kinds == Kind.ESCAPING) & (classes != 0), 4, kinds)
    return np.take(_PALETTE_ROWS, rows, axis=0)


def grid_to_ppm(grid: ClassificationGrid, path: str | Path) -> None:
    """Binary P6 image; the top image row is the top of the window (max Im)."""
    with open(path, "wb") as f:
        f.write(f"P6\n{grid.nx} {grid.ny}\n255\n".encode("ascii"))
        f.write(_cell_colors(grid))


def _write_csv(path: str | Path, header: str, lines) -> None:
    """The header, then each line, every one ended with CRLF as csv.writer ends it.

    No cell of these tables needs csv quoting: each is a number or a lower-case name.
    """
    with open(path, "w", newline="") as f:
        f.write(header + "\r\n")
        for line in lines:
            f.write(line + "\r\n")


def _put_digits(out: np.ndarray, values: np.ndarray) -> None:
    """The decimal digits of non-negative `values`, right-aligned in the last axis of `out`.

    The leading columns a value does not need hold NUL, which the writer drops.
    """
    q, d = np.divmod(values.astype(np.uint32), 10)
    out[..., -1] = d + ord("0")
    for col in reversed(range(out.shape[-1] - 1)):
        lead = q == 0
        q, d = np.divmod(q, 10)
        out[..., col] = np.where(lead, 0, d + ord("0"))


def _digit_width(values: np.ndarray) -> int:
    """Decimal digits of the largest of `values`, which must be non-negative."""
    if values.min() < 0:
        raise ValueError("grid.csv integer fields must be non-negative")
    return len(str(int(values.max())))


def grid_to_csv(grid: ClassificationGrid, path: str | Path) -> None:
    """numpy encodes each block of whole raster rows as one NUL-padded byte matrix.

    A cell's row of the matrix is its line: fixed-width digit columns, the
    kind's `,name,` from a small table, the `,` separators and CRLF. Dropping
    the NUL bytes leaves the lines as csv.writer writes them.
    """
    ix_width, iy_width = len(str(grid.nx - 1)), len(str(grid.ny - 1))
    label_width, it_width = _digit_width(grid.labels), _digit_width(grid.iterations)
    # Row k is `,name,` of Kind k, NUL-padded to the longest name.
    kind_table = np.array([f",{k.name.lower()},".encode("ascii") for k in Kind])
    kind_table = kind_table.view(np.uint8).reshape(len(Kind), -1)
    iy_digits = np.zeros((grid.ny, iy_width), dtype=np.uint8)
    _put_digits(iy_digits, np.arange(grid.ny))

    # Column offsets of the fields within a line.
    iy_at = ix_width + 1
    kind_at = iy_at + iy_width
    label_at = kind_at + kind_table.shape[1]
    it_at = label_at + label_width + 1
    width = it_at + it_width + 2

    rows = max(1, _CSV_BLOCK // grid.nx)
    buf = np.empty((min(rows, grid.ny), grid.nx, width), dtype=np.uint8)
    _put_digits(buf[:, :, :ix_width], np.arange(grid.nx))
    buf[:, :, ix_width] = buf[:, :, it_at - 1] = ord(",")
    buf[:, :, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(b"x_index,y_index,kind,label,iterations\r\n")
        for lo in range(0, grid.ny, rows):
            hi = min(lo + rows, grid.ny)
            block = buf[:hi - lo]
            block[:, :, iy_at:kind_at] = iy_digits[lo:hi, None]
            block[:, :, kind_at:label_at] = np.take(kind_table, grid.kinds[lo:hi], axis=0)
            _put_digits(block[:, :, label_at:label_at + label_width], grid.labels[lo:hi])
            _put_digits(block[:, :, it_at:it_at + it_width], grid.iterations[lo:hi])
            flat = block.reshape(-1)
            f.write(flat[flat != 0])


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
