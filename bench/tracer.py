"""Traced CLI run: ``python bench/tracer.py --spans FILE <fatoulab CLI arguments>``.

Imports ``fatoulab.cli`` in a fresh interpreter, wraps the public function of
each layer at the name where its calling module looks it up, runs
``cli.main`` unchanged and writes the spans to FILE when the run ends. A span
is [name, start, end, parent index, counts]; the parent is the span open when
it began. ``layer_metrics`` turns the spans of one round into the per-layer
metrics, using self times: a span's duration minus that of its children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute, span name, counter). The same function is wrapped at
# every module that calls it, so each call passes through exactly one wrapper.
WRAPS = [
    ("fatoulab.cli", "resolve_config", "cli.resolve", None),
    ("fatoulab.cli", "run", "cli.run", None),
    ("fatoulab.cli", "classify_grid", "grid.classify", "grid"),
    ("fatoulab.cli", "label_components", "grid.label", None),
    ("fatoulab.grid", "classify_orbits_array", "orbits.classify", "orbits"),
    ("fatoulab.measure", "classify_orbits_array", "orbits.classify", "orbits"),
    ("fatoulab.orbits", "classify_orbits_array", "orbits.classify", "orbits"),
    ("fatoulab.serialize", "grid_to_ppm", "serialize.write", "bytes"),
    ("fatoulab.serialize", "grid_to_csv", "serialize.grid_csv", "bytes"),
    ("fatoulab.serialize", "write_json", "serialize.write", "bytes"),
    ("fatoulab.serialize", "hits_to_csv", "serialize.write", "bytes"),
    ("fatoulab.serialize", "curve_to_csv", "serialize.write", "bytes"),
    ("fatoulab.serialize", "audit_to_csv", "serialize.write", "bytes"),
    ("fatoulab.cli", "calibrate_disk", "measure.calibrate", "calibration"),
    ("fatoulab.cli", "measure_report", "measure.walk", "walks"),
    ("fatoulab.cli", "find_periodic_boundary_point", "boundary.periodic", None),
    ("fatoulab.cli", "newton_periodic", "boundary.newton", None),
    ("fatoulab.boundary", "newton_periodic", "boundary.newton", None),
    ("fatoulab.cli", "access_curve", "boundary.access", "vertices"),
    ("fatoulab.cli", "escaping_component_scan", "boundary.scan", None),
    ("fatoulab.cli", "parabolic_boundary_scan", "boundary.scan", None),
    ("fatoulab.cli", "pullback_chain", "branches.pullback", None),
    ("fatoulab.boundary", "pullback_chain", "branches.pullback", None),
    ("fatoulab.branches", "pullback_chain", "branches.pullback", None),
    ("fatoulab.cli", "postsingular_sample", "catalog.postsingular", None),
    ("fatoulab.cli", "contraction_audit", "hyperbolic.audit", "audit"),
    ("fatoulab.cli", "circle_periodic_points", "blaschke.periodic", "points"),
    ("fatoulab.cli", "denjoy_wolff", "blaschke.denjoy_wolff", None),
    ("fatoulab.cli", "verify_inner_candidate", "blaschke.candidate", None),
]


def _counts(kind, args, kwargs, result) -> dict:
    if kind == "grid":
        nx, ny = args[2]
        return {"cells": nx * ny}
    if kind == "orbits":
        return {"point_steps": int(result.iterations.sum()),
                "decided": int((result.kinds != 0).sum()), "classified": int(result.kinds.size)}
    if kind == "bytes":
        # summary.json prints wall_time, whose length varies from run to run.
        path = os.fspath(args[1])
        return {} if os.path.basename(path) == "summary.json" else {"bytes": os.path.getsize(path)}
    if kind == "calibration":
        return {"walks": 2 * kwargs["samples"]}
    if kind == "walks":
        return {"samples": result.samples, "hits": len(result.hits)}
    if kind == "vertices":
        return {"vertices": len(result.vertices)}
    if kind == "audit":
        return {"points": len(result.rows)}
    if kind == "points":
        return {"points": len(result)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def record(self, name: str, start: float, end: float, parent, counts=None) -> int:
        self.spans.append([name, start, end, parent, counts or {}])
        return len(self.spans) - 1

    def wrap(self, fn, name: str, kind):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.record(name, time.perf_counter(), None, self.stack[-1] if self.stack else None)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            self.spans[index][4] = _counts(kind, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, kind in WRAPS:
            mod = sys.modules[module]
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, kind))


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one round
# ---------------------------------------------------------------------------

UNITS = {
    "cli.import_s": "s", "cli.resolve_s": "s", "cli.run_s": "s",
    "grid.classify_s": "s", "grid.label_s": "s", "grid.cells": "count",
    "orbits.classify_s": "s", "orbits.point_steps": "count",
    "orbits.point_steps_per_s": "1/s", "orbits.decided_ratio": "ratio",
    "serialize.write_s": "s", "serialize.grid_csv_s": "s", "serialize.bytes": "bytes",
    "serialize.mb_per_s": "MB/s",
    "measure.calibrate_s": "s", "measure.calibration_walks_per_s": "1/s",
    "measure.walk_s": "s", "measure.walks_per_s": "1/s", "measure.hit_ratio": "ratio",
    "boundary.periodic_s": "s", "boundary.newton_s": "s", "boundary.access_s": "s",
    "boundary.access_vertices": "count", "boundary.scan_s": "s",
    "branches.pullback_s": "s", "catalog.postsingular_s": "s",
    "hyperbolic.audit_s": "s", "hyperbolic.audit_points_per_s": "1/s",
    "blaschke.periodic_s": "s", "blaschke.periodic_points": "count",
    "blaschke.denjoy_wolff_s": "s", "blaschke.candidate_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(runs: list[list[list]]) -> dict:
    """Sum self times and counts over the span lists of one round's processes."""
    self_s: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    for spans in runs:
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_s[parent] += end - start
        for (name, start, end, _, c), kids in zip(spans, child_s):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - kids
            bucket = counts.setdefault(name, {})
            for key, value in c.items():
                bucket[key] = bucket.get(key, 0) + value

    def s(name):
        return self_s.get(name, 0.0)

    def n(name, key):
        return counts.get(name, {}).get(key, 0)

    write_s = s("serialize.write") + s("serialize.grid_csv")
    nbytes = n("serialize.write", "bytes") + n("serialize.grid_csv", "bytes")
    return {
        "cli.import_s": s("cli.import"),
        "cli.resolve_s": s("cli.resolve"),
        "cli.run_s": s("cli.run"),
        "grid.classify_s": s("grid.classify"),
        "grid.label_s": s("grid.label"),
        "grid.cells": n("grid.classify", "cells"),
        "orbits.classify_s": s("orbits.classify"),
        "orbits.point_steps": n("orbits.classify", "point_steps"),
        "orbits.point_steps_per_s": _ratio(n("orbits.classify", "point_steps"), s("orbits.classify")),
        "orbits.decided_ratio": _ratio(n("orbits.classify", "decided"), n("orbits.classify", "classified")),
        "serialize.write_s": write_s,
        "serialize.grid_csv_s": s("serialize.grid_csv"),
        "serialize.bytes": nbytes,
        "serialize.mb_per_s": _ratio(nbytes / 1e6, write_s),
        "measure.calibrate_s": s("measure.calibrate"),
        "measure.calibration_walks_per_s": _ratio(n("measure.calibrate", "walks"), s("measure.calibrate")),
        "measure.walk_s": s("measure.walk"),
        "measure.walks_per_s": _ratio(n("measure.walk", "samples"), s("measure.walk")),
        "measure.hit_ratio": _ratio(n("measure.walk", "hits"), n("measure.walk", "samples")),
        "boundary.periodic_s": s("boundary.periodic"),
        "boundary.newton_s": s("boundary.newton"),
        "boundary.access_s": s("boundary.access"),
        "boundary.access_vertices": n("boundary.access", "vertices"),
        "boundary.scan_s": s("boundary.scan"),
        "branches.pullback_s": s("branches.pullback"),
        "catalog.postsingular_s": s("catalog.postsingular"),
        "hyperbolic.audit_s": s("hyperbolic.audit"),
        "hyperbolic.audit_points_per_s": _ratio(n("hyperbolic.audit", "points"), s("hyperbolic.audit")),
        "blaschke.periodic_s": s("blaschke.periodic"),
        "blaschke.periodic_points": n("blaschke.periodic", "points"),
        "blaschke.denjoy_wolff_s": s("blaschke.denjoy_wolff"),
        "blaschke.candidate_s": s("blaschke.candidate"),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: tracer.py --spans FILE <fatoulab CLI arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import fatoulab.cli as cli

    tracer.record("cli.import", start, time.perf_counter(), None)
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
