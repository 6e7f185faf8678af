"""Benchmark of the fatoulab CLI: end-to-end timings, output checks, traced layers.

Usage, from the root of a checkout:

    python3 bench/run.py --workload basins-deep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each operation is one ``python -m fatoulab <subcommand>`` process, started
fresh with the checkout's ``src/`` as the only package path, writing into a
fresh output directory, followed by the checks in ``oracles.py``. A round
runs every operation of the workload once; a run repeats whole rounds for
``--seconds`` and reports medians over rounds. With ``--trace 1`` every round
also runs each operation through ``tracer.py`` and the per-layer metrics are
reported instead of the end-to-end ones. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Invocation  # noqa: E402

OUT = BENCH / "out"
RESULTS = BENCH / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no source tree, wrong package)."""


@dataclass
class Process:
    code: int
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    out: Path


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONHOME", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def preflight(env: dict) -> None:
    """The CLI under test must be the checkout's src/, never an installed copy."""
    if not (ROOT / "src" / "fatoulab" / "cli.py").is_file():
        raise SetupError(f"no fatoulab source tree under {ROOT / 'src'}")
    probe = subprocess.run(
        [sys.executable, "-c",
         "import importlib.util as u; print(u.find_spec('fatoulab').origin)"],
        env=env, capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    origin = Path(probe.stdout.strip() or "/nonexistent").resolve()
    if probe.returncode != 0 or ROOT / "src" not in origin.parents:
        raise SetupError(f"fatoulab resolves to {origin}, not to {ROOT / 'src'}")
    # Byte-compile once so no timed process pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)


def spawn(argv: list[str], env: dict, work: Path) -> Process:
    """Run one process to exit; time it, read its peak RSS and its set-up time.

    Set-up is spawn to the moment the CLI writes resolved_config.json, which
    it does right after the config is resolved and before any work.
    """
    out = work / "out"
    with open(work / "stderr.txt", "wb") as err:
        spawned_ns = time.time_ns()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv + ["--out", str(out)], env=env, cwd=work,
                                stdin=subprocess.DEVNULL, stdout=err, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    resolved = out / "resolved_config.json"
    setup = (resolved.stat().st_mtime_ns - spawned_ns) / 1e9 if resolved.exists() else wall
    return Process(proc.returncode, wall, setup, usage.ru_maxrss / 1024.0, out)


class Run:
    """One benchmark run of one workload: rounds of operations and their checks."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.invocations: list[Invocation] = WORKLOADS[workload](seed)
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages: list[str] = []
        # digest -> check verdict: identical bytes get the identical verdict.
        self.verdicts: dict[str, bool] = {}
        self.digests = self._load_digests()
        self.work = OUT / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for inv in self.invocations:
            (self.work / f"{inv.name}.config.json").write_text(json.dumps(inv.config))

    # -- digests shared by every run of this workload and seed in the checkout

    def _digest_path(self) -> Path:
        return RESULTS / f"digests-{self.workload}-{self.seed}.json"

    def _load_digests(self) -> dict:
        path = self._digest_path()
        return json.loads(path.read_text()) if path.exists() else {}

    def save_digests(self) -> None:
        RESULTS.mkdir(parents=True, exist_ok=True)
        self._digest_path().write_text(json.dumps(self.digests, indent=1, sort_keys=True))

    # -- operations

    def operation(self, inv: Invocation, traced: bool) -> Process:
        """One CLI process and its checks; a non-zero exit or a failed check fails it."""
        work = self.work / (f"{inv.name}-traced" if traced else inv.name)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        config = str(self.work / f"{inv.name}.config.json")
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(work / "spans.json"),
                    inv.subcommand, "--config", config]
        else:
            argv = [sys.executable, "-m", "fatoulab", inv.subcommand, "--config", config]
        proc = spawn(argv, self.env, work)
        self.attempted += 1
        if proc.code != 0:
            self.failed += 1
            tail = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            self.messages.append(f"{inv.name}: exit {proc.code} {' '.join(tail)}")
        elif not self.checked(inv, proc.out):
            self.failed += 1
        return proc

    def checked(self, inv: Invocation, out: Path) -> bool:
        """Check one output; an unreadable output fails the operation, a wrong one the run."""
        digest = oracles.output_digest(out)
        if digest not in self.verdicts:
            rng = np.random.default_rng([self.seed, len(self.verdicts)])
            try:
                errors = oracles.CHECKS[inv.subcommand](out, inv.config, rng)
                self.verdicts[digest] = not errors
                self.correct &= not errors
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
                self.verdicts[digest] = False
            self.messages += [f"{inv.name}: {e}" for e in errors[:20]]
        known = self.digests.setdefault(inv.name, digest)
        if known != digest:
            self.messages.append(f"{inv.name}: outputs differ from an earlier run with this seed")
            self.correct = False
        return self.verdicts[digest] and known == digest

    def round(self) -> dict:
        """Every operation once; with tracing, also once more under the tracer."""
        procs = [self.operation(inv, False) for inv in self.invocations]
        result = {
            "wall_s": sum(p.wall_s for p in procs),
            "setup_s": sum(p.setup_s for p in procs),
            "peak_rss_mb": max(p.peak_rss_mb for p in procs),
        }
        if self.trace:
            spans, overhead = [], 0.0
            for inv, plain in zip(self.invocations, procs):
                traced = self.operation(inv, True)
                if traced.code != 0 or plain.code != 0:
                    continue
                spans.append(json.loads((traced.out.parent / "spans.json").read_text()))
                overhead += (oracles.read_json(traced.out / "summary.json")["wall_time"]
                             - oracles.read_json(plain.out / "summary.json")["wall_time"])
            result = tracer.layer_metrics(spans)
            result["trace.overhead_s"] = overhead
        return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, trace)
    rounds: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    # Whole rounds only, and none that would end past the run length.
    while not rounds or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        rounds.append(run.round())
        last = time.perf_counter() - t0
        if not trace:
            print(f"{workload}: round {len(rounds)}: " + ", ".join(
                f"{name} {rounds[-1][name]:.4f}" for name in END_TO_END_UNITS))
    run.save_digests()
    units = tracer.UNITS if trace else END_TO_END_UNITS
    metrics = {
        name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
        for name, unit in units.items()
    }
    for msg in dict.fromkeys(run.messages):
        print(f"{workload}: {msg}")
    print(f"{workload}: {len(rounds)} rounds in {time.perf_counter() - start:.1f} s, "
          f"{run.attempted} operations attempted, {run.failed} failed")
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight(child_env())
    except (SetupError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
