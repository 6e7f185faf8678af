"""The shipped example configs: one per subcommand, each runs through the CLI and exits 0."""

import json
from pathlib import Path

import pytest

import fatoulab.cli as cli

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_one_example_per_subcommand():
    assert sorted(p.stem for p in EXAMPLES.glob("*.json")) == sorted(cli.SUBCOMMANDS)


@pytest.mark.parametrize("sub", cli.SUBCOMMANDS)
def test_example_exits_0(tmp_path, sub):
    out = tmp_path / sub
    assert cli.main([sub, "--config", str(EXAMPLES / f"{sub}.json"), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["errors"] == []
    assert all((out / name).is_file() for name in summary["outputs"])


def test_measure_calibration_ignores_rng_seed(tmp_path):
    """The calibration streams are keyed by constants, so a run seed that once
    drew a failing calibration (8) now passes it like every other seed."""
    out = tmp_path / "measure"
    config = str(EXAMPLES / "measure.json")
    assert cli.main(["measure", "--config", config, "--out", str(out), "--seed", "8"]) == 0
