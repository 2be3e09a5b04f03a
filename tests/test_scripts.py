"""Smoke tests for the experiment scripts, the package imports and the entry points."""
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import assert_matches_golden, child_env, run_script, script_output_hashes


def test_update_planning_script_is_byte_reproducible(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        cp = run_script("run_update_planning.py", "--outdir", str(outdir))
        assert cp.returncode == 0, cp.stderr
        outputs.append(
            {name: (outdir / name).read_bytes() for name in ("arc_p2_to_p1.csv", "radial_from_p2.csv")}
        )
    assert outputs[0] == outputs[1]
    assert all(outputs[0].values())
    assert_matches_golden("run_update_planning.py", script_output_hashes(tmp_path / "a"))


def test_power_patterns_script_is_byte_reproducible(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        cp = run_script("run_power_patterns.py", "--outdir", str(outdir))
        assert cp.returncode == 0, cp.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    # six cases, a simulated and an emulated grid each, as CSV and PGM
    assert len(outputs[0]) == 24
    assert outputs[0] == outputs[1]
    assert all(outputs[0].values())
    assert_matches_golden("run_power_patterns.py", script_output_hashes(tmp_path / "a"))


def test_power_patterns_script_uses_the_scenario_sounder(tmp_path):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("sounder: {averages: 5, rng_seed: 4}\n")
    for seed in ([], ["--seed", "7"]):
        outdir = tmp_path / f"out{len(seed)}"
        cp = run_script("run_power_patterns.py", "--scenario", str(scenario), "--outdir", str(outdir), *seed)
        assert cp.returncode == 0, cp.stderr
        cli = tmp_path / f"cli{len(seed)}.csv"
        cp = subprocess.run(
            [sys.executable, "-m", "rissim", "--scenario", str(scenario), "emulate", "--all-off",
             *seed, "--label", "meas:no_ris", "--out", str(cli)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert cp.returncode == 0, cp.stderr
        assert (outdir / "no_ris_meas.csv").read_bytes() == cli.read_bytes()


def test_model_modules_import_without_the_cli():
    imports = {
        "rissim.geom, rissim.linkbudget, rissim.optimizer, rissim.sweep, rissim.planner":
            ("rissim.io_cli", "rissim.cli", "yaml", "argparse", "hashlib"),
        "rissim.io_cli": ("rissim.cli", "rissim.planner", "yaml", "argparse", "hashlib"),
    }
    for modules, absent in imports.items():
        code = f"import sys, {modules}; print(sorted(m for m in {absent!r} if m in sys.modules))"
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == "[]\n", modules


def test_console_script_is_what_python_m_rissim_runs():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["scripts"] == {"rissim": "rissim.cli:main"}
    import rissim.__main__
    import rissim.cli

    assert rissim.__main__.main is rissim.cli.main
