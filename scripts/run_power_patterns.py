#!/usr/bin/env python3
"""Reproduce the 2D power-pattern study on the default setup.

Writes deterministic sweeps and emulated measurements for:
  * the surface removed (all elements off),
  * the surface powered off (structural reflection only),
  * reflective and active focusing on the P1 and P2 targets,
as grid CSVs plus PGM heatmaps, and prints a peak summary table.
"""
import argparse
import math
from dataclasses import replace
from pathlib import Path

from rissim.errors import NoPeakError
from rissim.geom import spherical_to_cartesian
from rissim.io_cli import HEATMAP_LEVELS_DBM, export_heatmap, load_scenario, write_power_grid_csv
from rissim.linkbudget import ReflectionCoefficient
from rissim.optimizer import optimize_config, uniform_config
from rissim.sweep import emulate_measurement_grid, find_peak, sweep_power


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", metavar="FILE", help="scenario YAML (defaults built in)")
    parser.add_argument("--outdir", default="results/patterns", help="output directory")
    parser.add_argument("--seed", type=int, help="sounder noise seed (default: the scenario's)")
    args = parser.parse_args()

    doc = load_scenario(args.scenario)
    scenario = doc.scenario
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    sounder = doc.sounder if args.seed is None else replace(doc.sounder, rng_seed=args.seed)

    cases = [
        ("no_ris", uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")),
        (
            "powered_off",
            uniform_config(
                scenario.layout, doc.alphabets["off_structural"].states[0], "off_structural"
            ),
        ),
    ]
    for name in sorted(doc.targets):
        target = spherical_to_cartesian(doc.targets[name])
        for alphabet_name in ("reflective", "active"):
            alphabet = doc.alphabets[alphabet_name]
            config = optimize_config(scenario, target, alphabet)
            cases.append((f"{alphabet_name}_{name}", config))

    print(f"{'case':<18} {'sim peak':>10} {'meas peak':>10} {'at (x, y)':>16}")
    for name, config in cases:
        sim = sweep_power(scenario, config, doc.grid, label=f"sim:{name}")
        meas = emulate_measurement_grid(
            scenario, config, doc.grid, sounder, label=f"meas:{name}"
        )
        for kind, grid in (("sim", sim), ("meas", meas)):
            with open(outdir / f"{name}_{kind}.csv", "w", newline="") as f:
                write_power_grid_csv(grid, f)
            export_heatmap(grid, *HEATMAP_LEVELS_DBM, outdir / f"{name}_{kind}.pgm")

        def peak_text(grid):
            try:
                return f"{find_peak(grid).power_dbm:8.2f}"
            except NoPeakError:
                return "   floor"

        meas_peak = find_peak(meas)
        print(
            f"{name:<18} {peak_text(sim):>10} {peak_text(meas):>10}  "
            f"({meas_peak.x:.2f}, {meas_peak.y:.2f}) "
            f"az {math.degrees(math.atan2(meas_peak.y, meas_peak.x)):5.1f} deg"
        )
    print(f"\nwrote grids and heatmaps to {outdir}/")


if __name__ == "__main__":
    main()
