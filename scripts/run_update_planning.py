#!/usr/bin/env python3
"""Beamwidths, focus ellipses, and reconfiguration schedules for mobile users.

Measures the half-power beamwidths of optimized configurations at the named
targets, derives the half-power focus ellipse on the user plane, and plans
reconfiguration schedules for an azimuth arc (P2 to P1) and a radial ray
(outward through P2) at a configurable speed.
"""
import argparse
from pathlib import Path

from rissim.geom import spherical_to_cartesian
from rissim.io_cli import load_scenario, write_schedule_csv
from rissim.optimizer import optimize_config
from rissim.planner import (
    Trajectory,
    arc_waypoints,
    focus_ellipse,
    plan_updates,
    radial_waypoints,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", metavar="FILE")
    parser.add_argument("--outdir", default="results/planning")
    parser.add_argument("--speed", type=float, default=1.0, help="user speed in m/s")
    parser.add_argument("--radial-distance", type=float, default=0.8)
    args = parser.parse_args()

    doc = load_scenario(args.scenario)
    scenario = doc.scenario
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"{'target':<6} {'alphabet':<12} {'alpha':>7} {'beta':>7} {'rho_a':>8} {'rho_r':>8}")
    for name in sorted(doc.targets):
        target = doc.targets[name]
        for alphabet_name in ("reflective", "active"):
            config = optimize_config(
                scenario, spherical_to_cartesian(target), doc.alphabets[alphabet_name]
            )
            ellipse = focus_ellipse(scenario, config, target)
            print(
                f"{name:<6} {alphabet_name:<12} {ellipse.alpha_deg:6.2f}d {ellipse.beta_deg:6.2f}d "
                f"{ellipse.rho_a * 100:6.1f}cm {ellipse.rho_r * 100:6.1f}cm"
            )

    alphabet = doc.alphabets["active"]
    runs = {
        "arc_p2_to_p1": arc_waypoints(doc.targets["P2"], doc.targets["P1"]),
        "radial_from_p2": radial_waypoints(doc.targets["P2"], args.radial_distance),
    }
    print()
    for name, waypoints in runs.items():
        schedule = plan_updates(scenario, Trajectory(waypoints, args.speed), alphabet)
        path = outdir / f"{name}.csv"
        with open(path, "w", newline="") as f:
            write_schedule_csv(schedule, f)
        mean = schedule.mean_interval_s
        mean_text = f"{mean * 1000:.0f} ms" if mean is not None else "n/a"
        print(
            f"{name}: {len(schedule.events)} reconfigurations at {args.speed} m/s, "
            f"mean interval {mean_text} -> {path}"
        )


if __name__ == "__main__":
    main()
