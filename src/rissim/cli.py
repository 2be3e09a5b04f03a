"""The `rissim` command line: one subcommand per model operation.

Exit codes: 0 success, 1 validation/usage error, 2 geometry or numeric error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import GeometryError, ValidationError
from .geom import SphericalCoord, hex_layout, spherical_to_cartesian
from .io_cli import (
    HEATMAP_LEVELS_DBM,
    ScenarioDoc,
    _check_heatmap_levels,
    _coord,
    _fmt,
    echo_scenario,
    export_heatmap,
    load_scenario,
    read_config_csv,
    read_power_grid_csv,
    write_config_csv,
    write_layout_csv,
    write_power_grid_csv,
    write_schedule_csv,
)
from .linkbudget import ReflectionCoefficient, RisConfig, noise_floor
from .optimizer import optimize_config, uniform_config
from .planner import Trajectory, arc_waypoints, focus_ellipse, plan_updates, radial_waypoints
from .sweep import SounderParams, compare_grids, emulate_measurement_grid, hpbw, sweep_power


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 via ValidationError, not SystemExit(2)
        raise ValidationError(f"{message}\n{self.format_usage()}")


def _parse_target(doc: ScenarioDoc, text: str) -> SphericalCoord:
    if text in doc.targets:
        return doc.targets[text]
    try:
        r, azimuth, elevation = map(float, text.split(","))
    except ValueError:  # not three numbers
        raise ValidationError(
            f"target {text!r}: use a named target ({', '.join(sorted(doc.targets))}) "
            "or 'range_m,azimuth_deg,elevation_deg'"
        ) from None
    values = {"range_m": r, "azimuth_deg": azimuth, "elevation_deg": elevation}
    return _coord(values, f"target {text!r}")


def _load_doc(args) -> ScenarioDoc:
    doc = load_scenario(getattr(args, "scenario", None))
    sys.stderr.write(echo_scenario(doc))
    return doc


def _resolve_config(doc: ScenarioDoc, args) -> RisConfig:
    """The configuration named on the command line.

    That is the --config file, else --all-off or --off-structural (sweep and
    emulate only), else the optimum for --target. The model checks the
    configuration's length where it applies it. --alphabet goes with --target only.
    """
    given = [f for f in ("config", "all_off", "off_structural") if getattr(args, f, None)]
    if given and args.alphabet is not None:
        raise ValidationError(f"--alphabet does not apply to --{given[0].replace('_', '-')}")
    if getattr(args, "config", None) is not None:
        with open(args.config) as f:
            return read_config_csv(f, doc.alphabets)
    if getattr(args, "all_off", False):
        return uniform_config(doc.scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")
    if getattr(args, "off_structural", False):
        off = doc.alphabets["off_structural"]
        return uniform_config(doc.scenario.layout, off.states[0], off.name)
    alphabet = doc.alphabet(args.alphabet, "--alphabet")
    target = spherical_to_cartesian(_parse_target(doc, args.target))
    return optimize_config(doc.scenario, target, alphabet)


def _emit(text_writer, path) -> None:
    """Run text_writer against the --out file or stdout."""
    if path is None:
        text_writer(sys.stdout)
    else:
        with open(path, "w", newline="") as f:
            text_writer(f)


def _cmd_layout(args) -> int:
    doc = _load_doc(args)
    base, ris = doc.scenario.layout, doc.resolved["ris"]
    rings = args.rings if args.rings is not None else ris["rings"]
    pitch = float(args.pitch_mm if args.pitch_mm is not None else ris["pitch_mm"]) * 1e-3
    layout = hex_layout(rings, pitch, base.d_y, base.d_z)
    _emit(lambda f: write_layout_csv(layout, f), args.out)
    return 0


def _cmd_optimize(args) -> int:
    doc = _load_doc(args)
    config = _resolve_config(doc, args)
    _emit(lambda f: write_config_csv(config, f, doc.alphabets[config.alphabet_name]), args.out)
    return 0


def _cmd_grid(args) -> int:
    """sweep (the model) or emulate (the sounder) over the scenario grid."""
    doc = _load_doc(args)
    config = _resolve_config(doc, args)
    grid = doc.grid
    if args.points_compat:
        if grid.nx < 2:
            raise ValidationError("--points-compat needs at least two x rows")
        grid = replace(grid, nx=grid.nx - 1)
    if args.pgm is not None:
        _check_heatmap_levels(args.min_dbm, args.max_dbm)
    label = args.label if args.label is not None else f"{args.command}:{config.alphabet_name}"
    if args.command == "sweep":
        result = sweep_power(doc.scenario, config, grid, label=label)
    else:
        seed = doc.sounder.rng_seed if args.seed is None else args.seed
        sounder = replace(doc.sounder, rng_seed=seed, noise_enabled=not args.no_noise)
        result = emulate_measurement_grid(doc.scenario, config, grid, sounder, label=label)
    _emit(lambda f: write_power_grid_csv(result, f), args.out)
    if args.pgm is not None:
        export_heatmap(result, args.min_dbm, args.max_dbm, args.pgm)
    return 0


def _cmd_beam(args) -> int:
    """hpbw (one axis) or ellipse (both axes) of the beam at --target."""
    doc = _load_doc(args)
    target = _parse_target(doc, args.target)
    config = _resolve_config(doc, args)
    if args.command == "hpbw":
        width = hpbw(doc.scenario, config, target, args.axis)
        print(f"hpbw_deg={_fmt(width)}")
        return 0
    ellipse = focus_ellipse(doc.scenario, config, target)
    print(f"rho_a_m={_fmt(ellipse.rho_a)}")
    print(f"rho_r_m={_fmt(ellipse.rho_r)}")
    print(f"center_x_m={_fmt(ellipse.center.x)}")
    print(f"center_y_m={_fmt(ellipse.center.y)}")
    print(f"center_z_m={_fmt(ellipse.center.z)}")
    return 0


def _cmd_plan(args) -> int:
    doc = _load_doc(args)
    start = _parse_target(doc, args.start)
    needed, unread = ("--distance", "--end") if args.motion == "radial" else ("--end", "--distance")
    if getattr(args, unread[2:]) is not None:
        raise ValidationError(f"--motion {args.motion} does not take {unread}")
    if getattr(args, needed[2:]) is None:
        raise ValidationError(f"--motion {args.motion} requires {needed}")
    if args.motion == "arc":
        waypoints = arc_waypoints(start, _parse_target(doc, args.end))
    elif args.motion == "line":
        waypoints = (
            spherical_to_cartesian(start),
            spherical_to_cartesian(_parse_target(doc, args.end)),
        )
    else:  # radial
        waypoints = radial_waypoints(start, args.distance)
    trajectory = Trajectory(waypoints, args.speed)
    schedule = plan_updates(doc.scenario, trajectory, doc.alphabet(args.alphabet, "--alphabet"))
    _emit(lambda f: write_schedule_csv(schedule, f), args.out)
    mean = "nan" if schedule.mean_interval_s is None else _fmt(schedule.mean_interval_s)
    sys.stderr.write(f"events={len(schedule.events)} mean_interval_s={mean}\n")
    return 0


def _cmd_compare(args) -> int:
    with open(args.grid_a) as f:
        a = read_power_grid_csv(f)
    with open(args.grid_b) as f:
        b = read_power_grid_csv(f)
    result = compare_grids(a, b, args.floor_dbm)
    print(f"peak_offset_m={_fmt(result.peak_offset_m)}")
    print(f"peak_delta_db={_fmt(result.peak_delta_db)}")
    print(f"rmse_db={_fmt(result.rmse_db)}")
    print(f"threshold_dbm={_fmt(args.floor_dbm)}")
    return 0


def _cmd_noise_floor(args) -> int:
    """Each flag, else the --scenario file's sounder, else the built-in sounder."""
    snd = _load_doc(args).sounder if args.scenario else SounderParams()
    value = noise_floor(
        snd.temperature_k if args.temp_k is None else args.temp_k,
        snd.bandwidth_hz if args.bw_mhz is None else args.bw_mhz * 1e6,
        snd.averages if args.q is None else args.q,
        snd.noise_figure_db if args.nf_db is None else args.nf_db,
    )
    print(f"{value:.1f} dBm")
    return 0


def _add_grid_command(sub, name: str, help_text: str) -> argparse.ArgumentParser:
    """The sweep or emulate parser: exactly one configuration source and the grid outputs."""
    p = sub.add_parser(name, help=help_text)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="FILE", help="element configuration CSV")
    source.add_argument("--all-off", action="store_true", help="all elements off (zero)")
    source.add_argument(
        "--off-structural", action="store_true", help="uniform powered-off structural state"
    )
    source.add_argument("--target", metavar="T", help="optimize for a target first")
    p.add_argument("--alphabet", metavar="NAME", help="alphabet for --target")
    p.add_argument("--out", metavar="FILE", help="grid CSV output (default stdout)")
    p.add_argument("--pgm", metavar="FILE", help="also write a PGM heatmap")
    p.add_argument("--min-dbm", type=float, default=HEATMAP_LEVELS_DBM[0], help="heatmap black level")
    p.add_argument("--max-dbm", type=float, default=HEATMAP_LEVELS_DBM[1], help="heatmap white level")
    p.add_argument(
        "--points-compat",
        action="store_true",
        help="drop the last x row (30 x 46 sampling instead of 31 x 46)",
    )
    p.add_argument("--label", help="grid label")
    p.set_defaults(func=_cmd_grid)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rissim", description="RIS link-budget simulator and planner")
    parser.add_argument("--scenario", metavar="FILE", help="scenario YAML (defaults built in)")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("layout", help="emit element positions CSV")
    p.add_argument("--rings", type=int, help="hexagonal ring count")
    p.add_argument("--pitch-mm", type=float, help="element pitch in mm")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_layout)

    p = sub.add_parser("optimize", help="optimize a configuration for a target")
    p.add_argument("--target", required=True, metavar="T", help="target name or r,az,el")
    p.add_argument("--alphabet", metavar="NAME")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_optimize)

    _add_grid_command(sub, "sweep", "deterministic power grid")
    p = _add_grid_command(sub, "emulate", "noisy measurement-pipeline grid")
    p.add_argument("--seed", type=int, help="override the sounder seed")
    p.add_argument("--no-noise", action="store_true", help="disable the noise source")

    beam = argparse.ArgumentParser(add_help=False)  # the sources hpbw and ellipse share
    beam.add_argument("--target", required=True, metavar="T")
    beam.add_argument("--config", metavar="FILE")
    beam.add_argument("--alphabet", metavar="NAME")
    beam.set_defaults(func=_cmd_beam)
    p = sub.add_parser("hpbw", parents=[beam], help="half-power beamwidth along one axis")
    p.add_argument("--axis", required=True, choices=("azimuth", "elevation"))
    sub.add_parser("ellipse", parents=[beam], help="half-power focus ellipse at a target")

    p = sub.add_parser("plan", help="reconfiguration schedule along a trajectory")
    p.add_argument("--start", required=True, metavar="T")
    p.add_argument("--end", metavar="T")
    p.add_argument("--motion", required=True, choices=("arc", "line", "radial"))
    p.add_argument("--distance", type=float, help="radial travel in meters")
    p.add_argument("--speed", type=float, default=1.0, help="speed in m/s")
    p.add_argument("--alphabet", metavar="NAME")
    p.add_argument("--out", metavar="FILE", help="schedule CSV output (default stdout)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("compare", help="compare two power grid CSV files")
    p.add_argument("grid_a")
    p.add_argument("grid_b")
    p.add_argument("--floor-dbm", type=float, default=-90.0)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("noise-floor", help="thermal noise floor in dBm")
    p.add_argument("--temp-k", type=float)
    p.add_argument("--bw-mhz", type=float)
    p.add_argument("--q", type=int)
    p.add_argument("--nf-db", type=float)
    p.set_defaults(func=_cmd_noise_floor)

    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise ValidationError(f"missing command\n{parser.format_usage()}")
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValidationError, OSError, GeometryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, GeometryError) else 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
