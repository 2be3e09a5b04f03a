"""Scenario files, CSV/heatmap serialization, and the command-line interface.

Scenario files are YAML with unit-suffixed keys (frequency_ghz, pitch_mm,
tx_power_dbm, ...). Unknown keys are rejected; missing keys fall back to the
built-in defaults of the 127-element setup. Every load echoes the fully
resolved document to stderr so runs are auditable.

File formats (all deterministic byte-for-byte for identical inputs):

* power grid CSV: one `# x0,y0,dx,dy,nx,ny,z_plane,label` header line with
  the values in that order, then `i,j,x,y,power_dbm` per cell (x-major),
  `-inf` for below-floor cells, 6 significant digits;
* element layout CSV: `m,x,y,z` header plus one row per element;
* configuration CSV: `# <alphabet>` then `m,state,magnitude,phase_deg` rows,
  m = 0, 1, 2, ... in file order, state the index in the named alphabet or
  -1 when no alphabet was known;
* update schedule CSV: `t_s,x,y,z,config_hash,rho_a,rho_r` rows per event;
* heatmaps: binary 8-bit PGM, one pixel per cell, x left to right, y bottom
  to top, linear dB-to-intensity mapping clamped to [min_dbm, max_dbm].

Exit codes: 0 success, 1 validation/usage error, 2 geometry or numeric error.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .errors import GeometryError, ValidationError
from .geom import RisLayout, SphericalCoord, hex_layout, spherical_to_cartesian
from .linkbudget import (
    BELOW_FLOOR_DBM,
    AntennaPattern,
    ReflectionCoefficient,
    RisConfig,
    Scenario,
    is_below_floor,
    noise_floor,
)
from .optimizer import (
    ACTIVE,
    REFLECTIVE,
    ReflectionAlphabet,
    optimize_config,
    uniform_config,
)
from .planner import (
    Trajectory,
    UpdateSchedule,
    arc_waypoints,
    focus_ellipse,
    plan_updates,
    radial_waypoints,
)
from .sweep import (
    GridSpec,
    PowerGrid,
    SounderParams,
    compare_grids,
    emulate_measurement_grid,
    hpbw,
    sweep_power,
)

# Horn exponent q solving 2*(q+1) = linear gain of the 19 dBi feed.
_BS_DEFAULT_EXPONENT = 10.0**1.9 / 2.0 - 1.0

DEFAULTS: dict = {
    "frequency_ghz": 23.8,
    "tx_power_dbm": 10.0,
    "bs": {
        "range_m": 1.86,
        "azimuth_deg": -36.0,
        "elevation_deg": 0.0,
        "gain_dbi": 19.0,
        "pattern_exponent": _BS_DEFAULT_EXPONENT,
    },
    "ue": {
        "gain_dbi": 3.2,
        "pattern_exponent": 0.0,
    },
    "ris": {
        "rings": 6,
        "element_count": 127,
        "pitch_mm": 8.7,
        "element_width_mm": 6.6,
        "element_height_mm": 6.6,
        "element_pattern_exponent": 1.0,
        "off_state_magnitude": 0.157,
        "off_state_phase_deg": 0.0,
    },
    "grid": {
        "x_start_m": 0.92,
        "x_stop_m": 1.52,
        "y_start_m": 0.02,
        "y_stop_m": 0.92,
        "step_m": 0.02,
        "z_plane_m": -0.39,
    },
    "sounder": {
        "averages": 50,
        "window_start_tap": 7,
        "window_stop_tap": 13,
        "noise_figure_db": 9.0,
        "temperature_k": 293.0,
        "bandwidth_mhz": 155.0,
        "rng_seed": 0,
    },
    "targets": {
        "P1": {"range_m": 1.4, "azimuth_deg": 40.0, "elevation_deg": -16.0},
        "P2": {"range_m": 1.4, "azimuth_deg": 10.0, "elevation_deg": -16.0},
    },
    "alphabet": "reflective",
}


@dataclass
class ScenarioDoc:
    """A fully resolved scenario file: model, grid, sounder, targets, alphabets."""

    scenario: Scenario
    grid: GridSpec
    sounder: SounderParams
    alphabets: dict[str, ReflectionAlphabet]
    alphabet_name: str
    targets: dict[str, SphericalCoord]
    resolved: dict


_STATE_INDEX = re.compile(r"-1|0|[1-9][0-9]*")  # canonical integers >= -1


def _fmt(value: float) -> str:
    v = float(value)
    if v == 0.0:  # normalize -0.0
        v = 0.0
    return f"{v:.6g}"


def _require_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key}: expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ValidationError(f"{key}: must be finite")
    return float(value)


def _require_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{key}: expected an integer, got {value!r}")
    return value


def _merge(defaults: dict, user: dict, prefix: str = "") -> dict:
    """Defaults-ordered deep merge; any key absent from defaults is rejected."""
    out: dict = {}
    for key, default_value in defaults.items():
        path = f"{prefix}{key}"
        if key in user:
            value = user[key]
            if isinstance(default_value, dict):
                if not isinstance(value, dict):
                    raise ValidationError(f"{path}: expected a mapping")
                if key == "targets":
                    merged = dict(default_value)
                    for name, tgt in value.items():
                        if not isinstance(tgt, dict):
                            raise ValidationError(f"{path}.{name}: expected a mapping")
                        base = merged.get(name, {"range_m": 0.0, "azimuth_deg": 0.0, "elevation_deg": 0.0})
                        merged[name] = _merge(base, tgt, prefix=f"{path}.{name}.")
                    out[key] = merged
                else:
                    out[key] = _merge(default_value, value, prefix=f"{path}.")
            else:
                out[key] = value
        else:
            out[key] = default_value if not isinstance(default_value, dict) else _merge(default_value, {}, prefix=f"{path}.")
    for key in user:
        if key not in defaults:
            raise ValidationError(f"unknown key: {prefix}{key}")
    return out


def _rings_for_count(count: int) -> int:
    # invert count = 3 r (r + 1) + 1
    r = (math.isqrt(12 * (count - 1) + 9) - 3) // 6 if count >= 1 else -1
    if r < 0 or 3 * r * (r + 1) + 1 != count:
        raise ValidationError(f"ris.element_count: {count} is not a centered hexagonal count")
    return r


def resolve_scenario(user: dict) -> ScenarioDoc:
    """Validate a raw mapping, fill defaults, and build the runtime objects."""
    if not isinstance(user, dict):
        raise ValidationError("scenario file must contain a mapping at the top level")
    resolved = _merge(DEFAULTS, user)

    freq_ghz = _require_number(resolved["frequency_ghz"], "frequency_ghz")
    if freq_ghz <= 0:
        raise ValidationError(f"frequency_ghz: must be > 0, got {freq_ghz}")
    tx_dbm = _require_number(resolved["tx_power_dbm"], "tx_power_dbm")

    bs = resolved["bs"]
    bs_coord = SphericalCoord(
        _require_number(bs["range_m"], "bs.range_m"),
        _require_number(bs["azimuth_deg"], "bs.azimuth_deg"),
        _require_number(bs["elevation_deg"], "bs.elevation_deg"),
    )
    bs_pattern = AntennaPattern(
        _require_number(bs["gain_dbi"], "bs.gain_dbi"),
        _require_number(bs["pattern_exponent"], "bs.pattern_exponent"),
    )
    ue = resolved["ue"]
    ue_pattern = AntennaPattern(
        _require_number(ue["gain_dbi"], "ue.gain_dbi"),
        _require_number(ue["pattern_exponent"], "ue.pattern_exponent"),
    )

    ris = resolved["ris"]
    rings = _require_int(ris["rings"], "ris.rings")
    if "rings" not in user.get("ris", {}) and "element_count" in user.get("ris", {}):
        rings = _rings_for_count(_require_int(ris["element_count"], "ris.element_count"))
    count = 3 * rings * (rings + 1) + 1
    if "element_count" in user.get("ris", {}):
        declared = _require_int(ris["element_count"], "ris.element_count")
        if declared != count:
            raise ValidationError(
                f"ris.element_count: {declared} inconsistent with rings={rings} (expect {count})"
            )
    ris["rings"] = rings
    ris["element_count"] = count
    layout = hex_layout(
        rings,
        _require_number(ris["pitch_mm"], "ris.pitch_mm") * 1e-3,
        _require_number(ris["element_width_mm"], "ris.element_width_mm") * 1e-3,
        _require_number(ris["element_height_mm"], "ris.element_height_mm") * 1e-3,
    )
    element_pattern = AntennaPattern(
        0.0, _require_number(ris["element_pattern_exponent"], "ris.element_pattern_exponent")
    )

    scenario = Scenario(
        frequency_hz=freq_ghz * 1e9,
        tx_power_dbm=tx_dbm,
        bs_position=spherical_to_cartesian(bs_coord),
        bs_pattern=bs_pattern,
        ue_pattern=ue_pattern,
        element_pattern=element_pattern,
        layout=layout,
    )

    g = resolved["grid"]
    step = _require_number(g["step_m"], "grid.step_m")
    if step <= 0:
        raise ValidationError("grid.step_m: must be > 0")

    def _steps(start: float, stop: float, key: str) -> int:
        n = (stop - start) / step
        if abs(n - round(n)) > 1e-6 or round(n) < 0:
            raise ValidationError(f"{key}: span not an integer number of steps")
        return int(round(n)) + 1

    x0 = _require_number(g["x_start_m"], "grid.x_start_m")
    y0 = _require_number(g["y_start_m"], "grid.y_start_m")
    grid = GridSpec(
        x0=x0,
        y0=y0,
        dx=step,
        dy=step,
        nx=_steps(x0, _require_number(g["x_stop_m"], "grid.x_stop_m"), "grid.x_stop_m"),
        ny=_steps(y0, _require_number(g["y_stop_m"], "grid.y_stop_m"), "grid.y_stop_m"),
        z_plane=_require_number(g["z_plane_m"], "grid.z_plane_m"),
    )

    snd = resolved["sounder"]
    sounder = SounderParams(
        averages=_require_int(snd["averages"], "sounder.averages"),
        window_start=_require_int(snd["window_start_tap"], "sounder.window_start_tap"),
        window_stop=_require_int(snd["window_stop_tap"], "sounder.window_stop_tap"),
        noise_figure_db=_require_number(snd["noise_figure_db"], "sounder.noise_figure_db"),
        temperature_k=_require_number(snd["temperature_k"], "sounder.temperature_k"),
        bandwidth_hz=_require_number(snd["bandwidth_mhz"], "sounder.bandwidth_mhz") * 1e6,
        rng_seed=_require_int(snd["rng_seed"], "sounder.rng_seed"),
    )

    off_state = ReflectionCoefficient(
        _require_number(ris["off_state_magnitude"], "ris.off_state_magnitude"),
        _require_number(ris["off_state_phase_deg"], "ris.off_state_phase_deg"),
    )
    alphabets = {
        REFLECTIVE.name: REFLECTIVE,
        ACTIVE.name: ACTIVE,
        "off_structural": ReflectionAlphabet("off_structural", (off_state,)),
    }
    alphabet_name = resolved["alphabet"]
    if alphabet_name not in alphabets:
        raise ValidationError(
            f"alphabet: {alphabet_name!r} is not one of {sorted(alphabets)}"
        )

    targets = {}
    for name, tgt in resolved["targets"].items():
        targets[name] = SphericalCoord(
            _require_number(tgt["range_m"], f"targets.{name}.range_m"),
            _require_number(tgt["azimuth_deg"], f"targets.{name}.azimuth_deg"),
            _require_number(tgt["elevation_deg"], f"targets.{name}.elevation_deg"),
        )

    return ScenarioDoc(
        scenario=scenario,
        grid=grid,
        sounder=sounder,
        alphabets=alphabets,
        alphabet_name=alphabet_name,
        targets=targets,
        resolved=resolved,
    )


def load_scenario(path: str | Path | None) -> ScenarioDoc:
    """Load a scenario file; None or an empty file yields the full defaults."""
    if path is None:
        return resolve_scenario({})
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"scenario parse error in {path}: {exc}") from exc
    return resolve_scenario(data if data is not None else {})


def echo_scenario(doc: ScenarioDoc) -> str:
    """Canonical text of the fully resolved scenario; load/echo is idempotent."""
    return yaml.safe_dump(doc.resolved, sort_keys=False, default_flow_style=False)


# ----------------------------- CSV / PGM -----------------------------


def write_layout_csv(layout: RisLayout, stream) -> None:
    stream.write("m,x,y,z\n")
    for m, e in enumerate(layout.elements):
        stream.write(f"{m},{_fmt(e.x)},{_fmt(e.y)},{_fmt(e.z)}\n")


def write_config_csv(config: RisConfig, stream, alphabet: ReflectionAlphabet | None = None) -> None:
    stream.write(f"# {config.alphabet_name}\n")
    stream.write("m,state,magnitude,phase_deg\n")
    for m, c in enumerate(config.coefficients):
        state = alphabet.index_of(c) if alphabet is not None else -1
        stream.write(f"{m},{state},{_fmt(c.magnitude)},{_fmt(c.phase_deg)}\n")


def read_config_csv(
    stream, alphabets: dict[str, ReflectionAlphabet] | None = None
) -> RisConfig:
    """Read a configuration file; state indices must be integers >= -1.

    When alphabets holds the alphabet the header names, every coefficient must
    be one of its states and every state index >= 0 must match it; -1 (no
    known alphabet when written) matches any state.
    """
    header = stream.readline().rstrip("\n")
    if not header.startswith("# "):
        raise ValidationError("configuration file must start with '# <alphabet>'")
    name = header[2:]
    alphabet = (alphabets or {}).get(name)
    columns = stream.readline().rstrip("\n")
    if columns != "m,state,magnitude,phase_deg":
        raise ValidationError(f"unexpected configuration columns: {columns!r}")
    coeffs = []
    for lineno, line in enumerate(stream, start=3):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValidationError(f"configuration line {lineno}: expected 4 fields")
        if parts[0] != str(len(coeffs)):
            raise ValidationError(
                f"configuration line {lineno}: element index {parts[0]!r}, expected {len(coeffs)}"
            )
        if not _STATE_INDEX.fullmatch(parts[1]):
            raise ValidationError(
                f"configuration line {lineno}: state {parts[1]!r} is not an integer >= -1"
            )
        state = int(parts[1])
        try:
            coeff = ReflectionCoefficient(float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise ValidationError(f"configuration line {lineno}: {exc}") from exc
        if alphabet is not None:
            index = alphabet.index_of(coeff)
            if state >= 0 and state != index:
                raise ValidationError(
                    f"configuration line {lineno}: state {state} does not match "
                    f"({coeff.magnitude}, {coeff.phase_deg} deg), state {index} of alphabet {name!r}"
                )
        coeffs.append(coeff)
    if not coeffs:
        raise ValidationError("configuration file contains no coefficients")
    return RisConfig(tuple(coeffs), name)


def write_power_grid_csv(grid: PowerGrid, stream) -> None:
    s = grid.spec
    if "\n" in grid.label:
        raise ValidationError("grid label must not contain newlines")
    stream.write(
        f"# {_fmt(s.x0)},{_fmt(s.y0)},{_fmt(s.dx)},{_fmt(s.dy)},{s.nx},{s.ny},"
        f"{_fmt(s.z_plane)},{grid.label}\n"
    )
    ys = [(j, _fmt(s.y0 + s.dy * j)) for j in range(s.ny)]
    lines = []
    for i, row in enumerate(grid.values.tolist()):
        x = _fmt(s.x0 + s.dx * i)
        lines.extend(
            f"{i},{j},{x},{y},{'-inf' if is_below_floor(v) else _fmt(v)}\n"
            for (j, y), v in zip(ys, row)
        )
    stream.write("".join(lines))


def read_power_grid_csv(stream) -> PowerGrid:
    header = stream.readline().rstrip("\n")
    if not header.startswith("# "):
        raise ValidationError("grid file must start with '# x0,y0,dx,dy,nx,ny,z_plane,label'")
    fields = header[2:].split(",", 7)
    if len(fields) != 8:
        raise ValidationError("grid header needs 8 comma-separated fields")
    try:
        spec = GridSpec(
            x0=float(fields[0]),
            y0=float(fields[1]),
            dx=float(fields[2]),
            dy=float(fields[3]),
            nx=int(fields[4]),
            ny=int(fields[5]),
            z_plane=float(fields[6]),
        )
    except ValueError as exc:
        raise ValidationError(f"bad grid header: {exc}") from exc
    values = np.full((spec.nx, spec.ny), np.nan)
    for lineno, line in enumerate(stream, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValidationError(f"grid line {lineno}: expected 5 fields")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[4])
        except ValueError as exc:
            raise ValidationError(f"grid line {lineno}: {exc}") from exc
        if not (0 <= i < spec.nx and 0 <= j < spec.ny):
            raise ValidationError(f"grid line {lineno}: cell ({i}, {j}) out of range")
        values[i, j] = BELOW_FLOOR_DBM if v == float("-inf") else v
    if np.any(np.isnan(values)):
        raise ValidationError("grid file does not cover every cell")
    return PowerGrid(spec, values, label=fields[7])


def write_schedule_csv(schedule: UpdateSchedule, stream) -> None:
    stream.write("t_s,x,y,z,config_hash,rho_a,rho_r\n")
    for e in schedule.events:
        stream.write(
            f"{_fmt(e.t_s)},{_fmt(e.position.x)},{_fmt(e.position.y)},{_fmt(e.position.z)},"
            f"{e.config_hash},{_fmt(e.rho_a)},{_fmt(e.rho_r)}\n"
        )


def export_heatmap(grid: PowerGrid, min_dbm: float, max_dbm: float, path: str | Path) -> None:
    """Write an 8-bit binary PGM, one pixel per cell.

    Pixel columns run along +x and rows top-down along -y (top row is the
    largest y). Below-floor cells clamp to min_dbm (black).
    """
    if not min_dbm < max_dbm:
        raise ValidationError("heatmap needs min_dbm < max_dbm")
    norm = (np.clip(grid.values, min_dbm, max_dbm) - min_dbm) / (max_dbm - min_dbm)
    pixels = np.rint(norm * 255.0).astype(np.uint8)
    image = pixels.T[::-1, :]  # (ny, nx), top row = max y
    header = f"P5\n{grid.spec.nx} {grid.spec.ny}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + image.tobytes())
    except OSError as exc:
        raise ValidationError(f"cannot write heatmap: {exc}") from exc


# ----------------------------- CLI -----------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 via ValidationError, not SystemExit(2)
        raise ValidationError(f"{message}\n{self.format_usage()}")


def _parse_target(doc: ScenarioDoc, text: str) -> SphericalCoord:
    if text in doc.targets:
        return doc.targets[text]
    parts = text.split(",")
    if len(parts) == 3:
        try:
            return SphericalCoord(float(parts[0]), float(parts[1]), float(parts[2]))
        except ValueError:
            pass
    raise ValidationError(
        f"target {text!r}: use a named target ({', '.join(sorted(doc.targets))}) "
        "or 'range_m,azimuth_deg,elevation_deg'"
    )


def _load_doc(args) -> ScenarioDoc:
    doc = load_scenario(getattr(args, "scenario", None))
    sys.stderr.write(echo_scenario(doc))
    return doc


def _load_config_file(doc: ScenarioDoc, path) -> RisConfig:
    with open(path) as f:
        config = read_config_csv(f, doc.alphabets)
    if len(config) != len(doc.scenario.layout):
        raise ValidationError(
            f"configuration has {len(config)} entries for {len(doc.scenario.layout)} elements"
        )
    return config


def _alphabet(doc: ScenarioDoc, args) -> ReflectionAlphabet:
    """The --alphabet named on the command line, else the scenario's default."""
    name = args.alphabet or doc.alphabet_name
    if name not in doc.alphabets:
        raise ValidationError(f"--alphabet: {name!r} is not one of {sorted(doc.alphabets)}")
    return doc.alphabets[name]


def _resolve_config(doc: ScenarioDoc, args) -> RisConfig:
    sources = [
        getattr(args, "config", None) is not None,
        bool(getattr(args, "all_off", False)),
        bool(getattr(args, "off_structural", False)),
        getattr(args, "target", None) is not None,
    ]
    if sum(sources) != 1:
        raise ValidationError(
            "exactly one of --config, --all-off, --off-structural, --target is required"
        )
    if args.config is not None:
        return _load_config_file(doc, args.config)
    if args.all_off:
        return uniform_config(doc.scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")
    if args.off_structural:
        off = doc.alphabets["off_structural"]
        return uniform_config(doc.scenario.layout, off.states[0], off.name)
    alphabet = _alphabet(doc, args)
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
    base = doc.scenario.layout
    rings = args.rings if args.rings is not None else base.rings
    pitch = args.pitch_mm * 1e-3 if args.pitch_mm is not None else base.pitch
    layout = hex_layout(rings, pitch, base.d_y, base.d_z)
    _emit(lambda f: write_layout_csv(layout, f), args.out)
    return 0


def _cmd_optimize(args) -> int:
    doc = _load_doc(args)
    alphabet = _alphabet(doc, args)
    target = spherical_to_cartesian(_parse_target(doc, args.target))
    config = optimize_config(doc.scenario, target, alphabet)
    _emit(lambda f: write_config_csv(config, f, alphabet), args.out)
    return 0


def _grid_for(doc: ScenarioDoc, args) -> GridSpec:
    grid = doc.grid
    if getattr(args, "points_compat", False):
        if grid.nx < 2:
            raise ValidationError("--points-compat needs at least two x rows")
        grid = replace(grid, nx=grid.nx - 1)
    return grid


def _cmd_sweep(args) -> int:
    doc = _load_doc(args)
    config = _resolve_config(doc, args)
    grid = _grid_for(doc, args)
    label = args.label if args.label is not None else f"sweep:{config.alphabet_name}"
    result = sweep_power(doc.scenario, config, grid, label=label)
    _emit(lambda f: write_power_grid_csv(result, f), args.out)
    if args.pgm is not None:
        export_heatmap(result, args.min_dbm, args.max_dbm, args.pgm)
    return 0


def _cmd_emulate(args) -> int:
    doc = _load_doc(args)
    config = _resolve_config(doc, args)
    grid = _grid_for(doc, args)
    sounder = doc.sounder
    if args.seed is not None:
        sounder = replace(sounder, rng_seed=args.seed)
    if args.no_noise:
        sounder = replace(sounder, noise_enabled=False)
    label = args.label if args.label is not None else f"emulate:{config.alphabet_name}"
    result = emulate_measurement_grid(doc.scenario, config, grid, sounder, label=label)
    _emit(lambda f: write_power_grid_csv(result, f), args.out)
    if args.pgm is not None:
        export_heatmap(result, args.min_dbm, args.max_dbm, args.pgm)
    return 0


def _config_file_or_optimized(doc: ScenarioDoc, args, target: SphericalCoord) -> RisConfig:
    """The --config file when given, else the configuration optimized for target."""
    if args.config is not None:
        return _load_config_file(doc, args.config)
    alphabet = _alphabet(doc, args)
    return optimize_config(doc.scenario, spherical_to_cartesian(target), alphabet)


def _cmd_hpbw(args) -> int:
    doc = _load_doc(args)
    target = _parse_target(doc, args.target)
    config = _config_file_or_optimized(doc, args, target)
    width = hpbw(doc.scenario, config, target, args.axis)
    print(f"hpbw_deg={_fmt(width)}")
    return 0


def _cmd_ellipse(args) -> int:
    doc = _load_doc(args)
    target = _parse_target(doc, args.target)
    config = _config_file_or_optimized(doc, args, target)
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
    if args.motion == "arc":
        if args.end is None:
            raise ValidationError("--motion arc requires --end")
        waypoints = arc_waypoints(start, _parse_target(doc, args.end))
    elif args.motion == "line":
        if args.end is None:
            raise ValidationError("--motion line requires --end")
        waypoints = (
            spherical_to_cartesian(start),
            spherical_to_cartesian(_parse_target(doc, args.end)),
        )
    else:  # radial
        if args.distance is None:
            raise ValidationError("--motion radial requires --distance")
        waypoints = radial_waypoints(start, args.distance)
    trajectory = Trajectory(waypoints, args.speed)
    alphabet = _alphabet(doc, args)
    schedule = plan_updates(doc.scenario, trajectory, alphabet)
    _emit(lambda f: write_schedule_csv(schedule, f), args.out)
    mean = "nan" if schedule.mean_interval_s is None else _fmt(schedule.mean_interval_s)
    sys.stderr.write(f"events={len(schedule.events)} mean_interval_s={mean}\n")
    return 0


def _cmd_compare(args) -> int:
    with open(args.grid_a) as f:
        a = read_power_grid_csv(f)
    with open(args.grid_b) as f:
        b = read_power_grid_csv(f)
    result = compare_grids(a, b, threshold_dbm=args.floor_dbm)
    print(f"peak_offset_m={_fmt(result.peak_offset_m)}")
    print(f"peak_delta_db={_fmt(result.peak_delta_db)}")
    print(f"rmse_db={_fmt(result.rmse_db)}")
    print(f"threshold_dbm={_fmt(result.threshold_dbm)}")
    return 0


def _cmd_noise_floor(args) -> int:
    value = noise_floor(args.temp_k, args.bw_mhz * 1e6, args.q, args.nf_db)
    print(f"{value:.1f} dBm")
    return 0


def _add_config_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="element configuration CSV")
    parser.add_argument("--all-off", action="store_true", help="all elements off (zero)")
    parser.add_argument(
        "--off-structural", action="store_true", help="uniform powered-off structural state"
    )
    parser.add_argument("--target", metavar="T", help="optimize for a target first")
    parser.add_argument("--alphabet", metavar="NAME", help="alphabet for --target")


def _add_grid_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="FILE", help="grid CSV output (default stdout)")
    parser.add_argument("--pgm", metavar="FILE", help="also write a PGM heatmap")
    parser.add_argument("--min-dbm", type=float, default=-100.0, help="heatmap black level")
    parser.add_argument("--max-dbm", type=float, default=-50.0, help="heatmap white level")
    parser.add_argument(
        "--points-compat",
        action="store_true",
        help="drop the last x row (30 x 46 sampling instead of 31 x 46)",
    )
    parser.add_argument("--label", help="grid label")


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

    p = sub.add_parser("sweep", help="deterministic power grid")
    _add_config_source(p)
    _add_grid_output(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("emulate", help="noisy measurement-pipeline grid")
    _add_config_source(p)
    _add_grid_output(p)
    p.add_argument("--seed", type=int, help="override the sounder seed")
    p.add_argument("--no-noise", action="store_true", help="disable the noise source")
    p.set_defaults(func=_cmd_emulate)

    p = sub.add_parser("hpbw", help="half-power beamwidth along one axis")
    p.add_argument("--target", required=True, metavar="T")
    p.add_argument("--axis", required=True, choices=("azimuth", "elevation"))
    p.add_argument("--config", metavar="FILE")
    p.add_argument("--alphabet", metavar="NAME")
    p.set_defaults(func=_cmd_hpbw)

    p = sub.add_parser("ellipse", help="half-power focus ellipse at a target")
    p.add_argument("--target", required=True, metavar="T")
    p.add_argument("--config", metavar="FILE")
    p.add_argument("--alphabet", metavar="NAME")
    p.set_defaults(func=_cmd_ellipse)

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
    p.add_argument("--temp-k", type=float, default=293.0)
    p.add_argument("--bw-mhz", type=float, default=155.0)
    p.add_argument("--q", type=int, default=50)
    p.add_argument("--nf-db", type=float, default=9.0)
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
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except GeometryError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
