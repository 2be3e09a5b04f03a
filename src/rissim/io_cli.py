"""Scenario files, CSV/heatmap serialization, and the command-line interface.

Scenario files are YAML with unit-suffixed keys (frequency_ghz, pitch_mm,
tx_power_dbm, ...). Unknown keys are rejected; missing keys fall back to the
built-in defaults of the 127-element setup. Each value must have its default's
type: a finite number, an integer, a string or a mapping; an integer literal
is accepted for a number key and echoed as written. Every load echoes the
fully resolved document to stderr so runs are auditable.

File formats (all deterministic byte-for-byte for identical inputs):

* power grid CSV: one `# x0,y0,dx,dy,nx,ny,z_plane,label` header line with
  the values in that order, then `i,j,x,y,power_dbm` per cell (x-major),
  `-inf` for below-floor cells, 6 significant digits;
* element layout CSV: `m,x,y,z` header plus one row per element;
* configuration CSV: `# <alphabet>` then `m,state,magnitude,phase_deg` rows,
  m = 0, 1, 2, ... in file order, state the index in the named alphabet
  (the reader also accepts -1, which matches any state);
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
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import GeometryError, ValidationError
from .geom import RisLayout, SphericalCoord, hex_layout, spherical_to_cartesian
from .linkbudget import (
    BELOW_FLOOR_DBM,
    AntennaPattern,
    ReflectionCoefficient,
    RisConfig,
    Scenario,
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
_SOUNDER = SounderParams()  # the sounder defaults are SounderParams' field defaults

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
        # Powered-off elements still reflect structurally: a uniform magnitude
        # calibrated so the switched-off setup peaks near -80 dBm on the default grid.
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
        "averages": _SOUNDER.averages,
        "window_start_tap": _SOUNDER.window_start,
        "window_stop_tap": _SOUNDER.window_stop,
        "noise_figure_db": _SOUNDER.noise_figure_db,
        "temperature_k": _SOUNDER.temperature_k,
        "bandwidth_mhz": _SOUNDER.bandwidth_hz / 1e6,
        "rng_seed": _SOUNDER.rng_seed,
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
    return f"{float(value) + 0.0:.6g}"  # + 0.0 turns -0.0 into 0.0


_LEAF_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}
# PyYAML reads an exponent literal without a mantissa dot as a string.
_EXPONENT_HINT = " (YAML reads 1e-3 as text; write 1.0e-3)"
_ZERO_TARGET = {"range_m": 0.0, "azimuth_deg": 0.0, "elevation_deg": 0.0}


def _is_number_text(value) -> bool:
    """Whether a value is a string that float() reads, such as YAML's text '1e-3'."""
    if not isinstance(value, str):
        return False
    try:
        float(value)
    except ValueError:
        return False
    return True


def _is_finite(value: int | float) -> bool:
    """False for inf, NaN and an integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _merge(defaults: dict, user: dict, prefix: str = "") -> dict:
    """Defaults-ordered deep merge that checks each value by its default's type.

    Unknown keys are rejected, except a new target name, which merges onto the
    zero coordinate. The user's literals are kept for the echo.
    """
    out: dict = {}
    for key, default in defaults.items():
        path = f"{prefix}{key}"
        if isinstance(default, dict):
            value = user.get(key, {})
            if not isinstance(value, dict):
                raise ValidationError(f"{path}: expected a mapping")
            if path == "targets":
                default = {name: default.get(name, _ZERO_TARGET) for name in (*default, *value)}
            out[key] = _merge(default, value, prefix=f"{path}.")
        elif key in user:
            value = user[key]
            types, noun = _LEAF_TYPES[type(default)]
            number = isinstance(default, float)
            if isinstance(value, bool) or not isinstance(value, types):
                hint = _EXPONENT_HINT if number and _is_number_text(value) else ""
                raise ValidationError(f"{path}: expected {noun}, got {value!r}{hint}")
            if number and not _is_finite(value):
                raise ValidationError(f"{path}: must be finite")
            out[key] = value
        else:
            out[key] = default
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


def _coord(values: dict) -> SphericalCoord:
    return SphericalCoord(
        float(values["range_m"]), float(values["azimuth_deg"]), float(values["elevation_deg"])
    )


def resolve_scenario(user: dict) -> ScenarioDoc:
    """Validate a raw mapping, fill defaults, and build the runtime objects."""
    if not isinstance(user, dict):
        raise ValidationError("scenario file must contain a mapping at the top level")
    resolved = _merge(DEFAULTS, user)

    freq_ghz = float(resolved["frequency_ghz"])
    if freq_ghz <= 0:
        raise ValidationError(f"frequency_ghz: must be > 0, got {freq_ghz}")

    bs, ue, ris = resolved["bs"], resolved["ue"], resolved["ris"]
    rings = ris["rings"]
    user_ris = user.get("ris", {})
    if "rings" not in user_ris and "element_count" in user_ris:
        rings = _rings_for_count(ris["element_count"])
    count = 3 * rings * (rings + 1) + 1
    if "element_count" in user_ris and ris["element_count"] != count:
        raise ValidationError(
            f"ris.element_count: {ris['element_count']} inconsistent with rings={rings} "
            f"(expect {count})"
        )
    ris["rings"] = rings
    ris["element_count"] = count

    scenario = Scenario(
        frequency_hz=freq_ghz * 1e9,
        tx_power_dbm=float(resolved["tx_power_dbm"]),
        bs_position=spherical_to_cartesian(_coord(bs)),
        bs_pattern=AntennaPattern(float(bs["gain_dbi"]), float(bs["pattern_exponent"])),
        ue_pattern=AntennaPattern(float(ue["gain_dbi"]), float(ue["pattern_exponent"])),
        element_pattern=AntennaPattern(0.0, float(ris["element_pattern_exponent"])),
        layout=hex_layout(
            rings,
            float(ris["pitch_mm"]) * 1e-3,
            float(ris["element_width_mm"]) * 1e-3,
            float(ris["element_height_mm"]) * 1e-3,
        ),
    )

    g = resolved["grid"]
    step = float(g["step_m"])
    if step <= 0:
        raise ValidationError("grid.step_m: must be > 0")

    def _steps(axis: str) -> int:
        n = (float(g[f"{axis}_stop_m"]) - float(g[f"{axis}_start_m"])) / step
        if abs(n - round(n)) > 1e-6 or round(n) < 0:
            raise ValidationError(f"grid.{axis}_stop_m: span not an integer number of steps")
        return int(round(n)) + 1

    grid = GridSpec(
        x0=float(g["x_start_m"]),
        y0=float(g["y_start_m"]),
        dx=step,
        dy=step,
        nx=_steps("x"),
        ny=_steps("y"),
        z_plane=float(g["z_plane_m"]),
    )

    snd = resolved["sounder"]
    sounder = SounderParams(
        averages=snd["averages"],
        window_start=snd["window_start_tap"],
        window_stop=snd["window_stop_tap"],
        noise_figure_db=float(snd["noise_figure_db"]),
        temperature_k=float(snd["temperature_k"]),
        bandwidth_hz=float(snd["bandwidth_mhz"]) * 1e6,
        rng_seed=snd["rng_seed"],
    )

    off_state = ReflectionCoefficient(
        float(ris["off_state_magnitude"]), float(ris["off_state_phase_deg"])
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

    return ScenarioDoc(
        scenario=scenario,
        grid=grid,
        sounder=sounder,
        alphabets=alphabets,
        alphabet_name=alphabet_name,
        targets={name: _coord(tgt) for name, tgt in resolved["targets"].items()},
        resolved=resolved,
    )


def load_scenario(path: str | Path | None) -> ScenarioDoc:
    """Load a scenario file; None or an empty file yields the full defaults."""
    if path is None:
        return resolve_scenario({})
    import yaml
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
    import yaml
    return yaml.safe_dump(doc.resolved, sort_keys=False, default_flow_style=False)


# ----------------------------- CSV / PGM -----------------------------


def write_layout_csv(layout: RisLayout, stream) -> None:
    stream.write("m,x,y,z\n")
    for m, e in enumerate(layout.elements):
        stream.write(f"{m},{_fmt(e.x)},{_fmt(e.y)},{_fmt(e.z)}\n")


def write_config_csv(config: RisConfig, stream, alphabet: ReflectionAlphabet) -> None:
    stream.write(f"# {config.alphabet_name}\n")
    stream.write("m,state,magnitude,phase_deg\n")
    for m, c in enumerate(config.coefficients):
        stream.write(f"{m},{alphabet.index_of(c)},{_fmt(c.magnitude)},{_fmt(c.phase_deg)}\n")


def read_config_csv(
    stream, alphabets: dict[str, ReflectionAlphabet] | None = None
) -> RisConfig:
    """Read a configuration file; state indices must be integers >= -1.

    When alphabets holds the alphabet the header names, every coefficient must
    be one of its states and every state index >= 0 must match it; -1
    matches any state.
    """
    header = stream.readline().rstrip("\r\n")
    if not header.startswith("# "):
        raise ValidationError("configuration file must start with '# <alphabet>'")
    name = header[2:]
    alphabet = (alphabets or {}).get(name)
    columns = stream.readline().rstrip("\r\n")
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


@lru_cache(maxsize=1)
def _grid_template(spec: GridSpec) -> str:
    """The data rows of a grid CSV, x-major, each ending in a `%.6g` slot for its power."""
    ys = [_fmt(spec.y0 + spec.dy * j) for j in range(spec.ny)]
    rows = []
    for i in range(spec.nx):
        x = _fmt(spec.x0 + spec.dx * i)
        rows.extend(f"{i},{j},{x},{y},%.6g\n" for j, y in enumerate(ys))
    return "".join(rows)


def write_power_grid_csv(grid: PowerGrid, stream) -> None:
    s = grid.spec
    stream.write(
        f"# {_fmt(s.x0)},{_fmt(s.y0)},{_fmt(s.dx)},{_fmt(s.dy)},{s.nx},{s.ny},"
        f"{_fmt(s.z_plane)},{grid.label}\n"
    )
    # '%.6g' is _fmt's format: adding 0.0 turns -0.0 into 0 as _fmt does, and -inf writes as '-inf'
    power = np.where(grid.values <= BELOW_FLOOR_DBM, -np.inf, grid.values + 0.0)
    stream.write(_grid_template(s) % tuple(power.ravel().tolist()))


_GRID_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("power", np.float64)])


def _parse_grid_rows(rows: list[str]) -> np.ndarray:
    """(i, j, power) of each `i,j,x,y,power` row in one pass; x and y are not read."""
    return np.loadtxt(rows, delimiter=",", usecols=(0, 1, 4), dtype=_GRID_ROW, comments=None, ndmin=1)


def read_power_grid_csv(stream) -> PowerGrid:
    """Read a grid CSV; blank lines are skipped and the rows may come in any order.

    Rejects, naming the line where there is one: rows that are not five
    fields with integer i, j and a number power, powers that are NaN or +inf,
    cells out of range, fewer rows than cells, and cells given twice. The
    (nx, ny) array is allocated only after all of these checks.
    """
    header = stream.readline().rstrip("\r\n")
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
    text = stream.read()
    lines = text.split("\n")
    rows = list(filter(str.strip, lines))

    def line_of(row: int) -> int:
        """File line of a row: the header is line 1 and blank lines hold no row."""
        return int(np.flatnonzero([bool(line.strip()) for line in lines])[row]) + 2

    if not rows:
        raise ValidationError("grid file does not cover every cell")
    try:
        cells = _parse_grid_rows(rows)
    except ValueError:
        cells = None
    # a row with more than five fields parses, but adds commas
    if cells is None or text.count(",") != 4 * cells.size:
        for k, row in enumerate(rows):  # name the first bad row in file order
            if row.count(",") != 4:
                raise ValidationError(f"grid line {line_of(k)}: expected 5 fields")
            try:
                _parse_grid_rows([row])
            except ValueError as exc:
                reason = re.sub(r" at row \d+", "", str(exc))
                raise ValidationError(f"grid line {line_of(k)}: {reason}") from None
    i, j, power = cells["i"], cells["j"], cells["power"]

    bad = np.flatnonzero(np.isnan(power) | (power == np.inf))
    if bad.size:
        k = bad[0]
        raise ValidationError(f"grid line {line_of(k)}: power {power[k]} must be finite or -inf")
    bad = np.flatnonzero((i < 0) | (i >= spec.nx) | (j < 0) | (j >= spec.ny))
    if bad.size:
        k = bad[0]
        raise ValidationError(f"grid line {line_of(k)}: cell ({i[k]}, {j[k]}) out of range")
    if cells.size < spec.nx * spec.ny:
        raise ValidationError("grid file does not cover every cell")
    flat = i * spec.ny + j
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][np.diff(flat[order]) == 0]
    if repeats.size:
        k = repeats.min()
        first = np.flatnonzero(flat == flat[k])[0]
        raise ValidationError(
            f"grid line {line_of(k)}: cell ({i[k]}, {j[k]}) repeats line {line_of(first)}"
        )
    # in range, none repeated and at least nx * ny of them: exactly one row per cell
    values = np.empty((spec.nx, spec.ny))
    values[i, j] = np.where(power == -np.inf, BELOW_FLOOR_DBM, power)
    return PowerGrid(spec, values, label=fields[7])


def write_schedule_csv(schedule: UpdateSchedule, stream) -> None:
    stream.write("t_s,x,y,z,config_hash,rho_a,rho_r\n")
    for e in schedule.events:
        stream.write(
            f"{_fmt(e.t_s)},{_fmt(e.position.x)},{_fmt(e.position.y)},{_fmt(e.position.z)},"
            f"{e.config_hash},{_fmt(e.rho_a)},{_fmt(e.rho_r)}\n"
        )


# Default (black, white) levels of a heatmap in dBm: the sounder floor to a focused peak.
HEATMAP_LEVELS_DBM = (-100.0, -50.0)


def _check_heatmap_levels(min_dbm: float, max_dbm: float) -> None:
    if not min_dbm < max_dbm:
        raise ValidationError("heatmap needs min_dbm < max_dbm")
    if not (math.isfinite(min_dbm) and math.isfinite(max_dbm)):
        raise ValidationError("heatmap levels must be finite")


def export_heatmap(grid: PowerGrid, min_dbm: float, max_dbm: float, path: str | Path) -> None:
    """Write an 8-bit binary PGM, one pixel per cell.

    Pixel columns run along +x and rows top-down along -y (top row is the
    largest y). Below-floor cells clamp to min_dbm (black).
    """
    _check_heatmap_levels(min_dbm, max_dbm)
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


def _alphabet(doc: ScenarioDoc, args) -> ReflectionAlphabet:
    """The --alphabet named on the command line, else the scenario's default."""
    name = args.alphabet or doc.alphabet_name
    if name not in doc.alphabets:
        raise ValidationError(f"--alphabet: {name!r} is not one of {sorted(doc.alphabets)}")
    return doc.alphabets[name]


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
    config = _resolve_config(doc, args)
    _emit(lambda f: write_config_csv(config, f, doc.alphabets[config.alphabet_name]), args.out)
    return 0


def _cmd_grid(args) -> int:
    """sweep (the model) or emulate (the sounder) over the scenario grid."""
    doc = _load_doc(args)
    sources = [args.config is not None, args.all_off, args.off_structural, args.target is not None]
    if sum(sources) != 1:
        raise ValidationError(
            "exactly one of --config, --all-off, --off-structural, --target is required"
        )
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
    if args.motion != "radial" and args.end is None:
        raise ValidationError(f"--motion {args.motion} requires --end")
    unread = "--end" if args.motion == "radial" else "--distance"
    if getattr(args, unread[2:]) is not None:
        raise ValidationError(f"--motion {args.motion} does not take {unread}")
    if args.motion == "arc":
        waypoints = arc_waypoints(start, _parse_target(doc, args.end))
    elif args.motion == "line":
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


def _add_grid_command(sub, name: str, help_text: str) -> argparse.ArgumentParser:
    """The sweep or emulate parser: a configuration source and the grid outputs."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", metavar="FILE", help="element configuration CSV")
    p.add_argument("--all-off", action="store_true", help="all elements off (zero)")
    p.add_argument(
        "--off-structural", action="store_true", help="uniform powered-off structural state"
    )
    p.add_argument("--target", metavar="T", help="optimize for a target first")
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

    p = sub.add_parser("hpbw", help="half-power beamwidth along one axis")
    p.add_argument("--target", required=True, metavar="T")
    p.add_argument("--axis", required=True, choices=("azimuth", "elevation"))
    p.add_argument("--config", metavar="FILE")
    p.add_argument("--alphabet", metavar="NAME")
    p.set_defaults(func=_cmd_beam)

    p = sub.add_parser("ellipse", help="half-power focus ellipse at a target")
    p.add_argument("--target", required=True, metavar="T")
    p.add_argument("--config", metavar="FILE")
    p.add_argument("--alphabet", metavar="NAME")
    p.set_defaults(func=_cmd_beam)

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

    snd = DEFAULTS["sounder"]
    p = sub.add_parser("noise-floor", help="thermal noise floor in dBm")
    p.add_argument("--temp-k", type=float, default=snd["temperature_k"])
    p.add_argument("--bw-mhz", type=float, default=snd["bandwidth_mhz"])
    p.add_argument("--q", type=int, default=snd["averages"])
    p.add_argument("--nf-db", type=float, default=snd["noise_figure_db"])
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
