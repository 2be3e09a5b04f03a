"""Scenario files and the CSV and heatmap file formats.

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
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .geom import RisLayout, SphericalCoord, hex_layout, spherical_to_cartesian
from .linkbudget import AntennaPattern, ReflectionCoefficient, RisConfig, Scenario
from .optimizer import ACTIVE, REFLECTIVE, ReflectionAlphabet
from .sweep import GridSpec, PowerGrid, SounderParams

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

    def alphabet(self, name: str | None, key: str) -> ReflectionAlphabet:
        """The alphabet called name, else the default; key names the source in an error."""
        name = name or self.alphabet_name
        if name not in self.alphabets:
            raise ValidationError(f"{key}: {name!r} is not one of {sorted(self.alphabets)}")
        return self.alphabets[name]


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


def _coord(values: dict, path: str) -> SphericalCoord:
    try:
        return SphericalCoord(
            float(values["range_m"]), float(values["azimuth_deg"]), float(values["elevation_deg"])
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


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
        bs_position=spherical_to_cartesian(_coord(bs, "bs")),
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
        if n < -1e-6:
            raise ValidationError(f"grid.{axis}_stop_m: below grid.{axis}_start_m")
        if n == math.inf:
            raise ValidationError(f"grid.{axis}_stop_m: span is not a finite number of steps")
        if abs(n - round(n)) > 1e-6:
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
    doc = ScenarioDoc(
        scenario=scenario,
        grid=grid,
        sounder=sounder,
        alphabets=alphabets,
        alphabet_name=resolved["alphabet"],
        targets={name: _coord(tgt, f"targets.{name}") for name, tgt in resolved["targets"].items()},
        resolved=resolved,
    )
    doc.alphabet(None, "alphabet")
    return doc


def load_scenario(path: str | Path | None) -> ScenarioDoc:
    """Load a scenario file; None or an empty file yields the full defaults."""
    if path is None:
        return resolve_scenario({})
    import yaml

    class Loader(yaml.SafeLoader):  # rejects a key given twice in one mapping
        def compose_mapping_node(self, anchor):
            node, seen = super().compose_mapping_node(anchor), set()
            for key, _ in node.value:  # the explicit keys: a key may override a << merge
                if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                    name = self.construct_object(key)
                    if name in seen:
                        where = f"{path}, line {key.start_mark.line + 1}"
                        raise ValidationError(f"scenario key {name!r} given twice in {where}")
                    seen.add(name)
            return node

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file: {exc}") from exc
    try:
        data = yaml.load(text, Loader=Loader)
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


def read_config_csv(stream, alphabets: dict[str, ReflectionAlphabet]) -> RisConfig:
    """Read a configuration file; state indices must be integers >= -1.

    When alphabets holds the alphabet the header names, every coefficient must
    be one of its states and every state index >= 0 must match it; -1
    matches any state.
    """
    header = stream.readline().rstrip("\r\n")
    if not header.startswith("# "):
        raise ValidationError("configuration file must start with '# <alphabet>'")
    name = header[2:]
    alphabet = alphabets.get(name)
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
    ys = [_fmt(y) for y in spec.y_coords()]
    rows = []
    for i, x in enumerate(map(_fmt, spec.x_coords())):
        rows.extend(f"{i},{j},{x},{y},%.6g\n" for j, y in enumerate(ys))
    return "".join(rows)


def write_power_grid_csv(grid: PowerGrid, stream) -> None:
    s = grid.spec
    stream.write(
        f"# {_fmt(s.x0)},{_fmt(s.y0)},{_fmt(s.dx)},{_fmt(s.dy)},{s.nx},{s.ny},"
        f"{_fmt(s.z_plane)},{grid.label}\n"
    )
    # '%.6g' is _fmt's format: adding 0.0 turns -0.0 into 0 as _fmt does, and -inf writes as '-inf'
    stream.write(_grid_template(s) % tuple((grid.values + 0.0).ravel().tolist()))


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
    values[i, j] = power
    return PowerGrid(spec, values, label=fields[7])


def write_schedule_csv(schedule, stream) -> None:
    """Write a planner.UpdateSchedule's events, one row each (io_cli does not load the planner)."""
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
    if not math.isfinite(max_dbm - min_dbm):
        raise ValidationError("heatmap level span max_dbm - min_dbm must be finite")


def export_heatmap(grid: PowerGrid, min_dbm: float, max_dbm: float, path: str | Path) -> None:
    """Write an 8-bit binary PGM, one pixel per cell.

    Pixel columns run along +x and rows top-down along -y (top row is the
    largest y). Below-floor cells (-inf) clamp to min_dbm (black).
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
