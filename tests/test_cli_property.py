"""Property test over the command line: edge values in the scenario or in a
number flag give a finite output or a typed error, never a traceback, a
warning or a NaN."""
import contextlib
import io
import math
import re
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rissim.cli import cli_dispatch

# Edge values for number keys: signed zeros, the smallest subnormal, angles at
# their limits, 2**70 (an integer no float step resolves), values whose square
# overflows and 1.7e308, near the largest float, which overflows even as a
# reflection magnitude times a phasor.
_NUMBERS = (0.0, -0.0, 5e-324, 1e-9, 90.0, 180.0, 1e6, 1e300, -1e300, 1.7e308, float(2**70))
_INTEGERS = (-1, 0, 1, 2, 7, 2**70)
_NUMBER_KEYS = (
    "bs.range_m", "bs.azimuth_deg", "bs.elevation_deg", "bs.gain_dbi", "bs.pattern_exponent",
    "ue.gain_dbi", "ue.pattern_exponent",
    "ris.pitch_mm", "ris.element_width_mm", "ris.element_pattern_exponent",
    "ris.off_state_magnitude", "ris.off_state_phase_deg",
    "grid.z_plane_m",
    "targets.P1.range_m", "targets.P1.azimuth_deg", "targets.P1.elevation_deg",
    "tx_power_dbm", "frequency_ghz",
    "sounder.noise_figure_db", "sounder.temperature_k", "sounder.bandwidth_mhz",
)
_INTEGER_KEYS = ("sounder.averages", "sounder.window_start_tap", "sounder.rng_seed")
# ris.rings stays <= 7 (169 elements): the grid's work grows with the element
# count, and a request whose work is proportional to its output is not a defect.
_RINGS = tuple(range(-1, 8))

_OUT, _CONFIG = "OUT", "CONFIG"
_COMMANDS = (
    ["optimize", "--target", "P1"],
    ["optimize", "--target", "P1", "--alphabet", "active"],
    ["hpbw", "--target", "P1", "--axis", "azimuth"],
    ["hpbw", "--target", "P1", "--axis", "elevation", "--alphabet", "active"],
    ["ellipse", "--target", "P1"],
    ["noise-floor"],
    ["sweep", "--target", "P1", "--out", _OUT],
    ["sweep", "--off-structural", "--out", _OUT],
    ["emulate", "--target", "P1", "--alphabet", "active", "--out", _OUT],
    ["emulate", "--off-structural", "--out", _OUT],
    ["plan", "--start", "P1", "--motion", "radial", "--distance", "0.05", "--out", _OUT],
    ["sweep", "--config", _CONFIG, "--out", _OUT],
    ["hpbw", "--target", "P1", "--axis", "azimuth", "--config", _CONFIG],
)
_NOT_FINITE = re.compile(r"nan|(?<!-)inf", re.IGNORECASE)  # -inf marks a below-floor cell
# The one nan an exit-0 run prints to stdout: compare's RMSE when no cell of both
# grids is above a finite floor.
_NO_CELL_ABOVE_FLOOR = re.compile(r"^rmse_db=nan$", re.MULTILINE)

# Number flags, which no scenario check sees, take the edge pool plus the
# values float() reads as not finite. plan samples its path every 1 ms, so a
# slow or long path is work in proportion to its length, not a defect: speeds
# stay >= 0.1 m/s or are not finite or not positive, and distances stay
# <= 0.1 m or are not finite.
_FLAG_NUMBERS = (*_NUMBERS, math.nan, math.inf, -math.inf)
_SPEEDS = tuple(v for v in _FLAG_NUMBERS if v >= 0.1 or not (math.isfinite(v) and v > 0.0))
_DISTANCES = tuple(v for v in _FLAG_NUMBERS if v <= 0.1 or not math.isfinite(v))
_GRID_A, _GRID_B, _PGM = "GRID_A", "GRID_B", "PGM"
# Heatmap levels are drawn as a (--min-dbm, --max-dbm) pair, on a focused grid
# and on an all-off one whose cells are all below the floor. The pair pool adds
# levels around the grids' powers, one under -250 dBm, and -1.7e308, whose span
# to 1.7e308 overflows.
_HEATMAPS = (
    ["sweep", "--target", "P1", "--out", _OUT, "--pgm", _PGM],
    ["sweep", "--all-off", "--out", _OUT, "--pgm", _PGM],
)
_LEVELS = (*_FLAG_NUMBERS, -1.7e308, -300.0, -100.0, -60.0, -50.0)
_RADIAL = ["plan", "--start", "P1", "--motion", "radial", "--out", _OUT]
_FLAGS = (
    (["compare", _GRID_A, _GRID_B], "--floor-dbm", _FLAG_NUMBERS),
    (["noise-floor"], "--temp-k", _FLAG_NUMBERS),
    (["noise-floor"], "--bw-mhz", _FLAG_NUMBERS),
    (["noise-floor"], "--q", _INTEGERS),
    (["noise-floor"], "--nf-db", _FLAG_NUMBERS),
    (["layout", "--out", _OUT], "--rings", _RINGS),
    (["layout", "--out", _OUT], "--pitch-mm", _FLAG_NUMBERS),
    ([*_RADIAL, "--distance", "0.05"], "--speed", _SPEEDS),
    (_RADIAL, "--distance", _DISTANCES),
)
# --flag=value, so that argparse reads a value such as -1e+300 as a value
_FLAG_ARGS = tuple(
    (command, (f"{flag}={value!r}",)) for command, flag, pool in _FLAGS for value in pool
)
_LEVEL_ARGS = st.tuples(
    st.sampled_from(_HEATMAPS),
    st.tuples(st.sampled_from(_LEVELS), st.sampled_from(_LEVELS)).map(
        lambda pair: (f"--min-dbm={pair[0]!r}", f"--max-dbm={pair[1]!r}")
    ),
)

_settings = st.one_of(
    st.tuples(st.sampled_from(_NUMBER_KEYS), st.sampled_from(_NUMBERS)),
    st.tuples(st.sampled_from(_INTEGER_KEYS), st.sampled_from(_INTEGERS)),
    st.tuples(st.just("ris.rings"), st.sampled_from(_RINGS)),
)


def _scenario(keys) -> dict:
    tree: dict = {}
    for path, value in keys:
        *parents, leaf = path.split(".")
        node = tree
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = value
    return tree


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    keys=st.lists(_settings, min_size=1, max_size=3),  # a repeated key keeps its last value
    command=st.sampled_from(_COMMANDS),
    magnitude=st.sampled_from(_NUMBERS),
)
# k^2 or a taper's scale overflows in hpbw's interval bound, which then reads NaN: no bound
@example(keys=[("frequency_ghz", 1.0e155)], command=_COMMANDS[2], magnitude=0.0)
@example(keys=[("frequency_ghz", 1.0e155)], command=_COMMANDS[3], magnitude=0.0)
@example(keys=[("frequency_ghz", 1.0e155)], command=_COMMANDS[4], magnitude=0.0)
@example(keys=[("frequency_ghz", 1.0e155)], command=_COMMANDS[10], magnitude=0.0)
@example(keys=[("ue.pattern_exponent", 1.0e300)], command=_COMMANDS[4], magnitude=0.0)
def test_every_command_gives_finite_output_or_a_typed_error(keys, command, magnitude):
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out, config = (Path(tmp) / name for name in ("s.yaml", "out.csv", "c.csv"))
        scenario.write_text(yaml.safe_dump(_scenario(keys)))
        # a header naming no scenario alphabet: the reader checks no state membership
        rows = "".join(f"{m},0,{magnitude!r},0\n" for m in range(127))
        config.write_text("# bogus\nm,state,magnitude,phase_deg\n" + rows)
        names = {_OUT: str(out), _CONFIG: str(config)}
        _assert_finite_or_typed_error(
            ["--scenario", str(scenario), *(names.get(a, a) for a in command)], out
        )


def _assert_finite_or_typed_error(argv, out, *also_written, printed_nan=None) -> int:
    """Run argv: exit 0 with no nan or +inf in stdout and the out file (apart
    from matches of printed_nan), or exit 1 or 2 with an error line and no file.
    Returns the exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_dispatch(argv)
    assert code in (0, 1, 2)
    if code == 0:
        printed = stdout.getvalue()
        if printed_nan is not None:
            printed = printed_nan.sub("", printed)
        written = out.read_text() if out.exists() else ""
        assert not _NOT_FINITE.search(printed + written)
    else:
        assert any(line.startswith("error: ") for line in stderr.getvalue().splitlines())
        assert not any(path.exists() for path in (out, *also_written))
    return code


def _assert_pixels_follow_the_grid(grid_csv: Path, pgm: Path, min_dbm: float, max_dbm: float):
    """Each pixel is the exact rational clip-and-scale of its cell's CSV power,
    within 1 for the CSV's 6 significant digits; a -inf cell is black."""
    lo, hi = Fraction(min_dbm), Fraction(max_dbm)
    lines = grid_csv.read_text().splitlines()
    nx, ny = (int(v) for v in lines[0][2:].split(",")[4:6])
    header = f"P5\n{nx} {ny}\n255\n".encode()
    data = pgm.read_bytes()
    assert data.startswith(header) and len(data) == len(header) + nx * ny
    pixels = data[len(header):]
    for line in lines[1:]:
        i, j, _, _, power = line.split(",")
        value = lo if power == "-inf" else min(max(Fraction(power), lo), hi)
        want = round((value - lo) * 255 / (hi - lo))
        got = pixels[(ny - 1 - int(j)) * nx + int(i)]  # top row is the largest y
        assert abs(got - want) <= 1, (i, j, power, got, want)


@pytest.fixture(scope="module")
def grids(tmp_path_factory):
    """A sweep and an emulate grid of the default scenario, focused on P1."""
    tmp = tmp_path_factory.mktemp("grids")
    paths = {_GRID_A: tmp / "sweep.csv", _GRID_B: tmp / "emulate.csv"}
    with contextlib.redirect_stderr(io.StringIO()):
        for command, path in zip(("sweep", "emulate"), paths.values()):
            assert cli_dispatch([command, "--target", "P1", "--out", str(path)]) == 0
    return {name: str(path) for name, path in paths.items()}


@settings(max_examples=250, deadline=None, derandomize=True)
@given(flag=st.one_of(st.sampled_from(_FLAG_ARGS), _LEVEL_ARGS))
@example(flag=(_FLAGS[0][0], ("--floor-dbm=nan",)))
@example(flag=(_FLAGS[0][0], ("--floor-dbm=inf",)))
@example(flag=(_HEATMAPS[0], ("--min-dbm=-1.7e+308", "--max-dbm=1.7e+308")))
@example(flag=(_HEATMAPS[1], ("--min-dbm=-300.0", "--max-dbm=-50.0")))
def test_every_number_flag_gives_finite_output_or_a_typed_error(grids, flag):
    command, values = flag
    with tempfile.TemporaryDirectory() as tmp:
        out, pgm = Path(tmp) / "out.csv", Path(tmp) / "out.pgm"
        names = {**grids, _OUT: str(out), _PGM: str(pgm)}
        printed_nan = _NO_CELL_ABOVE_FLOOR if command[0] == "compare" else None
        argv = [*(names.get(a, a) for a in command), *values]
        code = _assert_finite_or_typed_error(argv, out, pgm, printed_nan=printed_nan)
        if code == 0 and pgm.exists():
            levels = dict(value.split("=") for value in values)
            _assert_pixels_follow_the_grid(
                out, pgm, float(levels["--min-dbm"]), float(levels["--max-dbm"])
            )
