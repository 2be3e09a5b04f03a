import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import hpbw_full_scan, write_power_grid_csv_reference

import rissim
from rissim.cli import cli_dispatch
from rissim.errors import ValidationError
from rissim.geom import Vec3, hex_layout, spherical_to_cartesian
from rissim.io_cli import (
    DEFAULTS,
    echo_scenario,
    export_heatmap,
    load_scenario,
    read_config_csv,
    read_power_grid_csv,
    resolve_scenario,
    write_config_csv,
    write_layout_csv,
    write_power_grid_csv,
    write_schedule_csv,
)
from rissim.linkbudget import (
    BELOW_FLOOR_DBM,
    ReflectionCoefficient,
    config_fingerprint,
    noise_floor,
)
from rissim.optimizer import ACTIVE, REFLECTIVE, optimize_config, uniform_config
from rissim.planner import (
    Trajectory,
    UpdateEvent,
    UpdateSchedule,
    plan_updates,
    radial_waypoints,
)
from rissim.sweep import (
    GridSpec,
    PowerGrid,
    SounderParams,
    emulate_measurement_grid,
    find_peak,
    sweep_power,
)

DATA = Path(__file__).parent / "data"

# Scenarios and messages of a link budget that overflows a float.
_FAR_BS = "bs: {range_m: 1.0e+300}\n"
_LOUD_OFF = "ris: {off_state_magnitude: 1.0e+300}\n"
_PHASORS_OVERFLOW = "element phasors at the target are not finite: a distance overflows"
_NAN_POWER = "received power nan mW: a distance or magnitude overflows"
_INF_POWER = "received power inf mW: a distance or magnitude overflows"


def _run_module(*args):
    """`python -m rissim ARGS` in a child that imports the same rissim as the tests."""
    src = str(Path(rissim.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "rissim", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )

LAYOUT_RING1_CSV = """\
m,x,y,z
0,0,0,0
1,0,0.0087,0
2,0,0.00435,0.00753442
3,0,-0.00435,0.00753442
4,0,-0.0087,0
5,0,-0.00435,-0.00753442
6,0,0.00435,-0.00753442
"""

GRID_CSV = """\
# 0.5,0.25,0.25,0.5,2,3,-0.39,unit test
0,0,0.5,0.25,-57.25
0,1,0.5,0.75,-88.1235
0,2,0.5,1.25,-inf
1,0,0.75,0.25,-100
1,1,0.75,0.75,-62.5
1,2,0.75,1.25,-71.3333
"""

SCHEDULE_CSV = """\
t_s,x,y,z,config_hash,rho_a,rho_r
0,1.32532,0.23369,-0.385892,abc123def456,0.0905456,0.351869
0.091,1.3,0.32,-0.385892,fedcba654321,0.0877518,0.343
"""


def _leaves(tree, prefix=""):
    """(dotted path, default) of every leaf of a nested mapping, in order."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _sections(tree, prefix=""):
    """Dotted path of every nested mapping, in order."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield f"{prefix}{key}"
            yield from _sections(value, f"{prefix}{key}.")


def _nested(path, value):
    """{"a": {"b": value}} for the path "a.b"."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


# A new target name merges onto the zero coordinate, so its keys are checked too.
_TYPED_TREE = {**DEFAULTS, "targets": {**DEFAULTS["targets"], "P9": DEFAULTS["targets"]["P1"]}}


def _wrong_values():
    """(path, wrong value, expected wording) for every leaf and section of the format."""
    cases = []
    for path, default in _leaves(_TYPED_TREE):
        if isinstance(default, str):
            cases.append((path, ["a"], "expected a string"))
        elif isinstance(default, int):
            cases += [(path, value, "expected an integer") for value in ("x", True, 2.5)]
        else:
            cases += [(path, value, "expected a number") for value in ("x", True)]
            cases += [(path, value, "must be finite") for value in (math.nan, math.inf)]
    cases += [(path, [1], "expected a mapping") for path in _sections(_TYPED_TREE)]
    return [pytest.param(*case, id=f"{case[0]}={case[1]!r}") for case in cases]


class TestScenarioLoading:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        doc = load_scenario(path)
        assert doc.scenario.frequency_hz == 23.8e9
        assert doc.scenario.tx_power_dbm == 10.0
        assert len(doc.scenario.layout) == 127
        assert doc.scenario.bs_position.x == pytest.approx(1.86 * math.cos(math.radians(36)))
        assert doc.scenario.bs_position.y == pytest.approx(-1.86 * math.sin(math.radians(36)))
        assert set(doc.targets) == {"P1", "P2"}
        assert set(doc.alphabets) == {"reflective", "active", "off_structural"}
        assert doc.alphabet_name == "reflective"
        assert doc.grid == GridSpec(0.92, 0.02, 0.02, 0.02, 31, 46, -0.39)

    def test_default_sounder_is_the_class_default(self):
        # the benchmark builds SounderParams() from the class defaults
        assert resolve_scenario({}).sounder == SounderParams()

    def test_none_matches_empty(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert echo_scenario(load_scenario(None)) == echo_scenario(load_scenario(path))

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValidationError, match="frequency_ghz"):
            resolve_scenario({"frequency_ghz": -1})

    def test_unknown_key_named(self):
        with pytest.raises(ValidationError, match="ris.pich_mm"):
            resolve_scenario({"ris": {"pich_mm": 8.7}})

    def test_predecessor_ring_count(self):
        doc = resolve_scenario({"ris": {"rings": 3}})
        assert len(doc.scenario.layout) == 37
        assert doc.resolved["ris"]["element_count"] == 37

    def test_element_count_derives_rings(self):
        doc = resolve_scenario({"ris": {"element_count": 37}})
        assert doc.resolved["ris"]["rings"] == 3
        assert len(doc.scenario.layout) == 37

    def test_inconsistent_element_count_rejected(self):
        with pytest.raises(ValidationError, match="element_count"):
            resolve_scenario({"ris": {"rings": 3, "element_count": 127}})
        with pytest.raises(ValidationError, match="element_count"):
            resolve_scenario({"ris": {"element_count": 12}})

    def test_extra_targets_accepted(self):
        doc = resolve_scenario(
            {"targets": {"P9": {"range_m": 2.0, "azimuth_deg": 5.0, "elevation_deg": -10.0}}}
        )
        assert set(doc.targets) == {"P1", "P2", "P9"}
        assert doc.targets["P9"].r == 2.0

    def test_echo_round_trip_idempotent(self, tmp_path):
        first = echo_scenario(load_scenario(None))
        path = tmp_path / "resolved.yaml"
        path.write_text(first)
        second = echo_scenario(load_scenario(path))
        assert first == second

    def test_echo_matches_golden(self):
        assert echo_scenario(load_scenario(None)) == (DATA / "default_scenario_echo.yaml").read_text()

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("frequency_ghz: [unclosed\n")
        with pytest.raises(ValidationError, match="line"):
            load_scenario(path)

    @pytest.mark.parametrize("path, value, wording", _wrong_values())
    def test_value_must_have_its_defaults_type(self, path, value, wording):
        with pytest.raises(ValidationError, match=f"^{re.escape(path)}: {wording}"):
            resolve_scenario(_nested(path, value))

    @pytest.mark.parametrize("path", ["frequency_ghz", "targets.P9.range_m"])
    def test_integer_too_large_for_a_float_rejected(self, path, tmp_path, capsys):
        huge = 10**400
        with pytest.raises(ValidationError, match=f"^{re.escape(path)}: must be finite$"):
            resolve_scenario(_nested(path, huge))
        scenario_file = tmp_path / "huge.yaml"
        *sections, leaf = path.split(".")
        scenario_file.write_text(
            "".join(f"{'  ' * i}{key}:\n" for i, key in enumerate(sections))
            + f"{'  ' * len(sections)}{leaf}: {huge}\n"
        )
        assert cli_dispatch(["--scenario", str(scenario_file), "layout"]) == 1
        assert capsys.readouterr().err == f"error: {path}: must be finite\n"

    def test_exponent_literal_without_a_dot_gets_a_hint(self, tmp_path):
        path = tmp_path / "step.yaml"
        path.write_text("grid: {step_m: 1e-3}\n")
        message = "grid.step_m: expected a number, got '1e-3' (YAML reads 1e-3 as text; write 1.0e-3)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_scenario(path)
        path.write_text("grid: {step_m: 1.0e-3}\n")
        assert load_scenario(path).resolved["grid"]["step_m"] == 1e-3
        with pytest.raises(ValidationError, match=r"^grid\.step_m: expected a number, got 'x'$"):
            resolve_scenario({"grid": {"step_m": "x"}})

    @pytest.mark.parametrize(
        "text, key, line",
        [
            ("frequency_ghz: 23.8\nris:\n  rings: 3\nfrequency_ghz: 28.0\n", "frequency_ghz", 4),
            ("frequency_ghz: 23.8\ngrid: {step_m: 0.02, step_m: 0.05}\n", "step_m", 2),
        ],
        ids=["top-level", "nested"],
    )
    def test_repeated_key_rejected_with_its_line(self, text, key, line, tmp_path, capsys):
        path = tmp_path / "twice.yaml"
        path.write_text(text)
        message = f"scenario key {key!r} given twice in {path}, line {line}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_scenario(path)
        assert cli_dispatch(["--scenario", str(path), "layout"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_key_overriding_a_merged_key_is_not_a_repeat(self, tmp_path):
        path = tmp_path / "merge.yaml"
        path.write_text(
            "targets:\n"
            "  P1: &p {range_m: 1.4, azimuth_deg: 0.0, elevation_deg: -10.0}\n"
            "  P3:\n    <<: *p\n    azimuth_deg: 5.0\n"
        )
        p3 = load_scenario(path).resolved["targets"]["P3"]
        assert p3 == {"range_m": 1.4, "azimuth_deg": 5.0, "elevation_deg": -10.0}
        path.write_text(path.read_text() + "    azimuth_deg: 6.0\n")
        with pytest.raises(ValidationError, match="'azimuth_deg' given twice .* line 6$"):
            load_scenario(path)

    def test_integer_literals_echo_as_written(self):
        doc = resolve_scenario({"frequency_ghz": 24, "grid": {"z_plane_m": -1}})
        assert doc.resolved["frequency_ghz"] == 24
        assert type(doc.resolved["frequency_ghz"]) is int
        assert "frequency_ghz: 24\n" in echo_scenario(doc)
        assert doc.scenario.frequency_hz == 24e9
        assert doc.grid.z_plane == -1.0 and type(doc.grid.z_plane) is float

    def test_off_state_feeds_alphabet(self):
        doc = resolve_scenario({"ris": {"off_state_magnitude": 0.2, "off_state_phase_deg": 10.0}})
        state = doc.alphabets["off_structural"].states[0]
        assert (state.magnitude, state.phase_deg) == (0.2, 10.0)

    @pytest.mark.parametrize(
        "user, message",
        [
            (["frequency_ghz"], "scenario file must contain a mapping at the top level"),
            ({"grid": {"step_m": 0.0}}, "grid.step_m: must be > 0"),
            ({"grid": {"x_stop_m": 1.53}}, "grid.x_stop_m: span not an integer number of steps"),
            ({"grid": {"x_stop_m": 0.5}}, "grid.x_stop_m: below grid.x_start_m"),
            (
                {"alphabet": "bogus"},
                "alphabet: 'bogus' is not one of ['active', 'off_structural', 'reflective']",
            ),
            ({"targets": {"P1": {"azimuth_deg": 200.0}}}, "targets.P1: azimuth 200.0 outside (-180, 180]"),
            ({"targets": {"P3": {"elevation_deg": -95.0}}}, "targets.P3: elevation -95.0 outside [-90, 90]"),
            ({"bs": {"range_m": -1.0}}, "bs: range must be finite and >= 0, got -1.0"),
            ({"grid": {"step_m": 1.0e-320}}, "grid.x_stop_m: span is not a finite number of steps"),
            ({"tx_power_dbm": 4000.0}, "link-budget prefactor (tx power, gains, element size) not finite"),
            (
                {"ris": {"element_width_mm": 1.0e300, "element_height_mm": 1.0e300}},
                "link-budget prefactor (tx power, gains, element size) not finite",
            ),
        ],
        ids=["top-level-list", "zero-step", "half-step-span", "negative-span", "unknown-alphabet",
             "target-azimuth", "new-target-elevation", "bs-range", "tiny-step", "tx-power-overflow",
             "element-size-overflow"],
    )
    def test_resolve_rejections(self, user, message):
        with pytest.raises(ValidationError) as exc:
            resolve_scenario(user)
        assert str(exc.value) == message

    @pytest.mark.parametrize("key", ["alphabet", "--alphabet"])
    def test_alphabet_lookup(self, key):
        doc = resolve_scenario({})
        assert doc.alphabet(None, key) is REFLECTIVE
        assert doc.alphabet("", key) is REFLECTIVE
        assert doc.alphabet("active", key) is ACTIVE
        assert doc.alphabet("off_structural", key) is doc.alphabets["off_structural"]
        assert resolve_scenario({"alphabet": "active"}).alphabet(None, key) is ACTIVE
        with pytest.raises(ValidationError) as exc:
            doc.alphabet("bogus", key)
        assert str(exc.value) == (
            f"{key}: 'bogus' is not one of ['active', 'off_structural', 'reflective']"
        )

    def test_missing_scenario_file_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "missing.yaml"
        assert cli_dispatch(["--scenario", str(missing), "layout"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: cannot read scenario file: [Errno 2] No such file or directory: '{missing}'\n"
        )


class TestCsvFormats:
    def test_layout_golden(self):
        buf = io.StringIO()
        write_layout_csv(hex_layout(1, 8.7e-3, 6.6e-3, 6.6e-3), buf)
        assert buf.getvalue() == LAYOUT_RING1_CSV

    def test_grid_golden_and_round_trip(self):
        spec = GridSpec(0.5, 0.25, 0.25, 0.5, 2, 3, -0.39)
        vals = np.array([[-57.25, -88.123456, BELOW_FLOOR_DBM], [-100.0, -62.5, -71.333333]])
        grid = PowerGrid(spec, vals, label="unit test")
        buf = io.StringIO()
        write_power_grid_csv(grid, buf)
        assert buf.getvalue() == GRID_CSV

        back = read_power_grid_csv(io.StringIO(buf.getvalue()))
        assert back.spec == spec
        assert back.label == "unit test"
        assert back.values[0, 2] == BELOW_FLOOR_DBM
        assert np.allclose(back.values, vals, rtol=1e-4)

        # six-significant-digit formatting is stable under re-serialization
        buf2 = io.StringIO()
        write_power_grid_csv(back, buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_grid_label_may_contain_commas(self):
        spec = GridSpec(0.0, 0.0, 0.1, 0.1, 1, 1, 0.0)
        grid = PowerGrid(spec, np.array([[-60.0]]), label="a,b,c")
        buf = io.StringIO()
        write_power_grid_csv(grid, buf)
        assert read_power_grid_csv(io.StringIO(buf.getvalue())).label == "a,b,c"

    def test_grid_read_strips_crlf_from_the_header(self):
        grid = read_power_grid_csv(io.StringIO("# 0,0,0.1,0.1,1,1,0,lab\r\n0,0,0,0,-60\r\n"))
        assert grid.label == "lab"
        buf = io.StringIO()
        write_power_grid_csv(grid, buf)
        assert buf.getvalue() == "# 0,0,0.1,0.1,1,1,0,lab\n0,0,0,0,-60\n"

    @pytest.mark.parametrize("label", ["a\nb", "a\rb", "lab\r"])
    def test_grid_label_with_line_break_rejected(self, label):
        with pytest.raises(ValidationError, match="newlines"):
            PowerGrid(GridSpec(0.0, 0.0, 0.1, 0.1, 1, 1, 0.0), np.array([[-60.0]]), label=label)

    def test_grid_read_rejects_partial_cover(self):
        text = "# 0,0,0.1,0.1,2,1,0,x\n0,0,0,0,-60\n"
        with pytest.raises(ValidationError, match="every cell"):
            read_power_grid_csv(io.StringIO(text))

    def test_config_round_trip(self, scenario, refl_p1):
        buf = io.StringIO()
        write_config_csv(refl_p1, buf, REFLECTIVE)
        back = read_config_csv(io.StringIO(buf.getvalue()))
        assert back == refl_p1

    def test_negative_zero_magnitude_reads_and_fingerprints_as_zero(self):
        head = "# active\nm,state,magnitude,phase_deg\n0,0,1.25,0\n"
        configs = [
            read_config_csv(io.StringIO(head + f"1,1,{zero},0\n"), {"active": ACTIVE})
            for zero in ("-0", "0")
        ]
        assert configs[0] == configs[1]
        assert config_fingerprint(configs[0]) == config_fingerprint(configs[1])
        assert math.copysign(1, ReflectionCoefficient(-0.0, 30).magnitude) == 1

    def test_config_read_accepts_crlf(self):
        text = "# reflective\r\nm,state,magnitude,phase_deg\r\n0,1,0.3,165\r\n"
        config = read_config_csv(io.StringIO(text), {"reflective": REFLECTIVE})
        assert config.alphabet_name == "reflective"
        assert config.coefficients == (REFLECTIVE.states[1],)

    @pytest.mark.parametrize("index", ["1", "00", "x"])
    def test_config_read_requires_row_ordinal(self, index):
        text = f"# reflective\nm,state,magnitude,phase_deg\n{index},0,0.3,-15\n"
        with pytest.raises(ValidationError, match="element index"):
            read_config_csv(io.StringIO(text))

    @pytest.mark.parametrize("state", ["x", "-2", "01", "+1", "1.0"])
    def test_config_read_requires_integer_state(self, state):
        text = f"# reflective\nm,state,magnitude,phase_deg\n0,{state},0.3,-15\n"
        with pytest.raises(ValidationError, match="state"):
            read_config_csv(io.StringIO(text))

    def test_config_read_checks_state_against_named_alphabet(self):
        alphabets = {"reflective": REFLECTIVE}
        row = "m,state,magnitude,phase_deg\n0,{},0.3,165\n"
        for state in ("1", "-1"):
            text = "# reflective\n" + row.format(state)
            config = read_config_csv(io.StringIO(text), alphabets)
            assert config.coefficients == (REFLECTIVE.states[1],)
        with pytest.raises(ValidationError, match="does not match"):
            read_config_csv(io.StringIO("# reflective\n" + row.format("0")), alphabets)
        # an alphabet the reader does not know cannot contradict the index
        assert len(read_config_csv(io.StringIO("# custom\n" + row.format("0")), alphabets)) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("reflective\n", "configuration file must start with '# <alphabet>'"),
            (
                "# reflective\nm,state,mag,phase\n",
                "unexpected configuration columns: 'm,state,mag,phase'",
            ),
            ("# reflective\nm,state,magnitude,phase_deg\n0,0,0.3\n",
             "configuration line 3: expected 4 fields"),
            ("# reflective\nm,state,magnitude,phase_deg\n0,0,abc,-15\n",
             "configuration line 3: could not convert string to float: 'abc'"),
            ("# reflective\nm,state,magnitude,phase_deg\n0,0,inf,-15\n",
             "configuration line 3: magnitude must be finite and >= 0, got inf"),
            ("# reflective\nm,state,magnitude,phase_deg\n0,0,0.3,nan\n",
             "configuration line 3: phase must be finite"),
            ("# reflective\nm,state,magnitude,phase_deg\n\n",
             "configuration file contains no coefficients"),
        ],
        ids=["first-line", "columns", "three-fields", "magnitude", "inf-magnitude", "nan-phase",
             "no-rows"],
    )
    def test_config_read_rejections(self, text, message):
        with pytest.raises(ValidationError) as exc:
            read_config_csv(io.StringIO(text), {"reflective": REFLECTIVE})
        assert str(exc.value) == message

    def test_negative_zero_written_as_zero(self):
        event = UpdateEvent(-0.0, Vec3(-0.0, 0.5, -0.0), "abc123def456", 0.1, -0.0)
        buf = io.StringIO()
        write_schedule_csv(UpdateSchedule((event,)), buf)
        assert buf.getvalue().splitlines()[1] == "0,0,0.5,0,abc123def456,0.1,0"

    def test_schedule_golden(self):
        events = (
            UpdateEvent(
                0.0, Vec3(1.32532116, 0.23368988, -0.3858923), "abc123def456", 0.0905456, 0.351869
            ),
            UpdateEvent(0.091, Vec3(1.30, 0.32, -0.3858923), "fedcba654321", 0.0877518, 0.343),
        )
        buf = io.StringIO()
        write_schedule_csv(UpdateSchedule(events), buf)
        assert buf.getvalue() == SCHEDULE_CSV


# A 2 x 1 grid; each case below replaces or adds to its data rows.
_GRID_HEADER = "# 0,0,0.1,0.1,2,1,0,x\n"
_GRID_ROWS = "0,0,0,0,-60\n1,0,0.1,0,-61\n"


def _full_grid_with_bad_last_row() -> str:
    """The default 31 x 46 grid whose last row's power does not parse (file line 1427)."""
    rows = [f"{i},{j},0,0,-60\n" for i in range(31) for j in range(46)]
    rows[-1] = "30,45,0,0,-60dB\n"
    return "# 0.92,0.02,0.02,0.02,31,46,-0.39,x\n" + "".join(rows)


class TestGridCsvReader:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,0,0.1,0.1,2,1,0,x\n" + _GRID_ROWS, "must start with"),
            ("# 0,0,0.1,0.1,2,1,0\n" + _GRID_ROWS, "8 comma-separated"),
            ("# 0,zero,0.1,0.1,2,1,0,x\n" + _GRID_ROWS, "bad grid header"),
            ("# 0,0,0.1,0.1,two,1,0,x\n" + _GRID_ROWS, "bad grid header"),
            (_GRID_HEADER + "0,0,0,0,-60\n1,0,0.1,-61\n", r"grid line 3: expected 5 fields"),
            (_GRID_HEADER + "0,0,0,0,-60\n1,0,0.1,0,-61,7\n", r"grid line 3: expected 5 fields"),
            (_GRID_HEADER + "0,0,0,0,-60\n1.0,0,0.1,0,-61\n", r"grid line 3\b"),
            (_GRID_HEADER + "0,0,0,0,-60\n1,zero,0.1,0,-61\n", r"grid line 3\b"),
            (_GRID_HEADER + "0,0,0,0,-60\n1,0,0.1,0,-61dB\n", r"grid line 3\b"),
            (_GRID_HEADER + "0,0,0,0,-60\n1,0,0.1,0,\n", r"grid line 3\b"),
            (_GRID_HEADER + "0,0,0,0,-60\n2,0,0.2,0,-61\n", r"grid line 3: cell \(2, 0\) out of range"),
            (_GRID_HEADER + "0,0,0,0,-60\n1,-1,0.1,0,-61\n", r"grid line 3: cell \(1, -1\) out of range"),
            (_GRID_HEADER + "0,0,0,0,-60\n\n  \n1,0,0.1,0,x\n", r"grid line 5\b"),
            (_GRID_HEADER + "\n \n", "every cell"),
            (_GRID_HEADER + "0,0,0,0,-60,7\n1,zero,0.1,0,-61\n", r"grid line 2: expected 5 fields"),
            (_GRID_HEADER + "0,zero,0,0,-60\n1,0,0.1,0,-61,7\n", r"grid line 2: could not convert"),
            (_full_grid_with_bad_last_row(), r"grid line 1427: could not convert"),
        ],
        ids=[
            "no-hash", "header-7-fields", "header-x0-text", "header-nx-text", "4-fields", "6-fields",
            "i-float", "j-text", "power-text", "power-empty", "i-too-large", "j-negative",
            "line-after-blanks", "no-rows", "6-fields-before-parse-error",
            "parse-error-before-6-fields", "last-row-of-full-grid",
        ],
    )
    def test_malformed_file_rejected(self, text, message):
        with pytest.raises(ValidationError, match=message):
            read_power_grid_csv(io.StringIO(text))

    @pytest.mark.parametrize(
        "rows",
        [
            "\n0,0,0,0,-60\n   \n\t\n1,0,0.1,0,-61\n\n \n",
            "0,0,0,0,-60\r\n1,0,0.1,0,-61\r\n",
            "1,0,0.1,0,-61\n0,0,0,0,-60",
            " 0 , 0 ,0,0, -60 \n+1,0,0.1,0,-61\n",
        ],
        ids=["blank-lines", "crlf", "any-order-no-final-newline", "spaces-and-sign"],
    )
    def test_accepted_layouts(self, rows):
        grid = read_power_grid_csv(io.StringIO(_GRID_HEADER + rows))
        assert grid.spec == GridSpec(0.0, 0.0, 0.1, 0.1, 2, 1, 0.0)
        assert grid.values.tolist() == [[-60.0], [-61.0]]

    def test_x_and_y_are_not_read(self):
        grid = read_power_grid_csv(io.StringIO(_GRID_HEADER + "0,0,a,b,-60\n1,0,,,-61\n"))
        assert grid.values.tolist() == [[-60.0], [-61.0]]

    def test_minus_inf_reads_as_minus_inf(self):
        # the reader keeps the file's below-floor marker
        grid = read_power_grid_csv(io.StringIO(_GRID_HEADER + "0,0,0,0,-inf\n1,0,0.1,0,-1e400\n"))
        assert grid.values.tolist() == [[-math.inf], [-math.inf]] == [[BELOW_FLOOR_DBM]] * 2

    def test_finite_power_under_minus_250_dbm_round_trips(self):
        # only -inf is the floor marker: -300 reads and writes back as -300, not as -inf
        text = _GRID_HEADER + "0,0,0,0,-300\n1,0,0.1,0,-inf\n"
        grid = read_power_grid_csv(io.StringIO(text))
        assert grid.values.tolist() == [[-300.0], [-math.inf]]
        buf = io.StringIO()
        write_power_grid_csv(grid, buf)
        assert buf.getvalue() == text

    @pytest.mark.parametrize(
        "text, message",
        [
            (_GRID_HEADER + _GRID_ROWS + "1,0,0.1,0,-70\n", r"grid line 4: cell \(1, 0\) repeats line 3"),
            (_GRID_HEADER + "0,0,0,0,-60\n0,0,0,0,-70\n", r"grid line 3: cell \(0, 0\) repeats line 2"),
            (_GRID_HEADER + "0,0,0,0,-60\n1,0,0.1,0,nan\n", r"grid line 3: power nan"),
            (_GRID_HEADER + "0,0,0,0,inf\n1,0,0.1,0,-61\n", r"grid line 2: power inf"),
            (_GRID_HEADER + "0,0,0,0,-60\n1,0,0.1,0,1e400\n", r"grid line 3: power inf"),
            ("# inf,0,0.1,0.1,2,1,0,x\n" + _GRID_ROWS, "x0 must be finite"),
            ("# 0,nan,0.1,0.1,2,1,0,x\n" + _GRID_ROWS, "y0 must be finite"),
            ("# 0,0,inf,0.1,2,1,0,x\n" + _GRID_ROWS, "dx must be finite"),
            ("# 0,0,0.1,0.1,2,1,-inf,x\n" + _GRID_ROWS, "z_plane must be finite"),
        ],
        ids=[
            "repeated-cell", "repeated-first-cell", "power-nan", "power-inf", "power-overflow",
            "header-x0-inf", "header-y0-nan", "header-dx-inf", "header-z-minus-inf",
        ],
    )
    def test_silently_accepted_or_misreported_files_rejected(self, text, message):
        with pytest.raises(ValidationError, match=message):
            read_power_grid_csv(io.StringIO(text))

    def test_header_size_is_checked_against_the_rows_before_allocating(self):
        # 10**20 cells: numpy refuses that size outright, so nothing is allocated
        text = "# 0,0,0.1,0.1,10000000000,10000000000,0,x\n0,0,0,0,-60\n"
        with pytest.raises(ValidationError, match="every cell"):
            read_power_grid_csv(io.StringIO(text))

    def test_compare_rejects_malformed_grid(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text(_GRID_HEADER + _GRID_ROWS)
        bad = tmp_path / "bad.csv"
        bad.write_text(_GRID_HEADER + _GRID_ROWS + "1,0,0.1,0,-70\n")
        assert cli_dispatch(["compare", str(good), str(good)]) == 0
        capsys.readouterr()
        assert cli_dispatch(["compare", str(good), str(bad)]) == 1
        assert "grid line 4" in capsys.readouterr().err

def _grid_csv(writer, grid) -> str:
    buf = io.StringIO()
    writer(grid, buf)
    return buf.getvalue()


def _assert_same_csv(grid):
    """The writer's CSV text equals the reference's, or the failure names the first
    differing line: pytest's diff of two whole grid files runs for minutes."""
    got, want = _grid_csv(write_power_grid_csv, grid), _grid_csv(write_power_grid_csv_reference, grid)
    if got != want:
        got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
        differ = (n for n, (g, w) in enumerate(zip(got, want)) if g != w)
        n = next(differ, min(len(got), len(want)))
        pytest.fail(f"line {n + 1} differs: {got[n:n + 1]!r} != reference {want[n:n + 1]!r}")


def _pattern_grids(doc):
    """The sweep and the seed-7 emulated grid of each power-pattern case."""
    scenario = doc.scenario
    configs = [
        uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off"),
        uniform_config(scenario.layout, doc.alphabets["off_structural"].states[0], "off_structural"),
    ]
    for name in sorted(doc.targets):
        target = spherical_to_cartesian(doc.targets[name])
        for alphabet in ("reflective", "active"):
            configs.append(optimize_config(scenario, target, doc.alphabets[alphabet]))
    sounder = SounderParams(rng_seed=7)
    for config in configs:
        yield sweep_power(scenario, config, doc.grid, label=f"sim:{config.alphabet_name}")
        yield emulate_measurement_grid(scenario, config, doc.grid, sounder, label="meas")


class TestGridCsvWriterMatchesReference:
    def test_power_pattern_grids(self, doc):
        grids = list(_pattern_grids(doc))
        assert len(grids) == 12
        for grid in grids:
            _assert_same_csv(grid)

    def test_values_across_magnitudes_and_specs(self):
        rng = np.random.default_rng(11)
        special = [-0.0, 0.0, BELOW_FLOOR_DBM, -250.0000001, -1e300, 1e-7, 1.23456789e7,
                   -62.5, 999999.5, 0.1 + 0.2, math.nan, math.inf, -math.inf]
        a = GridSpec(-0.3, 0.25, 0.02, 1e-3, 7, 9, -0.39)
        b = GridSpec(0.7, -1.25, 0.02, 1e-3, 7, 9, -0.39)
        one = GridSpec(1.0, 2.0, 0.5, 0.5, 1, 1, 0.0)
        for spec in (a, b, one, a):
            cells = spec.nx * spec.ny
            magnitudes = 10.0 ** rng.uniform(-300, 300, cells)
            values = rng.choice([-1.0, 1.0], cells) * magnitudes
            values[: min(cells, len(special))] = special[:cells]
            rng.shuffle(values)
            grid = PowerGrid(spec, values.reshape(spec.nx, spec.ny), label="a,b")
            _assert_same_csv(grid)


class TestHeatmap:
    def test_uniform_grid_uniform_image(self, tmp_path):
        spec = GridSpec(0.0, 0.0, 0.1, 0.1, 4, 3, 0.0)
        grid = PowerGrid(spec, np.full((4, 3), -75.0))
        path = tmp_path / "uniform.pgm"
        export_heatmap(grid, -100.0, -50.0, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n4 3\n255\n")
        pixels = data.split(b"255\n", 1)[1]
        assert len(pixels) == 12
        assert set(pixels) == {128}  # midpoint of the clamp range

    def test_hot_cell_is_white_at_the_right_pixel(self, tmp_path):
        spec = GridSpec(0.0, 0.0, 0.1, 0.1, 4, 3, 0.0)
        vals = np.full((4, 3), BELOW_FLOOR_DBM)
        vals[2, 1] = -50.0
        grid = PowerGrid(spec, vals)
        path = tmp_path / "hot.pgm"
        export_heatmap(grid, -100.0, -50.0, path)
        pixels = path.read_bytes().split(b"255\n", 1)[1]
        image = np.frombuffer(pixels, dtype=np.uint8).reshape(3, 4)
        # row 0 is max y (j = ny-1); hot cell (i=2, j=1) -> row 1, column 2
        assert image[1, 2] == 255
        assert image.sum() == 255

    def test_focus_sweep_brightest_pixel_matches_peak(self, sweep_refl_p1, tmp_path):
        path = tmp_path / "p1.pgm"
        export_heatmap(sweep_refl_p1, -100.0, -50.0, path)
        pixels = path.read_bytes().split(b"255\n", 1)[1]
        ny, nx = sweep_refl_p1.spec.ny, sweep_refl_p1.spec.nx
        image = np.frombuffer(pixels, dtype=np.uint8).reshape(ny, nx)
        row, col = np.unravel_index(np.argmax(image), image.shape)
        peak = find_peak(sweep_refl_p1)
        # 8-bit quantization can tie neighbouring ridge cells; the brightest
        # pixel must carry the peak cell's value and sit within one cell
        assert image[ny - 1 - peak.j, peak.i] == image[row, col]
        assert abs(col - peak.i) <= 1
        assert abs((ny - 1 - row) - peak.j) <= 1

    @pytest.mark.parametrize(
        "levels, message",
        [
            ((-50.0, -50.0), "heatmap needs min_dbm < max_dbm"),
            ((-100.0, math.inf), "heatmap levels must be finite"),
            ((-math.inf, -50.0), "heatmap levels must be finite"),
        ],
        ids=["empty", "max-inf", "min-inf"],
    )
    def test_bad_range_rejected(self, levels, message, sweep_refl_p1, tmp_path):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            export_heatmap(sweep_refl_p1, *levels, tmp_path / "x.pgm")
        assert not (tmp_path / "x.pgm").exists()


class TestCli:
    def test_noise_floor_output(self, capsys):
        code = cli_dispatch(
            ["noise-floor", "--temp-k", "293", "--bw-mhz", "155", "--q", "50", "--nf-db", "9"]
        )
        assert code == 0
        assert capsys.readouterr().out == "-100.0 dBm\n"

    def test_noise_floor_defaults_are_the_scenario_sounder(self, doc, capsys):
        s = doc.sounder
        floor = noise_floor(s.temperature_k, s.bandwidth_hz, s.averages, s.noise_figure_db)
        assert cli_dispatch(["noise-floor"]) == 0
        assert capsys.readouterr().out == f"{floor:.1f} dBm\n"

    def test_noise_floor_reads_the_scenario_sounder(self, tmp_path, capsys):
        five = tmp_path / "five.yaml"
        five.write_text("sounder: {averages: 5}\n")
        assert cli_dispatch(["--scenario", str(five), "noise-floor"]) == 0
        assert capsys.readouterr().out == "-90.0 dBm\n"
        assert cli_dispatch(["--scenario", str(five), "noise-floor", "--q", "50"]) == 0
        assert capsys.readouterr().out == "-100.0 dBm\n"  # a flag still overrides

    @pytest.mark.parametrize(
        "flags",
        [["--bw-mhz", "inf"], ["--temp-k", "1e-300", "--bw-mhz", "1e-300"]],
        ids=["infinite", "underflow"],
    )
    def test_noise_floor_without_a_finite_value_rejected(self, flags, capsys):
        assert cli_dispatch(["noise-floor", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: noise power k*T*B/Q must be finite and > 0")

    @pytest.mark.parametrize(
        "command", [["emulate", "--all-off"], ["sweep", "--all-off"], ["layout"]],
        ids=["emulate", "sweep", "layout"],
    )
    def test_scenario_sounder_without_a_finite_floor_rejected(self, tmp_path, capsys, command):
        # rejected at load, also by the commands that never read the sounder
        bad = tmp_path / "bad.yaml"
        bad.write_text("sounder: {temperature_k: 1.0e-300, bandwidth_mhz: 1.0e-300}\n")
        assert cli_dispatch(["--scenario", str(bad), *command]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: noise power k*T*B/Q must be finite and > 0" in err

    @pytest.mark.parametrize(
        "command", [["emulate", "--all-off"], ["layout"]], ids=["emulate", "layout"]
    )
    def test_scenario_sounder_floor_beyond_a_float_in_mw_rejected(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.yaml"
        bad.write_text("sounder: {noise_figure_db: 4000.0}\n")
        assert cli_dispatch(["--scenario", str(bad), *command]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("dBm is too large for a power in mW\n")

    def test_layout_row_count(self, tmp_path, capsys):
        out = tmp_path / "layout.csv"
        code = cli_dispatch(["layout", "--rings", "6", "--pitch-mm", "8.7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,x,y,z"
        assert len(lines) == 128

    def test_unknown_subcommand_exits_one(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err

    def test_missing_command_exits_one(self, capsys):
        assert cli_dispatch([]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_dispatch(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--scenario", "BAD", "layout"], "frequency_ghz: must be > 0, got -3.0"),
            (
                ["optimize", "--target", "P7"],
                "target 'P7': use a named target (P1, P2) or 'range_m,azimuth_deg,elevation_deg'",
            ),
            (["sweep", "--all-off", "--pgm", "MISSING/h.pgm"], "cannot write heatmap: "),
            (
                ["--scenario", "ONE_ROW", "sweep", "--all-off", "--points-compat"],
                "--points-compat needs at least two x rows",
            ),
            (["plan", "--start", "P2", "--end", "1.2,40,-16", "--motion", "arc"],
             "arc motion needs equal range and elevation at both ends"),
            (["plan", "--start", "P2", "--end", "1.4,40,-10", "--motion", "arc"],
             "arc motion needs equal range and elevation at both ends"),
            (["noise-floor", "--nf-db", "inf"], "noise figure must be finite"),
            (["sweep", "--target", "P1", "--max-dbm", "inf", "--pgm", "h.pgm"],
             "heatmap levels must be finite"),
            (["sweep", "--target", "P1", "--min-dbm=-inf", "--pgm", "h.pgm"],
             "heatmap levels must be finite"),
            (["sweep", "--target", "P1", "--out", "g.csv", "--pgm", "h.pgm",
              "--min-dbm=-1.7e308", "--max-dbm=1.7e308"],
             "heatmap level span max_dbm - min_dbm must be finite"),
            (["hpbw", "--target", "1.4,200,-16", "--axis", "azimuth"],
             "target '1.4,200,-16': azimuth 200.0 outside (-180, 180]"),
            (["optimize", "--target", "nan,0,-16"], "target 'nan,0,-16': range must be finite and >= 0, got nan"),
            (["ellipse", "--target", "1.4,40,-100"], "target '1.4,40,-100': elevation -100.0 outside [-90, 90]"),
            (["layout", "--rings", "0", "--pitch-mm", "inf"], "pitch must be finite and > 0, got inf"),
            (["--scenario", "TINY_STEP", "layout"], "grid.x_stop_m: span is not a finite number of steps"),
            (["--scenario", "LOUD", "optimize", "--target", "P1"], "link-budget prefactor (tx power, gains, element size) not finite"),
            (["--scenario", "WIDE", "sweep", "--target", "P1"], "link-budget prefactor (tx power, gains, element size) not finite"),
            (["plan", "--start", "P2", "--end", "P1", "--motion", "arc", "--speed", "inf"],
             "speed must be finite and > 0"),
            (["plan", "--start", "P2", "--end", "P1", "--motion", "arc", "--speed", "1e-320"],
             "trajectory time inf s is not a finite number of steps"),
            (["plan", "--start", "P2", "--motion", "radial", "--distance=-1e300"],
             "trajectory time inf s is not a finite number of steps"),
            (["--scenario", "NOWHERE", "noise-floor"], "cannot read scenario file: "),
            (["--scenario", "FINE", "sweep", "--all-off"],
             "grid phasors of 600000001 x 900000001 cells x 127 elements need "
             "1097280003048000002032 bytes, more than can be allocated"),
        ],
        ids=["scenario", "target", "pgm-dir", "points-compat", "arc-range", "arc-elevation",
             "noise-figure", "max-dbm-inf", "min-dbm-inf", "level-span-overflow", "inline-target-azimuth",
             "inline-target-range", "inline-target-elevation", "layout-pitch-inf", "tiny-step",
             "tx-power-overflow", "element-size-overflow", "plan-speed-inf", "plan-speed-tiny",
             "plan-length-overflow",
             "noise-floor-missing-scenario", "grid-too-large"],
    )
    def test_validation_error_exits_one(self, argv, message, tmp_path, capsys):
        (tmp_path / "BAD").write_text("frequency_ghz: -3\n")
        (tmp_path / "ONE_ROW").write_text("grid: {x_start_m: 1.0, x_stop_m: 1.0}\n")
        (tmp_path / "TINY_STEP").write_text("grid: {step_m: 1.0e-320}\n")
        (tmp_path / "LOUD").write_text("tx_power_dbm: 4000.0\n")
        (tmp_path / "WIDE").write_text("ris: {element_width_mm: 1.0e+300, element_height_mm: 1.0e+300}\n")
        (tmp_path / "FINE").write_text("grid: {step_m: 1.0e-9}\n")  # too large before allocating
        names = ("BAD", "ONE_ROW", "TINY_STEP", "LOUD", "WIDE", "FINE", "NOWHERE", "MISSING/h.pgm",
                 "h.pgm", "g.csv")
        argv = [str(tmp_path / a) if a in names else a for a in argv]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {message}")
        assert not (tmp_path / "h.pgm").exists()
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize(
        "levels, message",
        [
            (["--max-dbm", "inf"], "heatmap levels must be finite"),
            (["--min-dbm=-50", "--max-dbm=-50"], "heatmap needs min_dbm < max_dbm"),
        ],
        ids=["max-dbm-inf", "equal-levels"],
    )
    def test_bad_heatmap_levels_write_no_file(self, levels, message, tmp_path, capsys):
        grid, pgm = tmp_path / "g.csv", tmp_path / "h.pgm"
        argv = ["sweep", "--target", "P1", *levels, "--pgm", str(pgm), "--out", str(grid)]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
        assert not grid.exists()
        assert not pgm.exists()

    @pytest.mark.parametrize("command", ["sweep", "emulate"])
    def test_label_with_line_break_writes_no_file(self, command, tmp_path, capsys):
        grid, pgm = tmp_path / "g.csv", tmp_path / "h.pgm"
        argv = [command, "--all-off", "--label", "a\nb", "--out", str(grid), "--pgm", str(pgm)]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "error: grid label must not contain newlines"
        assert not grid.exists()
        assert not pgm.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--scenario", "ISO", "hpbw", "--target", "P2", "--axis", "azimuth"],
             "beam not resolved"),
            (["plan", "--start", "0,0,0", "--motion", "radial", "--distance", "0.8"],
             "radial motion undefined on the surface axis"),
        ],
        ids=["hpbw", "radial-on-axis"],
    )
    def test_geometry_error_exits_two(self, argv, message, tmp_path, capsys):
        iso = tmp_path / "iso.yaml"
        iso.write_text(
            "ris: {rings: 0, element_pattern_exponent: 0.0}\n"
            "bs: {pattern_exponent: 0.0}\n"
        )
        assert cli_dispatch([str(iso) if a == "ISO" else a for a in argv]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {message}")

    def test_sweep_all_off_writes_minus_inf_and_black_pixels(self, tmp_path, capsys):
        out, pgm = tmp_path / "grid.csv", tmp_path / "h.pgm"
        small = tmp_path / "small.yaml"
        small.write_text("grid: {x_stop_m: 1.02, y_stop_m: 0.12}\n")
        code = cli_dispatch(
            ["--scenario", str(small), "sweep", "--all-off", "--out", str(out), "--pgm", str(pgm),
             "--min-dbm=-300", "--max-dbm=-50"]
        )
        assert code == 0
        body = out.read_text().splitlines()[1:]
        assert all(line.endswith(",-inf") for line in body)
        # a floor cell is black for any black level, also one under -250 dBm
        assert set(pgm.read_bytes().split(b"255\n", 1)[1]) == {0}

    @pytest.mark.parametrize("command", ["sweep", "emulate"])
    @pytest.mark.parametrize(
        "sources, message",
        [
            ([], "one of the arguments --config --all-off --off-structural --target is required"),
            (["--all-off", "--target", "P1"], "argument --target: not allowed with argument --all-off"),
            (["--config", "c.csv", "--off-structural"],
             "argument --off-structural: not allowed with argument --config"),
        ],
        ids=["none", "all-off-and-target", "config-and-off-structural"],
    )
    def test_grid_commands_require_one_config_source(self, command, sources, message, capsys):
        assert cli_dispatch([command, *sources]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}\n")  # before the scenario echo
        assert err.splitlines()[1].startswith(f"usage: rissim {command} ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "scenario, argv, message",
        [
            (_FAR_BS, ["sweep", "--target", "P1", "--out", "OUT"], _PHASORS_OVERFLOW),
            (_FAR_BS, ["optimize", "--target", "P1", "--out", "OUT"], _PHASORS_OVERFLOW),
            (_FAR_BS, ["hpbw", "--target", "P1", "--axis", "azimuth"], _PHASORS_OVERFLOW),
            (_FAR_BS, ["ellipse", "--target", "P1"], _PHASORS_OVERFLOW),
            (_FAR_BS, ["sweep", "--off-structural", "--out", "OUT"], _NAN_POWER),
            ("grid: {z_plane_m: 1.0e+300}\n", ["sweep", "--target", "P1", "--out", "OUT"], _NAN_POWER),
            ("", ["optimize", "--target", "1.0e+300,40,-16", "--out", "OUT"], _PHASORS_OVERFLOW),
            ("", ["hpbw", "--target", "1.0e+300,40,-16", "--axis", "azimuth"], _PHASORS_OVERFLOW),
            (_LOUD_OFF, ["sweep", "--off-structural", "--out", "OUT"], _INF_POWER),
            (_LOUD_OFF, ["emulate", "--off-structural", "--out", "OUT"], _INF_POWER),
            ("", ["sweep", "--config", "LOUD_CONFIG", "--out", "OUT"], _INF_POWER),
            ("", ["hpbw", "--target", "P1", "--axis", "azimuth", "--config", "LOUD_CONFIG"], _INF_POWER),
            ("", ["sweep", "--config", "MAX_CONFIG", "--out", "OUT"], _NAN_POWER),
        ],
        ids=["far-bs-sweep", "far-bs-optimize", "far-bs-hpbw", "far-bs-ellipse",
             "far-bs-off-structural", "far-plane-sweep", "far-target-optimize", "far-target-hpbw",
             "loud-off-state-sweep", "loud-off-state-emulate", "loud-config-sweep",
             "loud-config-hpbw", "max-config-sweep"],
    )
    def test_overflow_exits_two_and_writes_nothing(self, scenario, argv, message, tmp_path, capsys):
        path, out = tmp_path / "s.yaml", tmp_path / "out.csv"
        path.write_text(scenario)
        names = {"OUT": str(out)}
        # the header names no scenario alphabet, so no state membership is checked;
        # 1.7e308 overflows in the configuration's product Gamma_m g_m itself
        for name, magnitude in (("LOUD_CONFIG", "1e300"), ("MAX_CONFIG", "1.7e308")):
            names[name] = str(tmp_path / f"{name}.csv")
            rows = "".join(f"{m},0,{magnitude},0\n" for m in range(127))
            Path(names[name]).write_text("# bogus\nm,state,magnitude,phase_deg\n" + rows)
        assert cli_dispatch(["--scenario", str(path), *(names.get(a, a) for a in argv)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == f"error: {message}"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "emulate"])
    def test_prefactor_underflowing_to_zero_rejected(self, command, tmp_path, capsys):
        quiet = tmp_path / "quiet.yaml"
        quiet.write_text("tx_power_dbm: -1.0e+300\n")  # 10 ** -1e299 mW is 0.0 as a float
        assert cli_dispatch(["--scenario", str(quiet), command, "--target", "P1"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: link-budget prefactor (tx power, gains, element size) underflows to 0"
        )

    def test_workers_option_rejected(self, capsys):
        assert cli_dispatch(["sweep", "--all-off", "--workers", "2"]) == 1
        assert "--workers" in capsys.readouterr().err

    def test_negative_seed_flag_rejected(self, capsys):
        assert cli_dispatch(["emulate", "--all-off", "--seed", "-1"]) == 1
        assert "error: rng_seed must be >= 0, got -1" in capsys.readouterr().err

    def test_negative_seed_in_scenario_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("sounder: {rng_seed: -5}\n")
        assert cli_dispatch(["--scenario", str(bad), "emulate", "--all-off"]) == 1
        assert capsys.readouterr().err.startswith("error: rng_seed must be >= 0, got -5")

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--target", "P1", "--alphabet", "bogus"],
            ["plan", "--start", "P2", "--end", "P1", "--motion", "arc", "--alphabet", "bogus"],
            ["sweep", "--target", "P1", "--alphabet", "bogus"],
            ["hpbw", "--target", "P1", "--axis", "azimuth", "--alphabet", "bogus"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unknown_alphabet_rejected(self, argv, capsys):
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "error: --alphabet: 'bogus' is not one of ['active', 'off_structural', 'reflective']"
        )

    def test_non_string_alphabet_in_scenario_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("alphabet: [a]\n")
        assert cli_dispatch(["--scenario", str(bad), "layout"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("error: alphabet: expected a string")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep"],
            ["emulate"],
            ["hpbw", "--target", "P2", "--axis", "azimuth"],
            ["ellipse", "--target", "P2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_short_config_file_rejected(self, argv, tmp_path, capsys):
        cfg = tmp_path / "cfg.csv"
        assert cli_dispatch(["optimize", "--target", "P2", "--out", str(cfg)]) == 0
        cfg.write_text("".join(cfg.read_text().splitlines(keepends=True)[:-1]))  # 126 rows
        capsys.readouterr()
        assert cli_dispatch([*argv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: configuration has 126 coefficients for 127 elements"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["hpbw", "--target", "P1", "--axis", "azimuth"],
            ["hpbw", "--target", "P1", "--axis", "elevation"],
            ["ellipse", "--target", "P1"],
            ["plan", "--start", "P1", "--motion", "radial", "--distance", "0.05"],
        ],
        ids=["hpbw-azimuth", "hpbw-elevation", "ellipse", "plan"],
    )
    def test_an_overflowing_wavenumber_leaves_the_beam_cuts_unbounded(self, argv, tmp_path, capsys):
        # k^2 overflows: hpbw's bound reads NaN, which is no bound, and every interval is evaluated
        high = tmp_path / "high.yaml"
        high.write_text("frequency_ghz: 1.0e+155\n")
        assert cli_dispatch(["--scenario", str(high), *argv]) == 0
        out = capsys.readouterr().out
        if argv[0] == "hpbw":
            doc = resolve_scenario({"frequency_ghz": 1.0e155})
            target = doc.targets["P1"]
            config = optimize_config(doc.scenario, spherical_to_cartesian(target), REFLECTIVE)
            width = hpbw_full_scan(doc.scenario, config, target, argv[-1])
            assert out.splitlines()[-1] == f"hpbw_deg={width:.6g}"

    @pytest.mark.parametrize("motion", ["arc", "line"])
    def test_plan_motion_without_end_rejected(self, motion, capsys):
        assert cli_dispatch(["plan", "--start", "P2", "--motion", motion]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"error: --motion {motion} requires --end"

    def test_plan_radial_without_distance_rejected(self, capsys):
        assert cli_dispatch(["plan", "--start", "P2", "--motion", "radial"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "error: --motion radial requires --distance"

    @pytest.mark.parametrize(
        "argv",
        [["--end", "P1", "--motion", "line"], ["--motion", "radial", "--distance", "0.8"]],
        ids=["line", "radial"],
    )
    def test_plan_motions_match_the_library(self, doc, p1, p2, argv, capsys):
        if "line" in argv:
            path = (spherical_to_cartesian(p2), spherical_to_cartesian(p1))
        else:
            path = radial_waypoints(p2, 0.8)
        schedule = plan_updates(doc.scenario, Trajectory(path, 1.0), REFLECTIVE)
        want = io.StringIO()
        write_schedule_csv(schedule, want)
        assert cli_dispatch(["plan", "--start", "P2", *argv]) == 0
        assert capsys.readouterr().out == want.getvalue()

    @pytest.mark.parametrize(
        "motion, flags, unread",
        [
            ("radial", ["--end", "P1", "--distance", "0.8"], "--end"),
            ("arc", ["--end", "P1", "--distance", "0.8"], "--distance"),
            ("line", ["--end", "P1", "--distance", "0.8"], "--distance"),
            ("radial", ["--end", "P1"], "--end"),
            ("arc", ["--distance", "0.8"], "--distance"),  # the unread flag is checked first
        ],
        ids=["radial-end", "arc-distance", "line-distance", "radial-end-only",
             "arc-distance-without-end"],
    )
    def test_plan_flag_the_motion_does_not_read_rejected(self, motion, flags, unread, capsys):
        assert cli_dispatch(["plan", "--start", "P2", "--motion", motion, *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"error: --motion {motion} does not take {unread}"

    @pytest.mark.parametrize(
        "argv, source",
        [
            (["sweep", "--all-off"], "--all-off"),
            (["sweep", "--off-structural"], "--off-structural"),
            (["sweep", "--config", "CFG"], "--config"),
            (["emulate", "--all-off"], "--all-off"),
            (["emulate", "--off-structural"], "--off-structural"),
            (["emulate", "--config", "CFG"], "--config"),
            (["hpbw", "--target", "P1", "--axis", "azimuth", "--config", "CFG"], "--config"),
            (["ellipse", "--target", "P1", "--config", "CFG"], "--config"),
        ],
        ids=[
            f"{command}-{source}"
            for command in ("sweep", "emulate")
            for source in ("all-off", "off-structural", "config")
        ] + ["hpbw-config", "ellipse-config"],
    )
    @pytest.mark.parametrize("alphabet", ["bogus", "reflective"])
    def test_alphabet_without_target_rejected(self, argv, source, alphabet, tmp_path, capsys):
        cfg = tmp_path / "cfg.csv"
        assert cli_dispatch(["optimize", "--target", "P1", "--out", str(cfg)]) == 0
        capsys.readouterr()
        argv = [str(cfg) if a == "CFG" else a for a in argv]
        assert cli_dispatch([*argv, "--alphabet", alphabet]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"error: --alphabet does not apply to {source}"

    @pytest.mark.parametrize("command", ["sweep", "emulate"])
    def test_off_structural_grid_matches_the_library(self, command, tmp_path, capsys):
        small = tmp_path / "small.yaml"
        small.write_text("grid: {x_stop_m: 1.12, y_stop_m: 0.22}\n")
        doc = load_scenario(small)
        off = doc.alphabets["off_structural"]
        config = uniform_config(doc.scenario.layout, off.states[0], off.name)
        label = f"{command}:off_structural"
        if command == "sweep":
            grid = sweep_power(doc.scenario, config, doc.grid, label=label)
        else:
            grid = emulate_measurement_grid(doc.scenario, config, doc.grid, doc.sounder, label=label)
        want = io.StringIO()
        write_power_grid_csv(grid, want)
        assert cli_dispatch(["--scenario", str(small), command, "--off-structural"]) == 0
        assert capsys.readouterr().out == want.getvalue()

    def test_tampered_named_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.csv"
        assert cli_dispatch(["optimize", "--target", "P1", "--alphabet", "reflective",
                             "--out", str(cfg)]) == 0
        lines = cfg.read_text().splitlines()
        lines[2] = "0,0,0.9,-15"  # not a reflective state
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "g.csv"
        assert cli_dispatch(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert "not a state" in capsys.readouterr().err

    def test_permuted_config_rows_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.csv"
        assert cli_dispatch(["optimize", "--target", "P2", "--alphabet", "active",
                             "--out", str(cfg)]) == 0
        lines = cfg.read_text().splitlines()
        lines[2], lines[7] = lines[7], lines[2]  # rows m=0 and m=5 swapped
        cfg.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_dispatch(["hpbw", "--target", "P2", "--axis", "azimuth",
                             "--config", str(cfg)]) == 1
        assert "element index '5', expected 0" in capsys.readouterr().err

    def test_config_state_contradicting_values_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.csv"
        assert cli_dispatch(["optimize", "--target", "P2", "--alphabet", "active",
                             "--out", str(cfg)]) == 0
        lines = cfg.read_text().splitlines()
        lines[2] = "0,0,0,0"  # state 0 is 1.25 at 0 deg; the values are state 1
        cfg.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_dispatch(["hpbw", "--target", "P2", "--axis", "azimuth",
                             "--config", str(cfg)]) == 1
        assert "state 0 does not match" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "floor, rmse", [([], "rmse_db=0"), (["--floor-dbm", "0"], "rmse_db=nan")],
        ids=["default-floor", "no-cell-above-floor"],
    )
    def test_compare_identical_grids(self, floor, rmse, tmp_path, capsys):
        small = tmp_path / "small.yaml"
        small.write_text("grid: {x_stop_m: 1.12, y_stop_m: 0.22}\n")
        out = tmp_path / "g.csv"
        assert (
            cli_dispatch(
                [
                    "--scenario", str(small), "sweep",
                    "--target", "P1", "--alphabet", "reflective", "--out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert cli_dispatch(["compare", str(out), str(out), *floor]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "peak_offset_m=0" in lines
        assert "peak_delta_db=0" in lines
        assert rmse in lines

    def test_compare_leaves_out_a_floor_cell_under_any_finite_floor(self, tmp_path, capsys):
        # the -inf cell is under every finite floor: only the first cell is compared
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(_GRID_HEADER + "0,0,0,0,-60\n1,0,0.1,0,-inf\n")
        b.write_text(_GRID_HEADER + "0,0,0,0,-60\n1,0,0.1,0,-100\n")
        assert cli_dispatch(["compare", str(a), str(b), "--floor-dbm=-300"]) == 0
        assert "rmse_db=0" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "floor", [["--floor-dbm", "nan"], ["--floor-dbm", "inf"], ["--floor-dbm=-inf"],
                  ["--floor-dbm", "1e400"]],
        ids=["nan", "inf", "minus-inf", "overflow"],
    )
    def test_compare_floor_that_is_not_finite_rejected(self, floor, tmp_path, capsys):
        small = tmp_path / "small.yaml"
        small.write_text("grid: {x_stop_m: 1.12, y_stop_m: 0.22}\n")
        grids = [str(tmp_path / name) for name in ("sweep.csv", "emulate.csv")]
        for command, out in zip(("sweep", "emulate"), grids):
            argv = ["--scenario", str(small), command, "--target", "P1", "--out", out]
            assert cli_dispatch(argv) == 0
        capsys.readouterr()
        assert cli_dispatch(["compare", *grids, *floor]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        value = floor[-1].rpartition("=")[2]
        assert err == f"error: comparison floor must be finite, got {float(value)} dBm\n"

    @pytest.mark.parametrize(
        "command, options",
        [("hpbw", ["--target", "--config", "--alphabet", "--axis"]),
         ("ellipse", ["--target", "--config", "--alphabet"])],
    )
    def test_beam_commands_share_their_sources(self, command, options, capsys):
        assert cli_dispatch([command, "--help"]) == 0
        listed = re.findall(r"^  (--[a-z]+)", capsys.readouterr().out, re.MULTILINE)
        assert listed == options

    def test_target_coordinate_form(self, capsys):
        assert cli_dispatch(["hpbw", "--target", "1.4,10,-16", "--axis", "azimuth",
                             "--alphabet", "active"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("hpbw_deg=")

    def test_module_entry_point_help(self):
        cp = _run_module("--help")
        assert cp.returncode == 0, cp.stderr
        assert "noise-floor" in cp.stdout

    def test_subprocess_runs_are_byte_identical(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"emulate_{tag}.csv"
            small = tmp_path / "small.yaml"
            small.write_text("grid: {x_stop_m: 1.12, y_stop_m: 0.22}\n")
            cp = _run_module(
                "--scenario", str(small), "emulate", "--all-off", "--seed", "3", "--out", str(out)
            )
            assert cp.returncode == 0, cp.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_points_compat_drops_one_row(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = cli_dispatch(
            ["sweep", "--all-off", "--points-compat", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        fields = header[2:].split(",")
        assert (int(fields[4]), int(fields[5])) == (30, 46)
        assert len(out.read_text().splitlines()) == 1 + 30 * 46
