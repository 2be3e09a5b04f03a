import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rissim
from rissim.errors import ValidationError
from rissim.geom import Vec3, hex_layout
from rissim.io_cli import (
    cli_dispatch,
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
from rissim.linkbudget import BELOW_FLOOR_DBM
from rissim.optimizer import REFLECTIVE
from rissim.planner import UpdateEvent, UpdateSchedule
from rissim.sweep import GridSpec, PowerGrid, find_peak

DATA = Path(__file__).parent / "data"


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
        assert doc.scenario.layout.rings == 3

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

    def test_off_state_feeds_alphabet(self):
        doc = resolve_scenario({"ris": {"off_state_magnitude": 0.2, "off_state_phase_deg": 10.0}})
        state = doc.alphabets["off_structural"].states[0]
        assert (state.magnitude, state.phase_deg) == (0.2, 10.0)


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

    def test_grid_read_rejects_partial_cover(self):
        text = "# 0,0,0.1,0.1,2,1,0,x\n0,0,0,0,-60\n"
        with pytest.raises(ValidationError, match="every cell"):
            read_power_grid_csv(io.StringIO(text))

    def test_config_round_trip(self, scenario, refl_p1):
        buf = io.StringIO()
        write_config_csv(refl_p1, buf, REFLECTIVE)
        back = read_config_csv(io.StringIO(buf.getvalue()))
        assert back == refl_p1

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

    def test_schedule_golden(self):
        events = (
            UpdateEvent(
                0.0, Vec3(1.32532116, 0.23368988, -0.3858923), "abc123def456", 0.0905456, 0.351869
            ),
            UpdateEvent(0.091, Vec3(1.30, 0.32, -0.3858923), "fedcba654321", 0.0877518, 0.343),
        )
        buf = io.StringIO()
        write_schedule_csv(UpdateSchedule(events, 0.091), buf)
        assert buf.getvalue() == SCHEDULE_CSV


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

    def test_bad_range_rejected(self, sweep_refl_p1, tmp_path):
        with pytest.raises(ValidationError):
            export_heatmap(sweep_refl_p1, -50.0, -50.0, tmp_path / "x.pgm")


class TestCli:
    def test_noise_floor_output(self, capsys):
        code = cli_dispatch(
            ["noise-floor", "--temp-k", "293", "--bw-mhz", "155", "--q", "50", "--nf-db", "9"]
        )
        assert code == 0
        assert capsys.readouterr().out == "-100.0 dBm\n"

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

    def test_validation_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("frequency_ghz: -3\n")
        assert cli_dispatch(["--scenario", str(bad), "layout"]) == 1

    def test_geometry_error_exits_two(self, tmp_path, capsys):
        iso = tmp_path / "iso.yaml"
        iso.write_text(
            "ris: {rings: 0, element_pattern_exponent: 0.0}\n"
            "bs: {pattern_exponent: 0.0}\n"
        )
        code = cli_dispatch(
            ["--scenario", str(iso), "hpbw", "--target", "P2", "--axis", "azimuth"]
        )
        assert code == 2
        assert "beam not resolved" in capsys.readouterr().err

    def test_sweep_all_off_writes_sentinels(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        small = tmp_path / "small.yaml"
        small.write_text("grid: {x_stop_m: 1.02, y_stop_m: 0.12}\n")
        code = cli_dispatch(
            ["--scenario", str(small), "sweep", "--all-off", "--out", str(out)]
        )
        assert code == 0
        body = out.read_text().splitlines()[1:]
        assert all(line.endswith(",-inf") for line in body)

    def test_sweep_requires_one_config_source(self, capsys):
        assert cli_dispatch(["sweep", "--all-off", "--target", "P1"]) == 1

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

    def test_compare_identical_grids(self, tmp_path, capsys):
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
        assert cli_dispatch(["compare", str(out), str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "peak_offset_m=0" in lines
        assert "peak_delta_db=0" in lines
        assert "rmse_db=0" in lines

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
