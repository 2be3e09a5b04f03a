import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    abs_cross_reference,
    average_ir_power,
    hpbw_full_scan,
    ks_critical_value,
    ks_statistic,
    linear_mean_dbm,
    make_random_scenario,
    record_level_power,
    recording_rounds,
)
from rissim.errors import (
    BeamNotResolvedError,
    GeometryError,
    NoPeakError,
    ValidationError,
)
from rissim.geom import (
    RisLayout,
    SphericalCoord,
    Vec3,
    cartesian_to_spherical,
    spherical_to_cartesian,
)
from rissim.linkbudget import (
    BELOW_FLOOR_DBM,
    AntennaPattern,
    ReflectionCoefficient,
    Scenario,
    noise_floor,
    received_power,
)
import rissim.linkbudget
import rissim.sweep
from rissim.io_cli import resolve_scenario
from rissim.linkbudget import RisConfig, coherent_sums, dbm_from_sums
from rissim.optimizer import ACTIVE, REFLECTIVE, optimize_config, uniform_config
from rissim.sweep import (
    GridComparison,
    GridSpec,
    PowerGrid,
    SounderParams,
    compare_grids,
    emulate_measurement_grid,
    find_peak,
    hpbw,
    sweep_power,
)

_AXES = ("azimuth", "elevation")


class TestGridSpec:
    def test_default_matches_measurement_area(self, doc):
        g = doc.grid
        assert (g.x0, g.y0, g.dx, g.dy) == (0.92, 0.02, 0.02, 0.02)
        assert (g.nx, g.ny, g.z_plane) == (31, 46, -0.39)
        assert g.x_coords()[-1] == pytest.approx(1.52)
        assert g.y_coords()[-1] == pytest.approx(0.92)
        assert g.nx * g.ny == 1426

    def test_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(0, 0, 0.0, 0.02, 3, 3, 0.0)
        with pytest.raises(ValidationError):
            GridSpec(0, 0, 0.02, 0.02, 0, 3, 0.0)
        for field in ("x0", "y0", "dx", "dy", "z_plane"):
            for value in (math.inf, -math.inf, math.nan):
                fields = {"x0": 0, "y0": 0, "dx": 0.02, "dy": 0.02, "nx": 3, "ny": 3, "z_plane": 0.0}
                with pytest.raises(ValidationError, match=f"grid {field} must be finite"):
                    GridSpec(**{**fields, field: value})
        spec = GridSpec(0, 0, 0.02, 0.02, 3, 2, 0.0)
        for shape in ((2, 3), (6,), (3, 2, 1)):
            with pytest.raises(ValidationError, match=r"does not match grid \(3, 2\)$"):
                PowerGrid(spec, np.zeros(shape))


class TestSweepPower:
    def test_single_cell_equals_received_power(self, scenario, refl_p1, p1):
        pos = spherical_to_cartesian(p1)
        grid = GridSpec(pos.x, pos.y, 0.02, 0.02, 1, 1, pos.z)
        swept = sweep_power(scenario, refl_p1, grid)
        direct = received_power(scenario, refl_p1, pos)
        assert swept.values[0, 0] == direct  # bit-identical path

    def test_all_off_grid_is_below_floor(self, scenario, doc):
        config = uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")
        grid = sweep_power(scenario, config, GridSpec(0.92, 0.02, 0.1, 0.1, 4, 4, -0.39))
        assert np.all(grid.values == BELOW_FLOOR_DBM) and BELOW_FLOOR_DBM == -math.inf

    def test_row_evaluation_matches_single_cells_bitwise(self, scenario, refl_p1, doc):
        # a sweep row is one 46-position kernel call; received_power is a
        # 1-position call: the chunking must not move a single bit
        swept = sweep_power(scenario, refl_p1, doc.grid)
        xs, ys = doc.grid.x_coords(), doc.grid.y_coords()
        for i in range(doc.grid.nx):
            for j in range(doc.grid.ny):
                pos = Vec3(float(xs[i]), float(ys[j]), doc.grid.z_plane)
                assert swept.values[i, j] == received_power(scenario, refl_p1, pos), (i, j)

    def test_focus_level_on_grid(self, sweep_refl_p1, sweep_refl_p2):
        assert find_peak(sweep_refl_p1).power_dbm == pytest.approx(-57.0, abs=3.0)
        assert find_peak(sweep_refl_p2).power_dbm == pytest.approx(-56.0, abs=3.0)

    def test_peak_sits_on_target_bearing(self, sweep_refl_p1, p1):
        # the focused beam is steered at the target azimuth; the grid peak
        # lies on that bearing (it slides radially along the focus ridge)
        peak = find_peak(sweep_refl_p1)
        assert math.degrees(math.atan2(peak.y, peak.x)) == pytest.approx(
            p1.azimuth_deg, abs=1.5
        )

    def test_degenerate_cell_reports_coordinates(self):
        layout = RisLayout((Vec3(0.0, 0.0, 0.0),), d_y=6.6e-3, d_z=6.6e-3)
        scenario = Scenario(
            frequency_hz=23.8e9,
            tx_power_dbm=10.0,
            bs_position=Vec3(1.0, 0.0, 0.0),
            bs_pattern=AntennaPattern(19.0, 0.0),
            ue_pattern=AntennaPattern(3.2, 0.0),
            element_pattern=AntennaPattern(0.0, 1.0),
            layout=layout,
        )
        config = uniform_config(layout, ReflectionCoefficient(0.3, 0.0))
        bad = GridSpec(-0.02, 0.0, 0.02, 0.02, 3, 1, 0.0)  # second column hits the element
        with pytest.raises(GeometryError, match="0.0"):
            sweep_power(scenario, config, bad)


class TestAverageIrPower:
    def test_single_unit_tap_returns_tx_power(self):
        records = np.zeros((1, 14), dtype=complex)
        records[0, 10] = 1.0
        assert average_ir_power(records, 7, 13, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_identical_records_follow_the_literal_formula(self):
        rng = np.random.default_rng(0)
        one = rng.normal(size=(1, 14)) + 1j * rng.normal(size=(1, 14))
        q = 17
        stacked = np.tile(one, (q, 1))
        p1 = average_ir_power(one, 7, 13, 10.0)
        pq = average_ir_power(stacked, 7, 13, 10.0)
        # (1/Q)|Q s|^2 = Q |s|^2
        assert pq - p1 == pytest.approx(10.0 * math.log10(q), abs=1e-9)

    def test_window_validation(self):
        records = np.zeros((2, 14), dtype=complex)
        with pytest.raises(ValidationError):
            average_ir_power(records, 9, 7, 0.0)
        with pytest.raises(ValidationError):
            average_ir_power(records, 7, 20, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        scale_re=st.floats(-3.0, 3.0),
        scale_im=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_tap_scaling_scales_power_quadratically(self, scale_re, scale_im, seed):
        c = complex(scale_re, scale_im)
        assume(abs(c) > 1e-6)  # keep the scaled power above the floor
        rng = np.random.default_rng(seed)
        records = rng.normal(size=(5, 14)) + 1j * rng.normal(size=(5, 14))
        base = average_ir_power(records, 7, 13, 10.0)
        scaled = average_ir_power(c * records, 7, 13, 10.0)
        assert scaled - base == pytest.approx(20.0 * math.log10(abs(c)), abs=1e-9)

    def test_noise_only_reproduces_closed_form(self, scenario):
        # Monte-Carlo check of the pipeline normalization against the
        # closed-form floor
        params = SounderParams()
        floor = noise_floor(
            params.temperature_k, params.bandwidth_hz, params.averages, params.noise_figure_db
        )
        window = params.window_stop - params.window_start + 1
        sigma2 = 10 ** (floor / 10) / (10 ** (scenario.tx_power_dbm / 10) * window)
        rng = np.random.default_rng(123)
        trials = []
        for _ in range(1000):
            noise = math.sqrt(sigma2 / 2) * (
                rng.standard_normal((params.averages, 14))
                + 1j * rng.standard_normal((params.averages, 14))
            )
            trials.append(average_ir_power(noise, 7, 13, scenario.tx_power_dbm))
        assert linear_mean_dbm(trials) == pytest.approx(floor, abs=0.5)


class TestEmulation:
    def test_noise_disabled_equals_deterministic(self, scenario, refl_p1, doc, sweep_refl_p1):
        quiet = emulate_measurement_grid(
            scenario, refl_p1, doc.grid, SounderParams(noise_enabled=False)
        )
        assert np.array_equal(quiet.values, sweep_refl_p1.values)

    def test_seeded_reproducibility(self, scenario, doc):
        config = uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")
        small = GridSpec(0.92, 0.02, 0.1, 0.1, 5, 5, -0.39)
        a = emulate_measurement_grid(scenario, config, small, SounderParams(rng_seed=42))
        b = emulate_measurement_grid(scenario, config, small, SounderParams(rng_seed=42))
        c = emulate_measurement_grid(scenario, config, small, SounderParams(rng_seed=43))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_all_off_sits_at_the_noise_floor(self, scenario, doc):
        config = uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")
        grid = emulate_measurement_grid(scenario, config, doc.grid, SounderParams(rng_seed=1))
        assert linear_mean_dbm(grid.values) == pytest.approx(-100.0, abs=1.0)

    def test_powered_off_reflection_peaks_near_specular(self, scenario, doc):
        off = doc.alphabets["off_structural"].states[0]
        config = uniform_config(scenario.layout, off, "off_structural")
        grid = emulate_measurement_grid(scenario, config, doc.grid, SounderParams(rng_seed=2))
        peak = find_peak(grid)
        assert peak.power_dbm == pytest.approx(-80.0, abs=3.0)
        assert math.degrees(math.atan2(peak.y, peak.x)) == pytest.approx(36.0, abs=5.0)


class TestGridPhasorCache:
    """sweep_power and the emulator pass the grid to coherent_sums as one (nx, ny, 3)
    block, and its phasors are the one block that coherent_sums keeps."""

    @staticmethod
    def _assert_cells_equal_received_power(scenario, config, grid):
        swept = sweep_power(scenario, config, grid)
        quiet = emulate_measurement_grid(scenario, config, grid, SounderParams(noise_enabled=False))
        xs, ys = grid.x_coords(), grid.y_coords()
        for i in range(grid.nx):
            for j in range(grid.ny):
                direct = received_power(scenario, config, Vec3(float(xs[i]), float(ys[j]), grid.z_plane))
                assert swept.values[i, j] == direct, (i, j)
                assert quiet.values[i, j] == direct, (i, j)
        return swept.values

    def test_cache_keys_on_scenario_and_grid(self, kernel_rows, scenario, refl_p1):
        # back to back: a key that ignored the scenario would return scenario A's
        # phasors for the moved base station, one that ignored the grid (same
        # shape, shifted origin) grid A's phasors for grid B
        grid_a = GridSpec(0.92, 0.70, 0.02, 0.02, 4, 5, -0.39)
        moved = replace(scenario, bs_position=Vec3(1.2, -1.4, 0.1))
        grid_b = replace(grid_a, x0=1.02)
        cases = [(scenario, grid_a), (moved, grid_a), (scenario, grid_b), (scenario, grid_a)]
        swept = [sweep_power(s, refl_p1, g).values for s, g in cases]
        assert kernel_rows == [grid_a.ny] * (len(cases) * grid_a.nx)
        for (s, g), values in zip(cases, swept):
            assert np.array_equal(self._assert_cells_equal_received_power(s, refl_p1, g), values)
        assert not np.array_equal(swept[0], swept[1])
        assert not np.array_equal(swept[0], swept[2])
        assert np.array_equal(swept[0], swept[3])

    def test_one_kernel_build_per_scenario_and_grid(self, kernel_rows, scenario, refl_p1, active_p2):
        grid = GridSpec(0.92, 0.02, 0.1, 0.1, 6, 9, -0.39)
        sweep_power(scenario, refl_p1, grid)
        assert kernel_rows == [grid.ny] * grid.nx
        kernel_rows.clear()
        sweep_power(scenario, refl_p1, grid)
        sweep_power(scenario, active_p2, grid)
        emulate_measurement_grid(scenario, active_p2, grid, SounderParams(rng_seed=3))
        assert kernel_rows == []

    def test_sweep_then_emulate_applies_each_configuration_once(
        self, apply_rows, scenario, refl_p1, active_p2
    ):
        grid = GridSpec(0.92, 0.02, 0.1, 0.1, 6, 9, -0.39)
        for config in (refl_p1, active_p2):
            apply_rows.clear()
            swept = sweep_power(scenario, config, grid)
            quiet = emulate_measurement_grid(scenario, config, grid, SounderParams(noise_enabled=False))
            emulate_measurement_grid(scenario, config, grid, SounderParams(rng_seed=3))
            assert apply_rows == [grid.ny] * grid.nx
            assert quiet.values.tobytes() == swept.values.tobytes()

    def test_cached_phasors_are_read_only(self, kernel_rows, scenario, refl_p1, doc):
        sweep_power(scenario, refl_p1, doc.grid)
        phasors = rissim.linkbudget._block[2]
        assert phasors.shape == (doc.grid.nx, doc.grid.ny, len(scenario.layout))
        assert not phasors.flags.writeable
        with pytest.raises(ValueError):
            phasors[0, 0, 0] = 0.0

    def test_a_grid_swept_first_with_elements_off_is_not_kept(
        self, kernel_rows, monkeypatch, scenario, refl_p1, active_p2
    ):
        counting, columns = rissim.linkbudget.element_phasor_matrix, []

        def kernel(scenario, positions, elements=None):
            columns.append(len(scenario.layout) if elements is None else len(elements))
            return counting(scenario, positions, elements)

        monkeypatch.setattr(rissim.linkbudget, "element_phasor_matrix", kernel)
        grid = GridSpec(0.92, 0.02, 0.1, 0.1, 6, 9, -0.39)
        powered = np.count_nonzero(active_p2.as_complex_array)
        assert 0 < powered < len(scenario.layout)
        first = sweep_power(scenario, active_p2, grid)
        assert kernel_rows == [grid.ny] * grid.nx
        assert columns == [powered] * grid.nx
        assert rissim.linkbudget._block == (None,) * 5
        sweep_power(scenario, refl_p1, grid)
        assert columns == [powered] * grid.nx + [len(scenario.layout)] * grid.nx
        assert rissim.linkbudget._block[2].shape == (grid.nx, grid.ny, len(scenario.layout))
        kernel_rows.clear()
        for config in (active_p2, refl_p1):
            sweep_power(scenario, config, grid)
            emulate_measurement_grid(scenario, config, grid, SounderParams(rng_seed=3))
        assert kernel_rows == []
        assert np.array_equal(sweep_power(scenario, active_p2, grid).values, first.values)

    @pytest.mark.parametrize("size_for", [lambda m: 1, lambda m: m + 1], ids=["length 1", "length M+1"])
    def test_config_length_checked(self, scenario, size_for):
        size = size_for(len(scenario.layout))
        config = RisConfig((ReflectionCoefficient(0.9, 30.0),) * size, "reflective")
        grid = GridSpec(0.92, 0.02, 0.1, 0.1, 2, 3, -0.39)
        with pytest.raises(ValidationError, match=f"{size} coefficients"):
            sweep_power(scenario, config, grid)
        with pytest.raises(ValidationError, match=f"{size} coefficients"):
            emulate_measurement_grid(scenario, config, grid, SounderParams())


class TestEmulationMatchesRecordLevelOracle:
    """The emulator draws each cell's window sum directly; its readings must
    follow the distribution of the record-level pipeline in helpers.py.

    Two-sample Kolmogorov-Smirnov test at three cells. The seeds, the sample
    size and the total false-failure rate are fixed constants, not tuned to
    the outcome; the rate is split evenly over the cells (union bound).
    """

    SAMPLES = 10_000
    FALSE_FAILURE_RATE = 1e-6
    CELLS = 3

    @pytest.mark.parametrize(
        "snr_db, emulator_seed, oracle_seed",
        [(None, 7101, 8101), (3.0, 7102, 8102), (30.0, 7103, 8103)],
        ids=["noise-only", "snr-3db", "snr-30db"],
    )
    def test_same_distribution(self, scenario, doc, snr_db, emulator_seed, oracle_seed):
        sounder = SounderParams()
        x, y = doc.grid.x_coords()[10], doc.grid.y_coords()[20]
        position = np.array([[x, y, doc.grid.z_plane]])
        if snr_db is None:
            magnitude = 0.0
        else:
            # uniform magnitude that puts the cell's power snr_db above the floor
            unit = uniform_config(scenario.layout, ReflectionCoefficient(1.0, 0.0))
            floor_dbm = noise_floor(
                sounder.temperature_k, sounder.bandwidth_hz, sounder.averages,
                sounder.noise_figure_db,
            )
            gain_db = floor_dbm + snr_db - received_power(scenario, unit, Vec3(*position[0]))
            magnitude = 10.0 ** (gain_db / 20.0)
        config = uniform_config(scenario.layout, ReflectionCoefficient(magnitude, 0.0))

        # 100 x 100 cells 1 nm apart: the coherent sum moves by ~1e-7 relative
        # across them, far below the noise, so they sample one cell's reading
        n = int(math.isqrt(self.SAMPLES))
        tiny = GridSpec(x, y, 1e-9, 1e-9, n, n, doc.grid.z_plane)
        emulated = emulate_measurement_grid(
            scenario, config, tiny, replace(sounder, rng_seed=emulator_seed)
        ).values.ravel()

        a = complex(coherent_sums(scenario, config, position)[0])
        rng = np.random.default_rng(oracle_seed)
        oracle = [record_level_power(scenario, sounder, a, rng) for _ in range(self.SAMPLES)]

        d = ks_statistic(emulated, oracle)
        limit = ks_critical_value(len(emulated), len(oracle), self.FALSE_FAILURE_RATE / self.CELLS)
        assert d <= limit, (d, limit)


class TestFindPeak:
    def test_single_cell(self):
        spec = GridSpec(1.0, 2.0, 0.02, 0.02, 1, 1, 0.0)
        peak = find_peak(PowerGrid(spec, np.array([[-60.0]])))
        assert (peak.x, peak.y, peak.power_dbm) == (1.0, 2.0, -60.0)

    def test_tie_takes_smallest_indices(self):
        spec = GridSpec(0.5, 0.25, 0.02, 0.02, 3, 3, 0.0)
        peak = find_peak(PowerGrid(spec, np.full((3, 3), -70.0)))
        assert (peak.i, peak.j) == (0, 0)
        assert (peak.x, peak.y) == (0.5, 0.25)

    def test_coordinates_are_the_grid_arrays_bit_for_bit(self):
        rng = np.random.default_rng(26)
        for _ in range(500):
            nx, ny = (int(n) for n in rng.integers(1, 60, 2))
            x0, y0 = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
            dx, dy = (float(v) for v in rng.uniform(1e-3, 0.1, 2))
            spec = GridSpec(x0, y0, dx, dy, nx, ny, -0.39)
            peak = find_peak(PowerGrid(spec, rng.normal(-60.0, 5.0, (nx, ny))))
            assert type(peak.x) is float and type(peak.y) is float
            assert peak.x.hex() == float(spec.x_coords()[peak.i]).hex()
            assert peak.y.hex() == float(spec.y_coords()[peak.j]).hex()
            # the scalar formula x0 + i dx gives the same bits
            assert (peak.x, peak.y) == (x0 + dx * peak.i, y0 + dy * peak.j)

    def test_all_below_floor_raises(self):
        spec = GridSpec(0.5, 0.25, 0.02, 0.02, 2, 2, 0.0)
        with pytest.raises(NoPeakError):
            find_peak(PowerGrid(spec, np.full((2, 2), -math.inf)))

    def test_a_finite_power_under_minus_250_dbm_is_a_peak(self):
        # only -inf marks the floor: a grid file may hold finite powers under -250 dBm
        spec = GridSpec(0.5, 0.25, 0.02, 0.02, 2, 2, 0.0)
        peak = find_peak(PowerGrid(spec, np.array([[-math.inf, -300.0], [-math.inf, -math.inf]])))
        assert (peak.i, peak.j, peak.power_dbm) == (0, 1, -300.0)

    def test_matches_independent_scan(self, sweep_refl_p2):
        peak = find_peak(sweep_refl_p2)
        best = None
        for i in range(sweep_refl_p2.spec.nx):
            for j in range(sweep_refl_p2.spec.ny):
                v = sweep_refl_p2.values[i, j]
                if best is None or v > best[0]:
                    best = (v, i, j)
        assert (peak.power_dbm, peak.i, peak.j) == best

    def test_peak_on_target_bearing(self, sweep_refl_p2, p2):
        peak = find_peak(sweep_refl_p2)
        assert math.degrees(math.atan2(peak.y, peak.x)) == pytest.approx(
            p2.azimuth_deg, abs=1.5
        )


class TestHpbw:
    def test_active_focus_widths(self, scenario, active_p2, p2):
        alpha = hpbw(scenario, active_p2, p2, "azimuth")
        beta = hpbw(scenario, active_p2, p2, "elevation")
        assert alpha == pytest.approx(8.0, abs=2.0)
        assert beta == pytest.approx(7.0, abs=2.0)

    def test_flat_pattern_is_unresolved(self):
        layout = RisLayout((Vec3(0.0, 0.0, 0.0),), d_y=6.6e-3, d_z=6.6e-3)
        scenario = Scenario(
            frequency_hz=23.8e9,
            tx_power_dbm=10.0,
            bs_position=Vec3(1.86, 0.0, 0.0),
            bs_pattern=AntennaPattern(19.0, 0.0),
            ue_pattern=AntennaPattern(3.2, 0.0),
            element_pattern=AntennaPattern(0.0, 0.0),
            layout=layout,
        )
        config = uniform_config(layout, ReflectionCoefficient(0.3, 0.0))
        with pytest.raises(BeamNotResolvedError):
            hpbw(scenario, config, SphericalCoord(1.4, 10.0, -16.0), "azimuth")

    def test_invariant_under_power_offset(self, scenario, active_p2, p2):
        base = hpbw(scenario, active_p2, p2, "azimuth")
        louder = replace(scenario, tx_power_dbm=scenario.tx_power_dbm + 17.0)
        assert hpbw(louder, active_p2, p2, "azimuth") == pytest.approx(base, abs=1e-9)

    def test_invalid_axis(self, scenario, active_p2, p2):
        with pytest.raises(ValidationError):
            hpbw(scenario, active_p2, p2, "range")

    def test_a_tuple_of_axes_gives_a_tuple_of_widths_in_order(self, scenario, active_p2, p2):
        singles = tuple(hpbw(scenario, active_p2, p2, axis) for axis in _AXES)
        assert hpbw(scenario, active_p2, p2, _AXES) == singles
        assert hpbw(scenario, active_p2, p2, _AXES[::-1]) == singles[::-1]
        assert hpbw(scenario, active_p2, p2, ("elevation",)) == singles[1:]
        assert hpbw(scenario, active_p2, p2, ()) == ()

    def test_an_invalid_axis_in_a_tuple_is_rejected_before_any_row(
        self, kernel_rows, scenario, active_p2, p2
    ):
        with pytest.raises(ValidationError, match="^axis must be 'azimuth' or 'elevation', got 'range'$"):
            hpbw(scenario, active_p2, p2, ("azimuth", "range"))
        assert kernel_rows == []

    def test_a_failed_lockstep_round_raises_the_first_cut_s_own_error(
        self, monkeypatch, scenario, active_p2, p2
    ):
        # a round that fails on its size: alone, each cut fails on its own coarse pass, so the
        # error of both cuts in lockstep must be the azimuth cut's, not the merged round's
        def failing(scenario, sums):
            raise GeometryError(f"{len(sums)} sums")

        monkeypatch.setattr(rissim.sweep, "dbm_from_sums", failing)
        coarse = [len(rissim.sweep._hpbw_window(p2, axis)[1]) for axis in _AXES]
        for axes in (_AXES, _AXES[::-1]):
            with pytest.raises(GeometryError, match=f"^{coarse[_AXES.index(axes[0])]} sums$"):
                hpbw(scenario, active_p2, p2, axes)

    def test_the_first_failing_cut_s_error_in_axis_order(self, scenario):
        # two isotropic elements across the azimuth rotation axis, seen at azimuth 0: fringes
        # along the azimuth cut; along the elevation cut both paths stay equal and the power flat
        pair = (Vec3(0.0, -0.3, 0.0), Vec3(0.0, 0.3, 0.0))
        flat = replace(
            scenario,
            element_pattern=AntennaPattern(0.0, 0.0),
            ue_pattern=AntennaPattern(3.2, 0.0),
            layout=replace(scenario.layout, elements=pair),
        )
        config = RisConfig((REFLECTIVE.states[0],) * 2, REFLECTIVE.name)
        target = SphericalCoord(1.4, 0.0, -16.0)
        alpha = hpbw(flat, config, target, "azimuth")
        with pytest.raises(BeamNotResolvedError, match=r"\(elevation cut\)$"):
            hpbw(flat, config, target, "elevation")
        for axes in (_AXES, _AXES[::-1]):
            with pytest.raises(BeamNotResolvedError, match=r"\(elevation cut\)$"):
                hpbw(flat, config, target, axes)
        assert hpbw(flat, config, target, ("azimuth", "azimuth")) == (alpha, alpha)


def _hpbw_or_error(fn, scenario, config, target, axis):
    try:
        return np.float64(fn(scenario, config, target, axis)).tobytes()
    except BeamNotResolvedError:
        return BeamNotResolvedError


def _hpbw_and_rounds(scenario, config, target, axis):
    """_hpbw_or_error(hpbw, ...) and the number of coherent_sums calls hpbw made: its rounds."""
    with recording_rounds() as rounds:
        got = _hpbw_or_error(hpbw, scenario, config, target, axis)
    return got, len(rounds)


class TestHpbwMatchesFullScan:
    """hpbw evaluates part of the arc; its results must equal a scan of all of it."""

    @pytest.mark.parametrize(
        "spec, seed",
        [({}, 4401), ({"ris": {"rings": 12}}, 4402)],
        ids=["127-elements", "469-elements"],
    )
    def test_bitwise_equal_over_configs_alphabets_and_axes(self, spec, seed):
        doc = resolve_scenario(spec)
        scenario, m = doc.scenario, len(doc.scenario.layout)
        rng = np.random.default_rng(seed)
        # near the poles the +/-90 degree cut-off shortens the last coarse interval
        targets = [doc.targets["P1"], SphericalCoord(1.4, -20.0, -85.5)]
        if m == 127:
            targets += [
                doc.targets["P2"],
                SphericalCoord(2.0, 5.0, 88.7),
                SphericalCoord(float(rng.uniform(0.8, 2.5)), float(rng.uniform(-60.0, 60.0)), -30.0),
            ]
        for target in targets:
            for alphabet in (REFLECTIVE, ACTIVE):
                states = rng.integers(0, len(alphabet.states), m)
                configs = (
                    optimize_config(scenario, spherical_to_cartesian(target), alphabet),
                    RisConfig(tuple(alphabet.states[k] for k in states), alphabet.name),
                    uniform_config(scenario.layout, alphabet.states[0], alphabet.name),
                )
                for config in configs:
                    for axis in ("azimuth", "elevation"):
                        got = _hpbw_or_error(hpbw, scenario, config, target, axis)
                        want = _hpbw_or_error(hpbw_full_scan, scenario, config, target, axis)
                        assert got == want, (target, alphabet.name, axis)

    def test_bitwise_equal_on_two_element_fringes(self, scenario):
        # two elements across the cut's rotation axis: narrow fringes of nearly equal height,
        # where L is nearly tight and the highest sample is often not in the coarse peak's lobe;
        # the peak then moves once, and a cut takes a third round, never a fourth
        rng = np.random.default_rng(1)
        third_rounds = 0
        for axis in ("azimuth", "elevation"):
            for d in (0.1, 0.2, 0.3):
                pair = (Vec3(0.0, -d, 0.0), Vec3(0.0, d, 0.0))
                if axis == "elevation":
                    pair = (Vec3(0.0, 0.0, -d), Vec3(0.0, 0.0, d))
                fringes = replace(scenario, layout=replace(scenario.layout, elements=pair))
                for _ in range(15):
                    target = SphericalCoord(
                        float(rng.uniform(0.7, 3.0)),
                        float(rng.uniform(-60.0, 60.0)),
                        float(rng.uniform(-60.0, 40.0)),
                    )
                    alphabet = REFLECTIVE if rng.random() < 0.5 else ACTIVE
                    states = rng.integers(0, len(alphabet.states), 2)
                    config = RisConfig(tuple(alphabet.states[k] for k in states), alphabet.name)
                    got, rounds = _hpbw_and_rounds(fringes, config, target, axis)
                    want = _hpbw_or_error(hpbw_full_scan, fringes, config, target, axis)
                    assert got == want, (axis, d, target)
                    assert rounds <= 3, (axis, d, target)
                    third_rounds += rounds == 3
        assert third_rounds > 0

    @pytest.mark.parametrize(
        "axis, d, target, second",
        [
            ("azimuth", 0.3, SphericalCoord(2.55, 20.8, -21.3), 0),
            ("elevation", 0.22, SphericalCoord(1.51, 7.3, -23.5), 1),
        ],
    )
    def test_dips_between_coarse_samples_are_evaluated(
        self, hpbw_rounds, scenario, axis, d, target, second
    ):
        # two elements 2 d apart across the rotation axis: fringes narrower than the 3 degree
        # coarse interval around the peak, so |S| dips below the -3 dB level on both sides of
        # the peak where the line through the coarse sums stays above it
        pair = (Vec3(0.0, -d, 0.0), Vec3(0.0, d, 0.0))
        if axis == "elevation":
            pair = (Vec3(0.0, 0.0, -d), Vec3(0.0, 0.0, d))
        fringes = replace(scenario, layout=replace(scenario.layout, elements=pair))
        config = RisConfig((REFLECTIVE.states[0], REFLECTIVE.states[second]), REFLECTIVE.name)
        offsets, coarse, widths, j, since, until = rissim.sweep._hpbw_window(target, axis)
        positions = rissim.sweep._arc_positions(target, [(axis, offsets)])
        sums = coherent_sums(fringes, config, positions)
        powers = dbm_from_sums(fringes, sums)
        k = int(np.argmax(powers))
        below = np.flatnonzero(powers < powers[k] - 3.0)
        dips = [below[below < k].max(), below[below > k].min()]
        for t in dips:
            line = (sums[coarse[j[t]]] * until[t] + sums[coarse[j[t] + 1]] * since[t]) / widths[j[t]]
            assert abs(line) > 10.0 ** (-3.0 / 20.0) * np.abs(sums).max(), t
        got = _hpbw_or_error(hpbw, fringes, config, target, axis)
        assert got == _hpbw_or_error(hpbw_full_scan, fringes, config, target, axis)
        evaluated = [tuple(p) for positions in hpbw_rounds for p in positions]
        assert all(tuple(positions[t]) in evaluated for t in dips)

    @pytest.mark.parametrize("target_name", ["P1", "P2"])
    @pytest.mark.parametrize("alphabet", [REFLECTIVE, ACTIVE], ids=lambda a: a.name)
    def test_bitwise_equal_with_the_peak_just_above_the_power_floor(
        self, scenario, doc, target_name, alphabet
    ):
        # the peak 1.5 dB above the -250 dBm floor: samples within 3 dB of it read -inf, below
        # the -3 dB reference, however far above it their amplitude is certified
        target = doc.targets[target_name]
        config = optimize_config(scenario, spherical_to_cartesian(target), alphabet)
        peak = received_power(scenario, config, spherical_to_cartesian(target))
        quiet = replace(scenario, tx_power_dbm=scenario.tx_power_dbm - 248.5 - peak)
        for axis in ("azimuth", "elevation"):
            got = _hpbw_or_error(hpbw, quiet, config, target, axis)
            assert got == _hpbw_or_error(hpbw_full_scan, quiet, config, target, axis), axis

    def test_all_off_config_is_unresolved_like_the_full_scan(self, scenario, p2):
        config = uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")
        for axis in ("azimuth", "elevation"):
            for fn in (hpbw, hpbw_full_scan):
                with pytest.raises(BeamNotResolvedError):
                    fn(scenario, config, p2, axis)

    @pytest.mark.parametrize("spec", [{}, {"bs": {"azimuth_deg": 180.0}}], ids=["off", "bs-behind"])
    def test_nothing_reflecting_has_no_bound_and_evaluates_every_sample(self, hpbw_rounds, spec):
        # w_m = |Gamma_m| c_m is 0 for every element: all off, or the BS behind the surface
        scenario = resolve_scenario(spec).scenario
        config = (
            optimize_config(scenario, Vec3(1.2, 0.5, -0.4), REFLECTIVE)
            if spec
            else uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")
        )
        target = SphericalCoord(1.4, 40.0, -60.0)
        for axis in ("azimuth", "elevation"):
            offsets, coarse, widths = rissim.sweep._hpbw_window(target, axis)[:3]
            ends = rissim.sweep._arc_positions(target, [(axis, offsets[coarse])])
            [bounds] = rissim.sweep._interval_bounds(scenario, config, target, [(axis, widths)], ends)
            assert all(np.isposinf(bound).all() for bound in bounds)
            hpbw_rounds.clear()
            with pytest.raises(BeamNotResolvedError, match=rf"\({axis} cut\)$"):
                hpbw(scenario, config, target, axis)
            assert [len(positions) for positions in hpbw_rounds] == [
                len(coarse), len(offsets) - len(coarse)
            ]

    @pytest.mark.parametrize(
        "element_q, ue_q",
        [(0.0, 0.0), (1.0, 0.5), (3.0, 2.5), (0.0, 1.0)],
        ids=["element-step", "ue-root-taper", "smooth-tapers", "step-and-linear"],
    )
    def test_bitwise_equal_under_other_pattern_exponents(self, scenario, p1, p2, element_q, ue_q):
        variant = replace(
            scenario,
            element_pattern=AntennaPattern(0.0, element_q),
            ue_pattern=AntennaPattern(3.2, ue_q),
        )
        for target in (p1, p2, SphericalCoord(1.4, 75.0, 10.0)):
            for alphabet in (REFLECTIVE, ACTIVE):
                config = optimize_config(variant, spherical_to_cartesian(target), alphabet)
                for axis in ("azimuth", "elevation"):
                    got = _hpbw_or_error(hpbw, variant, config, target, axis)
                    assert got == _hpbw_or_error(hpbw_full_scan, variant, config, target, axis)

    def test_bitwise_equal_where_a_step_pattern_meets_an_unbounded_taper(self, scenario):
        # a step element pattern (exponent 0) and a UE taper cos^0.5 whose cosine reaches 0 near
        # elevation 0: the taper product's 0 * inf there is no bound (inf), so the interval's
        # samples stay candidates; read as NaN, they were skipped and 3 of these 12 cuts differed
        rng = np.random.default_rng(1)
        for _ in range(12):
            d = float(rng.uniform(0.05, 0.3))
            pair = (Vec3(0.0, -d, 0.0), Vec3(0.0, d, 0.0))
            step = replace(
                scenario,
                element_pattern=AntennaPattern(0.0, 0.0),
                ue_pattern=AntennaPattern(3.2, 1.0),
                layout=replace(scenario.layout, elements=pair),
            )
            target = SphericalCoord(
                float(rng.uniform(0.7, 2.0)),
                float(rng.uniform(-40.0, 40.0)),
                float(rng.uniform(-3.0, 3.0)),
            )
            second = REFLECTIVE.states[int(rng.integers(0, 2))]
            config = RisConfig((REFLECTIVE.states[0], second), REFLECTIVE.name)
            offsets, coarse, widths = rissim.sweep._hpbw_window(target, "azimuth")[:3]
            ends = rissim.sweep._arc_positions(target, [("azimuth", offsets[coarse])])
            [(curve, _)] = rissim.sweep._interval_bounds(
                step, config, target, [("azimuth", widths)], ends
            )
            assert not np.isnan(curve).any(), target
            got = _hpbw_or_error(hpbw, step, config, target, "azimuth")
            assert got == _hpbw_or_error(hpbw_full_scan, step, config, target, "azimuth"), target

    @pytest.mark.parametrize(
        "variant",
        [
            {"frequency_ghz": 1.0e155},
            *({"ue": {"pattern_exponent": q}} for q in (2.0e154, 3.0e154, 1.0e300)),
            *({"ris": {"element_pattern_exponent": q}} for q in (2.0e154, 3.0e154, 1.0e300)),
        ],
        ids=[
            "frequency-1e155",
            *(f"{part}-{q}" for part in ("ue", "element") for q in ("2e154", "3e154", "1e300")),
        ],
    )
    def test_a_nan_bound_is_no_bound(self, variant):
        # k^2 overflows (from about 6.4e152 GHz) and meets a zero coordinate of |u_m x n| in Q,
        # and a taper's scale overflows and meets top ** (p - n) = 0: the bound reads NaN, which
        # is inf, so the interval is evaluated and no RuntimeWarning is raised. Compared as a
        # number, NaN left every interval out of the span, and hpbw crashed on the empty span
        doc = resolve_scenario(variant)
        p1 = doc.targets["P1"]
        for target in (p1, SphericalCoord(p1.r, 70.0, p1.elevation_deg)):
            for alphabet in (REFLECTIVE, ACTIVE):
                config = optimize_config(doc.scenario, spherical_to_cartesian(target), alphabet)
                for axis in ("azimuth", "elevation"):
                    offsets, coarse, widths = rissim.sweep._hpbw_window(target, axis)[:3]
                    ends = rissim.sweep._arc_positions(target, [(axis, offsets[coarse])])
                    [bounds] = rissim.sweep._interval_bounds(
                        doc.scenario, config, target, [(axis, widths)], ends
                    )
                    assert not any(np.isnan(bound).any() for bound in bounds), (target, axis)
                    got = _hpbw_or_error(hpbw, doc.scenario, config, target, axis)
                    want = _hpbw_or_error(hpbw_full_scan, doc.scenario, config, target, axis)
                    assert got == want, (target, alphabet.name, axis)

    def test_crossing_next_to_a_zero_power_sample(self):
        # a step element pattern zeroes the field past azimuth 90 deg, so a -inf sample sits
        # next to the right crossing: it lands on the last sample at or above the level
        doc = resolve_scenario({"ris": {"element_pattern_exponent": 0.0}})
        target = SphericalCoord(1.4, 86.0, -16.0)
        config = optimize_config(doc.scenario, spherical_to_cartesian(target), REFLECTIVE)
        offsets = rissim.sweep._hpbw_window(target, "azimuth")[0]
        positions = rissim.sweep._arc_positions(target, [("azimuth", offsets)])
        powers = dbm_from_sums(doc.scenario, coherent_sums(doc.scenario, config, positions))
        peak = int(np.argmax(powers))
        assert np.isfinite(powers[peak]) and powers[peak + 1] == -math.inf
        got = hpbw(doc.scenario, config, target, "azimuth")
        assert got == hpbw_full_scan(doc.scenario, config, target, "azimuth")
        assert f"{got:.6g}" == "20.6931"

    @pytest.mark.parametrize(
        "target",
        [SphericalCoord(0.04, 20.0, -16.0), SphericalCoord(0.045, 10.0, -5.0)],
        ids=["r40mm", "r45mm"],
    )
    def test_no_bound_inside_the_surface_radius_scans_every_sample(self, scenario, target):
        # closer than the outermost element (0.0522 m) there is no bound and no interval is skipped
        for alphabet in (REFLECTIVE, ACTIVE):
            config = optimize_config(scenario, spherical_to_cartesian(target), alphabet)
            for axis in ("azimuth", "elevation"):
                offsets, coarse, widths = rissim.sweep._hpbw_window(target, axis)[:3]
                positions = rissim.sweep._arc_positions(target, [(axis, offsets)])
                [(curve, incoherent)] = rissim.sweep._interval_bounds(
                    scenario, config, target, [(axis, widths)], positions[coarse]
                )
                assert np.isinf(curve).all() and np.isinf(incoherent).all()
                got = _hpbw_or_error(hpbw, scenario, config, target, axis)
                assert got == _hpbw_or_error(hpbw_full_scan, scenario, config, target, axis)

    @pytest.mark.parametrize("axis", ["azimuth", "elevation"])
    def test_interval_bound_holds_at_every_fine_sample(self, scenario, doc, axis):
        rng = np.random.default_rng(4403)
        # the last target is nearer than 1 m, where 1 / D**3 exceeds 1 / D**2
        near = SphericalCoord(0.35, 30.0, -20.0)
        for target in (doc.targets["P1"], SphericalCoord(0.9, -50.0, 20.0), near):
            window = rissim.sweep._hpbw_window(target, axis)
            positions = rissim.sweep._arc_positions(target, [(axis, window[0])])
            for alphabet in (REFLECTIVE, ACTIVE):
                for _ in range(3):
                    states = rng.integers(0, len(alphabet.states), len(scenario.layout))
                    config = RisConfig(tuple(alphabet.states[k] for k in states), alphabet.name)
                    sums = coherent_sums(scenario, config, positions)
                    [(curve, _)] = rissim.sweep._interval_bounds(
                        scenario, config, target, [(axis, window[2])], positions[window[1]]
                    )
                    _assert_interpolation_error_bounded(sums, curve, window)

    @pytest.mark.parametrize("target_name", ["P1", "P2"])
    @pytest.mark.parametrize("alphabet", [REFLECTIVE, ACTIVE], ids=lambda a: a.name)
    def test_focused_beams_evaluate_few_arc_points(
        self, kernel_rows, scenario, doc, target_name, alphabet
    ):
        target = doc.targets[target_name]
        config = optimize_config(scenario, spherical_to_cartesian(target), alphabet)
        for axis in ("azimuth", "elevation"):
            kernel_rows.clear()
            hpbw(scenario, config, target, axis)
            assert 0 < sum(kernel_rows) <= 300, (axis, sum(kernel_rows))


class TestHpbwCoarseGrid:
    def test_one_degree_near_the_target_and_three_beyond(self):
        offsets, coarse = rissim.sweep._hpbw_window(SphericalCoord(1.4, 10.0, -16.0), "azimuth")[:2]
        got = np.rint(offsets[coarse] * 10).astype(int)
        want = [*range(-450, -60, 30), *range(-60, 61, 10), *range(90, 451, 30)]
        assert got.tolist() == want

    @pytest.mark.parametrize("elevation", [85.3, -88.7])
    def test_cut_short_at_a_pole_keeps_its_first_and_last_sample(self, elevation):
        target = SphericalCoord(1.4, 10.0, elevation)
        offsets, coarse = rissim.sweep._hpbw_window(target, "elevation")[:2]
        assert coarse[0] == 0 and coarse[-1] == len(offsets) - 1
        inner = np.rint(offsets[coarse[1:-1]] * 10).astype(int)
        assert np.all(inner % np.where(np.abs(inner) <= 60, 10, 30) == 0)
        assert 0 in inner


class TestHpbwWindow:
    """hpbw's per-window arrays are built once per elevation clip and shared by every cut."""

    ELEVATIONS = [-90.0, -60.0, -45.05, 0.0, 45.05, 60.0, 89.95, 90.0]

    @staticmethod
    def _assert_equals_a_fresh_computation(target, axis):
        offsets = (np.arange(901) - 450) * 0.1
        elevation = target.elevation_deg
        if axis == "elevation":
            offsets = offsets[(elevation + offsets >= -90.0) & (elevation + offsets <= 90.0)]
        # every 1 degree within 6 degrees of the target, every 3 degrees beyond, and both ends
        tenths = np.rint(offsets * 10).astype(int)
        on = np.where(np.abs(tenths) <= 60, tenths % 10 == 0, tenths % 30 == 0)
        on[[0, -1]] = True
        coarse = np.flatnonzero(on)
        theta = np.radians(offsets)
        j = np.clip(np.searchsorted(coarse, np.arange(len(offsets))), 1, len(coarse) - 1) - 1
        a, b = coarse[j], coarse[j + 1]
        want = {
            "offsets": offsets,
            "coarse": coarse,
            "widths": np.diff(theta[coarse]),
            "j": j,
            "since": theta - theta[a],
            "until": theta[b] - theta,
        }
        window = rissim.sweep._hpbw_window(target, axis)
        assert len(window) == len(want)
        for got, (name, array) in zip(window, want.items()):
            assert got.dtype == array.dtype and got.shape == array.shape, (name, elevation)
            assert got.tobytes() == array.tobytes(), (name, elevation)
            assert not got.flags.writeable, (name, elevation)

    @pytest.mark.parametrize("elevation", ELEVATIONS)
    @pytest.mark.parametrize("axis", ["azimuth", "elevation"])
    def test_equals_a_fresh_computation(self, axis, elevation):
        self._assert_equals_a_fresh_computation(SphericalCoord(1.4, 10.0, elevation), axis)

    @pytest.mark.parametrize("axis", ["azimuth", "elevation"])
    def test_equals_a_fresh_computation_at_every_elevation(self, axis):
        # -90 to 90 degrees at half the fine step, so every clip of the window at either pole
        for elevation in np.linspace(-90.0, 90.0, 3601).tolist():
            self._assert_equals_a_fresh_computation(SphericalCoord(1.4, 10.0, elevation), axis)

    def test_cuts_within_45_degrees_share_one_window(self):
        windows = {
            id(rissim.sweep._hpbw_window(SphericalCoord(1.4, az, el), axis))
            for az in (-170.0, 10.0, 180.0)
            for el in (-45.0, -16.0, 0.0, 45.0)
            for axis in ("azimuth", "elevation")
        }
        assert len(windows) == 1

    @pytest.mark.parametrize("order", ["clipped-first", "unclipped-first"])
    def test_clipped_and_unclipped_cuts_in_turn_equal_the_full_scan(self, scenario, order):
        # a window kept under a key without the clip would serve the next cut the wrong samples
        targets = [SphericalCoord(1.4, 10.0, 60.0), SphericalCoord(1.4, 10.0, -16.0)]
        if order == "unclipped-first":
            targets.reverse()
        rissim.sweep._window_arrays.cache_clear()
        for target in targets * 2:
            config = optimize_config(scenario, spherical_to_cartesian(target), REFLECTIVE)
            got = _hpbw_or_error(hpbw, scenario, config, target, "elevation")
            assert got is not BeamNotResolvedError, target
            assert got == _hpbw_or_error(hpbw_full_scan, scenario, config, target, "elevation")


class TestAcrossAxis:
    """The closed-form |u_m x n| of _interval_bounds has the bits of np.cross."""

    @pytest.mark.parametrize(
        "surface", ["default", "off-plane", "469-elements", "random-7", "random-60"]
    )
    def test_bitwise_equal_to_np_cross(self, scenario, surface):
        rng = np.random.default_rng(4410)
        if surface.startswith("random"):
            scenario, _ = make_random_scenario(rng, int(surface.split("-")[1]))
        elif surface == "off-plane":
            scenario = _off_plane(scenario)
        elif surface == "469-elements":
            scenario = resolve_scenario({"ris": {"rings": 12}}).scenario
        u = scenario.layout.positions
        for azimuth in (0.0, 90.0, -90.0, 180.0, float(rng.uniform(-180.0, 180.0))):
            for axis in ("azimuth", "elevation"):
                got = rissim.sweep._across_axis(u, axis, azimuth)
                want = abs_cross_reference(u, axis, azimuth)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (axis, azimuth)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    r=st.floats(0.3, 3.0),
    azimuth=st.floats(-180.0, 180.0, exclude_min=True),
    elevation=st.floats(-89.0, 89.0),
    alphabet=st.sampled_from([REFLECTIVE, ACTIVE]),
    seed=st.integers(0, 2**32 - 1),
    axis=st.sampled_from(["azimuth", "elevation"]),
)
def test_hpbw_equals_the_full_scan_on_drawn_targets(
    scenario, r, azimuth, elevation, alphabet, seed, axis
):
    target = SphericalCoord(r, azimuth, elevation)
    rng = np.random.default_rng(seed)
    states = rng.integers(0, len(alphabet.states), len(scenario.layout))
    # a focused configuration half the time: its main lobe is what the certificate must clear
    config = (
        optimize_config(scenario, spherical_to_cartesian(target), alphabet)
        if rng.random() < 0.5
        else RisConfig(tuple(alphabet.states[k] for k in states), alphabet.name)
    )
    got, rounds = _hpbw_and_rounds(scenario, config, target, axis)
    assert got == _hpbw_or_error(hpbw_full_scan, scenario, config, target, axis)
    assert rounds <= 3


def _assert_interpolation_error_bounded(sums, curve, window):
    """At every fine sample inside every coarse interval [a, b], the complex sum S(t) lies
    within (t - a)(b - t) M2 / 2 of the line p(t) through S(a) and S(b), as hpbw takes it,
    and hpbw's interval bound U = max(|S(a)|, |S(b)|) + (b - a)^2 M2 / 8 is at least every
    sample's upper bound |p(t)| + (t - a)(b - t) M2 / 2."""
    _, coarse, widths, _, since, until = window
    for j, (a, b) in enumerate(zip(coarse[:-1], coarse[1:])):
        t = np.arange(a + 1, b)
        line = (sums[a] * until[t] + sums[b] * since[t]) / widths[j]
        bound = 0.5 * since[t] * until[t] * curve[j]
        assert np.all(np.abs(sums[t] - line) <= bound * (1.0 + 1e-12)), j
        top = max(abs(sums[a]), abs(sums[b])) + widths[j] * widths[j] * curve[j] / 8.0
        assert np.all(np.abs(line) + bound <= top * (1.0 + 1e-12)), j


def _assert_interval_bounds_hold(scenario, config, target, axis):
    """Both halves of hpbw's certificate at every fine sample of every coarse interval:
    S within the interpolation error bound and sum_m |Gamma_m| |g_m| under the incoherent
    bound, from a full scan's phasors."""
    window = rissim.sweep._hpbw_window(target, axis)
    coarse, widths = window[1:3]
    positions = rissim.sweep._arc_positions(target, [(axis, window[0])])
    phasors = rissim.linkbudget.element_phasor_matrix(scenario, positions)
    gamma = config.as_complex_array
    incoherent_amps = np.abs(phasors) @ np.abs(gamma)
    [(curve, incoherent)] = rissim.sweep._interval_bounds(
        scenario, config, target, [(axis, widths)], positions[coarse]
    )
    _assert_interpolation_error_bounded(np.sum(phasors * gamma, axis=-1), curve, window)
    for j, (a, b) in enumerate(zip(coarse[:-1], coarse[1:])):
        assert incoherent_amps[a:b + 1].max() <= incoherent[j] * (1.0 + 1e-12), (axis, j)


def _off_plane(scenario):
    """The scenario with every element 2 mm in front of or behind the plane, so max u_x and min
    u_x differ."""
    elements = tuple(
        Vec3(0.002 if m % 2 else -0.002, e.y, e.z) for m, e in enumerate(scenario.layout.elements)
    )
    return replace(scenario, layout=replace(scenario.layout, elements=elements))


def _random_configs(rng, m_count, count=2):
    for alphabet in (REFLECTIVE, ACTIVE):
        for _ in range(count):
            states = rng.integers(0, len(alphabet.states), m_count)
            yield RisConfig(tuple(alphabet.states[k] for k in states), alphabet.name)


class TestPeakCertificate:
    """_interval_bounds bounds each interval from the surface's extremes; both of its
    bounds must hold on every surface, pattern and target."""

    # the last target is nearer than 1 m, where 1 / D**3 exceeds 1 / D**2
    TARGETS = [
        SphericalCoord(1.4, 10.0, -16.0),
        SphericalCoord(0.9, -50.0, 20.0),
        SphericalCoord(0.35, 30.0, -20.0),
    ]

    # b's coordinates change sign at or inside an interval: azimuth 0, +/-90 and 180,
    # elevation 0 and near the poles
    SIGN_CHANGE_TARGETS = [
        SphericalCoord(1.2, 0.0, 0.0),
        SphericalCoord(1.2, 0.35, 0.45),
        SphericalCoord(1.2, 90.0, -16.0),
        SphericalCoord(0.6, -89.7, 10.0),
        SphericalCoord(1.2, 180.0, 0.0),
        SphericalCoord(1.2, 179.6, -0.3),
        SphericalCoord(0.8, 30.0, 85.0),
        SphericalCoord(0.8, -120.0, 87.5),
        SphericalCoord(0.4, 60.0, -89.0),
        SphericalCoord(1.2, 0.0, -86.3),
    ]

    @pytest.mark.parametrize("axis", ["azimuth", "elevation"])
    @pytest.mark.parametrize(
        "element_q, ue_q",
        [(None, None), (0.0, 0.0), (1.0, 0.5), (3.0, 2.5)],
        ids=["default", "element-step", "ue-root-taper", "smooth-tapers"],
    )
    def test_both_bounds_hold_under_pattern_exponents(self, scenario, element_q, ue_q, axis):
        if element_q is not None:
            scenario = replace(
                scenario,
                element_pattern=AntennaPattern(0.0, element_q),
                ue_pattern=AntennaPattern(3.2, ue_q),
            )
        rng = np.random.default_rng(4404)
        for target in self.TARGETS:
            for config in _random_configs(rng, len(scenario.layout)):
                _assert_interval_bounds_hold(scenario, config, target, axis)

    @pytest.mark.parametrize("axis", ["azimuth", "elevation"])
    def test_both_bounds_hold_with_elements_off_the_surface_plane(self, scenario, axis):
        shifted = _off_plane(scenario)
        assert np.ptp(shifted.layout.positions[:, 0]) == pytest.approx(0.004)
        rng = np.random.default_rng(4405)
        for target in self.TARGETS:
            for config in _random_configs(rng, len(shifted.layout)):
                _assert_interval_bounds_hold(shifted, config, target, axis)

    @pytest.mark.parametrize("axis", ["azimuth", "elevation"])
    @pytest.mark.parametrize("line", ["y", "z"])
    def test_both_bounds_hold_on_a_line_of_elements(self, scenario, line, axis):
        # only the part of u_m across the cut's rotation axis moves d2, so a line along y or z
        # shows a bound taken about the wrong axis
        step = np.linspace(-0.05, 0.05, 21)
        elements = tuple(
            Vec3(0.0, float(t), 0.0) if line == "y" else Vec3(0.0, 0.0, float(t)) for t in step
        )
        scenario = replace(scenario, layout=replace(scenario.layout, elements=elements))
        rng = np.random.default_rng(4409)
        for target in self.TARGETS + self.SIGN_CHANGE_TARGETS[:4]:
            for config in _random_configs(rng, len(elements), count=1):
                _assert_interval_bounds_hold(scenario, config, target, axis)

    @pytest.mark.parametrize("axis", ["azimuth", "elevation"])
    @pytest.mark.parametrize("surface", ["default", "off-plane", "random-7", "random-60"])
    def test_both_bounds_hold_where_the_arc_coordinates_change_sign(self, scenario, surface, axis):
        rng = np.random.default_rng(4408)
        if surface.startswith("random"):
            scenario, _ = make_random_scenario(rng, int(surface.split("-")[1]))
        elif surface == "off-plane":
            scenario = _off_plane(scenario)
        for target in self.SIGN_CHANGE_TARGETS:
            for config in _random_configs(rng, len(scenario.layout), count=1):
                _assert_interval_bounds_hold(scenario, config, target, axis)

    @pytest.mark.parametrize("m_count", [7, 60])
    def test_both_bounds_hold_on_random_layouts(self, m_count):
        rng = np.random.default_rng(4406 + m_count)
        for _ in range(3):
            scenario, target = make_random_scenario(rng, m_count)
            target = cartesian_to_spherical(target)
            for config in _random_configs(rng, m_count, count=1):
                for axis in ("azimuth", "elevation"):
                    _assert_interval_bounds_hold(scenario, config, target, axis)

    @pytest.mark.parametrize(
        "target_name, alphabet, rows",
        [
            ("P1", REFLECTIVE, {"azimuth": 55, "elevation": 57}),
            ("P1", ACTIVE, {"azimuth": 56, "elevation": 107}),
            ("P2", REFLECTIVE, {"azimuth": 55, "elevation": 56}),
            ("P2", ACTIVE, {"azimuth": 56, "elevation": 54}),
        ],
        ids=["P1-reflective", "P1-active", "P2-reflective", "P2-active"],
    )
    def test_focused_cuts_evaluate_no_more_rows_than_per_element_bounds(
        self, kernel_rows, scenario, doc, target_name, alphabet, rows
    ):
        # rows evaluated on these cuts with the second-order bound on the complex sums, on
        # the target-centred grid; P1/active/elevation has a lobe at +16 degrees as high as
        # the main lobe, so both are filled
        target = doc.targets[target_name]
        config = optimize_config(scenario, spherical_to_cartesian(target), alphabet)
        for axis, most in rows.items():
            kernel_rows.clear()
            hpbw(scenario, config, target, axis)
            assert sum(kernel_rows) <= most, (axis, sum(kernel_rows))

    @pytest.mark.parametrize("target_name", ["P1", "P2"])
    @pytest.mark.parametrize("alphabet", [REFLECTIVE, ACTIVE], ids=lambda a: a.name)
    def test_focused_cuts_take_two_rounds(self, hpbw_rounds, scenario, doc, target_name, alphabet):
        # the coarse pass, then the hit samples together with the coarse peak's crossings
        target = doc.targets[target_name]
        config = optimize_config(scenario, spherical_to_cartesian(target), alphabet)
        for axis in ("azimuth", "elevation"):
            hpbw_rounds.clear()
            hpbw(scenario, config, target, axis)
            assert len(hpbw_rounds) == 2, axis
            offsets, coarse = rissim.sweep._hpbw_window(target, axis)[:2]
            positions = rissim.sweep._arc_positions(target, [(axis, offsets)])
            assert np.array_equal(hpbw_rounds[0], positions[coarse])


@pytest.mark.parametrize(
    "variant",
    [{}, {"ue": {"pattern_exponent": 0.5}}, {"ris": {"element_pattern_exponent": 0.0}}],
    ids=["default", "ue-root-taper", "step-pattern"],
)
def test_both_cuts_stacked_get_the_bits_of_their_own_calls(variant):
    """One _arc_positions and one _interval_bounds call over both cuts of an ellipse give each
    cut the bits of a call of its own; the interval between the two cuts is dropped."""
    scenario = resolve_scenario(variant).scenario
    rng = np.random.default_rng(33)
    targets = [
        SphericalCoord(1.4, 20.0, -16.0),
        SphericalCoord(0.9, -50.0, 20.0),
        SphericalCoord(1.4, 75.0, 89.5),  # the elevation cut stops at +90
        SphericalCoord(0.04, 20.0, -16.0),  # inside the surface radius: no bound
    ]
    configs = [
        *_random_configs(rng, len(scenario.layout), count=1),
        uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off"),
    ]
    for target in targets:
        windows = [rissim.sweep._hpbw_window(target, axis) for axis in _AXES]
        cuts = [(axis, w[0][w[1]]) for axis, w in zip(_AXES, windows)]
        ends = [rissim.sweep._arc_positions(target, [cut]) for cut in cuts]
        stacked = rissim.sweep._arc_positions(target, cuts)
        assert stacked.tobytes() == np.concatenate(ends).tobytes(), target
        for config in configs:
            alone = [
                rissim.sweep._interval_bounds(scenario, config, target, [(axis, w[2])], e)[0]
                for axis, w, e in zip(_AXES, windows, ends)
            ]
            both = rissim.sweep._interval_bounds(
                scenario, config, target, [(axis, w[2]) for axis, w in zip(_AXES, windows)], stacked
            )
            assert len(both) == 2
            for got, want in zip(both, alone):
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want], target


class TestElementSummary:
    """_interval_bounds builds its element summary in every call and keeps nothing: one call per
    hpbw call, a focus ellipse's two cuts included, and the full scan's bits whatever the
    scenario, Gamma vector and range of the call before."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The names of the hpbw calls (a failed lockstep run's replays included) and of the
        _interval_bounds calls, in call order; call rissim.sweep.hpbw to log the outer one."""
        log = []
        for name in ("hpbw", "_interval_bounds"):
            def logging(*args, fn=getattr(rissim.sweep, name), name=name):
                log.append(name)
                return fn(*args)

            monkeypatch.setattr(rissim.sweep, name, logging)
        return log

    def test_one_bound_call_per_hpbw_call(self, calls, scenario, refl_p1, p1):
        one = ["hpbw", "_interval_bounds"]
        for axis in ("azimuth", _AXES):  # a single axis, and both cuts of a focus ellipse
            calls.clear()
            rissim.sweep.hpbw(scenario, refl_p1, p1, axis)
            assert calls == one, axis
        # the lockstep run fails on its elevation cut, so each cut runs again on its own
        pair = (Vec3(0.0, -0.3, 0.0), Vec3(0.0, 0.3, 0.0))
        flat = replace(
            scenario,
            element_pattern=AntennaPattern(0.0, 0.0),
            ue_pattern=AntennaPattern(3.2, 0.0),
            layout=replace(scenario.layout, elements=pair),
        )
        config = RisConfig((REFLECTIVE.states[0],) * 2, REFLECTIVE.name)
        calls.clear()
        with pytest.raises(BeamNotResolvedError, match=r"\(elevation cut\)$"):
            rissim.sweep.hpbw(flat, config, SphericalCoord(1.4, 0.0, -16.0), _AXES)
        assert calls == one * 3

    def test_each_former_key_part_in_turn_equals_the_full_scan(self, scenario, refl_p1, p1):
        last = refl_p1.coefficients[-1]
        other = next(state for state in REFLECTIVE.states if state != last)
        changed = replace(refl_p1, coefficients=refl_p1.coefficients[:-1] + (other,))
        farther = SphericalCoord(p1.r + 0.1, p1.azimuth_deg, p1.elevation_deg)
        cases = [
            (scenario, refl_p1, p1),
            (scenario, changed, p1),  # one element's Gamma changed
            (scenario, refl_p1, farther),  # another range
            (replace(scenario), refl_p1, p1),  # an equal scenario that is another object
        ]
        for case in cases:
            for axis in ("azimuth", "elevation"):
                got = _hpbw_or_error(hpbw, *case, axis)
                assert got == _hpbw_or_error(hpbw_full_scan, *case, axis), axis


class TestCompareGrids:
    def test_identical_grids_compare_to_zero(self, sweep_refl_p1):
        result = compare_grids(sweep_refl_p1, sweep_refl_p1, -90.0)
        assert result.peak_offset_m == 0.0
        assert result.peak_delta_db == 0.0
        assert result.rmse_db == 0.0

    def test_uniform_offset(self, sweep_refl_p1):
        shifted = PowerGrid(sweep_refl_p1.spec, sweep_refl_p1.values + 3.0)
        result = compare_grids(sweep_refl_p1, shifted, -90.0)
        assert result.peak_offset_m == 0.0
        assert result.peak_delta_db == pytest.approx(3.0, abs=1e-12)
        assert result.rmse_db == pytest.approx(3.0, abs=1e-12)

    def test_simulation_versus_emulation(self, scenario, refl_p1, doc, sweep_refl_p1):
        sounder = SounderParams(rng_seed=5)
        emulated = emulate_measurement_grid(scenario, refl_p1, doc.grid, sounder)
        result = compare_grids(sweep_refl_p1, emulated, -90.0)
        assert abs(result.peak_delta_db) <= 1.0
        assert result.rmse_db <= 1.0
        # Noise envelope: a cell reads |sqrt(P) e^(i phi) + sqrt(N) z|^2 with
        # z ~ CN(0, 1), so its amplitude lies within sqrt(N) |z| of sqrt(P);
        # |z|^2 ~ Exp(1) stays below t on every cell except with probability
        # cells * e^-t = 1e-6. A grid evaluated one cell off breaks the
        # envelope on a few hundred cells.
        floor_mw = 10.0 ** (noise_floor(
            sounder.temperature_k, sounder.bandwidth_hz, sounder.averages,
            sounder.noise_figure_db,
        ) / 10.0)
        t = -math.log(1e-6 / sweep_refl_p1.values.size)
        reach = math.sqrt(t * floor_mw)
        sim_amp = np.sqrt(10.0 ** (sweep_refl_p1.values / 10.0))
        meas_amp = np.sqrt(10.0 ** (emulated.values / 10.0))
        assert np.all(np.abs(meas_amp - sim_amp) <= reach)
        # Peak location: the focus ridge is flat to a fraction of a dB over
        # several cells, so the noise moves the emulated peak among them (more
        # than one cell from the simulated peak on about 40% of seeds). Inside
        # the envelope it can only land on a cell whose amplitude plus reach
        # meets the simulated peak's minus reach, so it is no farther from the
        # simulated peak than the farthest such cell.
        sim = find_peak(sweep_refl_p1)
        candidates = np.argwhere(sim_amp + reach >= sim_amp[sim.i, sim.j] - reach)
        radius = max(
            math.hypot(x - sim.x, y - sim.y)
            for x, y in ((doc.grid.x_coords()[i], doc.grid.y_coords()[j]) for i, j in candidates)
        )
        assert result.peak_offset_m <= radius

    def test_result_holds_no_floor_and_the_floor_has_no_default(self, sweep_refl_p1):
        assert [f.name for f in fields(GridComparison)] == [
            "peak_offset_m", "peak_delta_db", "rmse_db"
        ]
        with pytest.raises(TypeError):
            compare_grids(sweep_refl_p1, sweep_refl_p1)

    @pytest.mark.parametrize("floor", [math.nan, math.inf, -math.inf])
    def test_floor_that_is_not_finite_rejected(self, sweep_refl_p1, floor):
        with pytest.raises(ValidationError, match="comparison floor must be finite"):
            compare_grids(sweep_refl_p1, sweep_refl_p1, floor)

    def test_spec_mismatch_rejected(self, sweep_refl_p1):
        other = GridSpec(0.0, 0.0, 0.02, 0.02, 2, 2, 0.0)
        with pytest.raises(ValidationError):
            compare_grids(sweep_refl_p1, PowerGrid(other, np.zeros((2, 2))), -90.0)


def test_sounder_params_validation():
    with pytest.raises(ValidationError):
        SounderParams(averages=0)
    with pytest.raises(ValidationError):
        SounderParams(window_start=9, window_stop=7)
    with pytest.raises(ValidationError):
        SounderParams(window_start=0)
    with pytest.raises(ValidationError, match="rng_seed"):
        SounderParams(rng_seed=-1)
    with pytest.raises(ValidationError, match="noise power"):
        SounderParams(temperature_k=1e-300, bandwidth_hz=1e-300)
