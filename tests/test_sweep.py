import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    average_ir_power,
    hpbw_full_scan,
    ks_critical_value,
    ks_statistic,
    linear_mean_dbm,
    make_random_scenario,
    record_level_power,
)
from rissim.errors import (
    BeamNotResolvedError,
    GeometryError,
    NoPeakError,
    ValidationError,
)
from rissim.geom import RisLayout, SphericalCoord, Vec3, spherical_to_cartesian
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
from rissim.linkbudget import RisConfig, coherent_sums
from rissim.optimizer import ACTIVE, REFLECTIVE, optimize_config, uniform_config
from rissim.sweep import (
    GridSpec,
    PowerGrid,
    SounderParams,
    compare_grids,
    emulate_measurement_grid,
    find_peak,
    hpbw,
    sweep_power,
)


@pytest.fixture
def kernel_rows(monkeypatch):
    """Position counts of the element_phasor_matrix calls made through rissim.sweep
    and through rissim.linkbudget (coherent_sums)."""
    kernel = rissim.linkbudget.element_phasor_matrix
    rows = []

    def counting(scenario, positions, elements=None):
        rows.append(len(positions))
        return kernel(scenario, positions, elements)

    monkeypatch.setattr(rissim.sweep, "element_phasor_matrix", counting)
    monkeypatch.setattr(rissim.linkbudget, "element_phasor_matrix", counting)
    return rows


class TestGridSpec:
    def test_default_matches_measurement_area(self, doc):
        g = doc.grid
        assert (g.x0, g.y0, g.dx, g.dy) == (0.92, 0.02, 0.02, 0.02)
        assert (g.nx, g.ny, g.z_plane) == (31, 46, -0.39)
        assert g.cell_xy(g.nx - 1, 0)[0] == pytest.approx(1.52)
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


class TestSweepPower:
    def test_single_cell_equals_received_power(self, scenario, refl_p1, p1):
        pos = spherical_to_cartesian(p1)
        grid = GridSpec(pos.x, pos.y, 0.02, 0.02, 1, 1, pos.z)
        swept = sweep_power(scenario, refl_p1, grid)
        direct = received_power(scenario, refl_p1, pos)
        assert swept.values[0, 0] == direct  # bit-identical path

    def test_all_off_grid_is_sentinel(self, scenario, doc):
        config = uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")
        grid = sweep_power(scenario, config, GridSpec(0.92, 0.02, 0.1, 0.1, 4, 4, -0.39))
        assert np.all(grid.values == BELOW_FLOOR_DBM)

    def test_row_evaluation_matches_single_cells_bitwise(self, scenario, refl_p1, doc):
        # a sweep row is one 46-position kernel call; received_power is a
        # 1-position call: the chunking must not move a single bit
        swept = sweep_power(scenario, refl_p1, doc.grid)
        for i in range(doc.grid.nx):
            for j in range(doc.grid.ny):
                pos = Vec3(*doc.grid.cell_xy(i, j), doc.grid.z_plane)
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
        layout = RisLayout((Vec3(0.0, 0.0, 0.0),), pitch=1e-2, d_y=6.6e-3, d_z=6.6e-3, rings=0)
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
        assume(abs(c) > 1e-6)  # keep the scaled power above the sentinel
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
    """sweep_power and the emulator share one cached (nx, ny, M) phasor array."""

    @staticmethod
    def _assert_cells_equal_received_power(scenario, config, grid):
        swept = sweep_power(scenario, config, grid)
        quiet = emulate_measurement_grid(scenario, config, grid, SounderParams(noise_enabled=False))
        for i in range(grid.nx):
            for j in range(grid.ny):
                direct = received_power(scenario, config, Vec3(*grid.cell_xy(i, j), grid.z_plane))
                assert swept.values[i, j] == direct, (i, j)
                assert quiet.values[i, j] == direct, (i, j)
        return swept.values

    def test_cache_keys_on_scenario_and_grid(self, scenario, refl_p1):
        # same shape, shifted origin: a key that ignored the grid would return
        # grid A's phasors for grid B
        grid_a = GridSpec(0.92, 0.70, 0.02, 0.02, 4, 5, -0.39)
        grid_b = replace(grid_a, x0=1.02)
        moved = replace(scenario, bs_position=Vec3(1.2, -1.4, 0.1))
        rissim.sweep._grid_phasors.cache_clear()
        first = self._assert_cells_equal_received_power(scenario, refl_p1, grid_a)
        other_grid = self._assert_cells_equal_received_power(scenario, refl_p1, grid_b)
        other_bs = self._assert_cells_equal_received_power(moved, refl_p1, grid_a)
        again = self._assert_cells_equal_received_power(scenario, refl_p1, grid_a)
        assert not np.array_equal(first, other_grid)
        assert not np.array_equal(first, other_bs)
        assert np.array_equal(first, again)

    def test_one_kernel_build_per_scenario_and_grid(self, kernel_rows, scenario, refl_p1, active_p2):
        grid = GridSpec(0.92, 0.02, 0.1, 0.1, 6, 9, -0.39)
        rissim.sweep._grid_phasors.cache_clear()
        sweep_power(scenario, refl_p1, grid)
        assert kernel_rows == [grid.ny] * grid.nx
        kernel_rows.clear()
        sweep_power(scenario, refl_p1, grid)
        sweep_power(scenario, active_p2, grid)
        emulate_measurement_grid(scenario, active_p2, grid, SounderParams(rng_seed=3))
        assert kernel_rows == []

    def test_cached_phasors_are_read_only(self, scenario, doc):
        phasors = rissim.sweep._grid_phasors(scenario, doc.grid)
        assert phasors.shape == (doc.grid.nx, doc.grid.ny, len(scenario.layout))
        assert not phasors.flags.writeable
        with pytest.raises(ValueError):
            phasors[0, 0, 0] = 0.0

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
        x, y = doc.grid.cell_xy(10, 20)
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

    def test_all_sentinel_raises(self):
        spec = GridSpec(0.5, 0.25, 0.02, 0.02, 2, 2, 0.0)
        with pytest.raises(NoPeakError):
            find_peak(PowerGrid(spec, np.full((2, 2), BELOW_FLOOR_DBM)))

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
        layout = RisLayout((Vec3(0.0, 0.0, 0.0),), pitch=1e-2, d_y=6.6e-3, d_z=6.6e-3, rings=0)
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


def _hpbw_or_error(fn, scenario, config, target, axis):
    try:
        return np.float64(fn(scenario, config, target, axis)).tobytes()
    except BeamNotResolvedError:
        return BeamNotResolvedError


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

    def test_all_off_config_is_unresolved_like_the_full_scan(self, scenario, p2):
        config = uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")
        for axis in ("azimuth", "elevation"):
            for fn in (hpbw, hpbw_full_scan):
                with pytest.raises(BeamNotResolvedError):
                    fn(scenario, config, p2, axis)

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
                offsets = rissim.sweep._hpbw_offsets(target, axis)
                positions = rissim.sweep._arc_positions(target, axis, offsets)
                coarse = np.unique(np.append(np.arange(0, len(offsets), 10), len(offsets) - 1))
                widths = np.radians(np.diff(offsets[coarse]))
                slope, incoherent = rissim.sweep._interval_bounds(
                    scenario, config, target, axis, widths, positions[coarse]
                )
                assert np.isinf(slope).all() and np.isinf(incoherent).all()
                got = _hpbw_or_error(hpbw, scenario, config, target, axis)
                assert got == _hpbw_or_error(hpbw_full_scan, scenario, config, target, axis)

    @pytest.mark.parametrize("axis", ["azimuth", "elevation"])
    def test_interval_bound_holds_at_every_fine_sample(self, scenario, doc, axis):
        rng = np.random.default_rng(4403)
        # the last target is nearer than 1 m, where 1 / D**3 exceeds 1 / D**2
        near = SphericalCoord(0.35, 30.0, -20.0)
        for target in (doc.targets["P1"], SphericalCoord(0.9, -50.0, 20.0), near):
            offsets = rissim.sweep._hpbw_offsets(target, axis)
            positions = rissim.sweep._arc_positions(target, axis, offsets)
            coarse = np.unique(np.append(np.arange(0, len(offsets), 10), len(offsets) - 1))
            widths = np.radians(np.diff(offsets[coarse]))
            for alphabet in (REFLECTIVE, ACTIVE):
                for _ in range(3):
                    states = rng.integers(0, len(alphabet.states), len(scenario.layout))
                    config = RisConfig(tuple(alphabet.states[k] for k in states), alphabet.name)
                    amps = np.abs(coherent_sums(scenario, config, positions))
                    slope, _ = rissim.sweep._interval_bounds(
                        scenario, config, target, axis, widths, positions[coarse]
                    )
                    for j, (a, b) in enumerate(zip(coarse[:-1], coarse[1:])):
                        bound = 0.5 * (amps[a] + amps[b] + slope[j] * widths[j])
                        assert amps[a:b + 1].max() <= bound * (1.0 + 1e-12)

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


class TestCompareGrids:
    def test_identical_grids_compare_to_zero(self, sweep_refl_p1):
        result = compare_grids(sweep_refl_p1, sweep_refl_p1)
        assert result.peak_offset_m == 0.0
        assert result.peak_delta_db == 0.0
        assert result.rmse_db == 0.0

    def test_uniform_offset(self, sweep_refl_p1):
        shifted = PowerGrid(sweep_refl_p1.spec, sweep_refl_p1.values + 3.0)
        result = compare_grids(sweep_refl_p1, shifted)
        assert result.peak_offset_m == 0.0
        assert result.peak_delta_db == pytest.approx(3.0, abs=1e-12)
        assert result.rmse_db == pytest.approx(3.0, abs=1e-12)

    def test_simulation_versus_emulation(self, scenario, refl_p1, doc, sweep_refl_p1):
        sounder = SounderParams(rng_seed=5)
        emulated = emulate_measurement_grid(scenario, refl_p1, doc.grid, sounder)
        result = compare_grids(sweep_refl_p1, emulated)
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
            for x, y in (doc.grid.cell_xy(i, j) for i, j in candidates)
        )
        assert result.peak_offset_m <= radius

    def test_spec_mismatch_rejected(self, sweep_refl_p1):
        other = GridSpec(0.0, 0.0, 0.02, 0.02, 2, 2, 0.0)
        with pytest.raises(ValidationError):
            compare_grids(sweep_refl_p1, PowerGrid(other, np.zeros((2, 2))))


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
