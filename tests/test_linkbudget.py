import cmath
import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import as_complex, combined_pattern, element_phasor, reference_phasor_matrix
from rissim.errors import GeometryError, ValidationError
from rissim.geom import RisLayout, Vec3, spherical_to_cartesian
from rissim.io_cli import echo_scenario, load_scenario, resolve_scenario
from rissim.linkbudget import (
    BELOW_FLOOR_DBM,
    SPEED_OF_LIGHT,
    AntennaPattern,
    ReflectionCoefficient,
    RisConfig,
    Scenario,
    apply_config,
    coherent_sums,
    complex_values,
    config_fingerprint,
    element_phasor_matrix,
    noise_floor,
    received_power,
    scenario_fingerprint,
    wavelength,
)
from rissim.optimizer import ACTIVE, REFLECTIVE, uniform_config
import rissim.linkbudget


def _scenario_with(layout, bs, q_bs=0.0, q_e=0.0, q_ue=0.0, tx_dbm=10.0):
    return Scenario(
        frequency_hz=23.8e9,
        tx_power_dbm=tx_dbm,
        bs_position=bs,
        bs_pattern=AntennaPattern(19.0, q_bs),
        ue_pattern=AntennaPattern(3.2, q_ue),
        element_pattern=AntennaPattern(0.0, q_e),
        layout=layout,
    )


def _single_element_layout(y=0.0, z=0.0):
    return RisLayout((Vec3(0.0, y, z),), d_y=6.6e-3, d_z=6.6e-3)


class TestWavelength:
    def test_center_frequency(self, scenario):
        assert wavelength(scenario) == pytest.approx(12.596e-3, abs=1e-6)

    def test_one_meter(self):
        sc = _scenario_with(_single_element_layout(), Vec3(1.0, 0.0, 0.0))
        sc = replace(sc, frequency_hz=SPEED_OF_LIGHT)
        assert wavelength(sc) == 1.0

    def test_half_frequency_doubles(self):
        lo = _scenario_with(_single_element_layout(), Vec3(1.0, 0.0, 0.0))
        lo = replace(lo, frequency_hz=11.9e9)
        hi = _scenario_with(_single_element_layout(), Vec3(1.0, 0.0, 0.0))
        assert wavelength(lo) == pytest.approx(2.0 * wavelength(hi), rel=1e-12)


class TestElementPhasor:
    def test_unit_distances(self):
        u = Vec3(0.0, 0.013, 0.004)
        point = Vec3(1.0, 0.013, 0.004)  # both endpoints one meter off the element
        sc = _scenario_with(_single_element_layout(u.y, u.z), point)
        g = element_phasor(sc, 0, point)
        assert abs(g) == pytest.approx(1.0, rel=1e-12)
        lam = wavelength(sc)
        expected_phase = -2.0 * math.pi * 2.0 / lam
        assert cmath.phase(g * cmath.exp(-1j * expected_phase)) == pytest.approx(0.0, abs=1e-9)

    def test_doubling_distances_quarters_magnitude(self):
        u = Vec3(0.0, -0.01, 0.02)
        near = Vec3(1.0, u.y, u.z)
        far = Vec3(2.0, u.y, u.z)
        sc_near = _scenario_with(_single_element_layout(u.y, u.z), near)
        sc_far = _scenario_with(_single_element_layout(u.y, u.z), far)
        g_near = element_phasor(sc_near, 0, near)
        g_far = element_phasor(sc_far, 0, far)
        assert abs(g_far) == pytest.approx(abs(g_near) / 4.0, rel=1e-12)

    def test_default_center_element_pinned_value(self, scenario, p1):
        # independent scalar evaluation of the same closed form
        lam = SPEED_OF_LIGHT / 23.8e9
        d1, d2 = 1.86, 1.4
        cos_in = math.cos(math.radians(36.0))
        cos_out = math.cos(math.radians(16.0)) * math.cos(math.radians(40.0))
        magnitude = math.sqrt(1.0 * cos_in * cos_out) / (d1 * d2)
        phase = -2.0 * math.pi * (d1 + d2) / lam
        expected = magnitude * cmath.exp(1j * phase)

        got = element_phasor(scenario, 0, spherical_to_cartesian(p1))
        assert got.real == pytest.approx(expected.real, rel=1e-9)
        assert got.imag == pytest.approx(expected.imag, rel=1e-9)

    def test_coincident_point_rejected(self):
        u = Vec3(0.0, 0.0, 0.0)
        sc = _scenario_with(_single_element_layout(), Vec3(1.0, 0.0, 0.0))
        with pytest.raises(GeometryError):
            element_phasor(sc, 0, u)

    def test_bad_index(self, scenario, p1):
        with pytest.raises(ValidationError):
            element_phasor(scenario, 127, spherical_to_cartesian(p1))


_KERNEL_SCENARIOS = {
    "default": {},
    "rings12": {"ris": {"rings": 12}},
    "patterned_28ghz": {
        "frequency_ghz": 28.0,
        "ue": {"pattern_exponent": 2.5},
        "ris": {"element_pattern_exponent": 0.7},
    },
    "element_step": {"ris": {"element_pattern_exponent": 0.0}},
}


class TestKernelMatchesReference:
    """element_phasor_matrix against the (N, M, 3) kernel, bit for bit."""

    @pytest.mark.parametrize("name", list(_KERNEL_SCENARIOS))
    @pytest.mark.parametrize("n", [1, 46, 200])
    def test_bit_equal(self, name, n):
        scenario = resolve_scenario(_KERNEL_SCENARIOS[name]).scenario
        rng = np.random.default_rng(n)
        positions = np.column_stack(
            [rng.uniform(-0.5, 2.0, n), rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 0.5, n)]
        )
        if n > 1:
            positions[0, 0] = -0.3  # behind the surface: the element clamp fires
            positions[1, 2] = 0.4  # above every element: the UE clamp fires
        got = element_phasor_matrix(scenario, positions)
        assert got.shape == (n, len(scenario.layout))
        assert np.array_equal(got, reference_phasor_matrix(scenario, positions))
        if n > 1 and scenario.ue_pattern.exponent > 0.0:
            assert np.all(got[:2] == 0.0)

    def test_position_on_an_element_center_rejected(self, scenario):
        positions = np.array([[1.0, 0.2, -0.3], scenario.layout.positions[5]])
        message = f"user position {tuple(positions[1].tolist())} coincides with element 5 center"
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            element_phasor_matrix(scenario, positions)
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            reference_phasor_matrix(scenario, positions)

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 3, 1)])
    def test_positions_not_n_by_3_rejected(self, scenario, shape):
        message = f"positions must be (N, 3), got {shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            element_phasor_matrix(scenario, np.ones(shape))


def _random_positions(rng, n):
    return np.column_stack(
        [rng.uniform(0.3, 2.0, n), rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 0.5, n)]
    )


class TestCoherentSumsSkipsOffElements:
    """coherent_sums computes phasors for the elements with Gamma_m != 0 only."""

    def _configs(self, scenario, active_p1, active_p2):
        m = len(scenario.layout)
        on, off = ACTIVE.states
        rng = np.random.default_rng(4501)
        configs = {
            "all_off": uniform_config(scenario.layout, off, ACTIVE.name),
            "one_on": RisConfig((off,) * 60 + (on,) + (off,) * (m - 61), ACTIVE.name),
            "all_on": uniform_config(scenario.layout, on, ACTIVE.name),
            "active_p1": active_p1,
            "active_p2": active_p2,
        }
        for k in range(3):
            states = rng.integers(0, 2, m)
            configs[f"random_{k}"] = RisConfig(tuple(ACTIVE.states[s] for s in states), ACTIVE.name)
        return configs

    @pytest.mark.parametrize("n", [1, 46, 181])
    def test_sums_equal_the_full_kernel(self, scenario, active_p1, active_p2, n):
        positions = _random_positions(np.random.default_rng(n), n)
        full = element_phasor_matrix(scenario, positions)
        for name, config in self._configs(scenario, active_p1, active_p2).items():
            got = coherent_sums(scenario, config, positions)
            assert np.array_equal(got, apply_config(full, config)), name

    def test_subset_columns_have_the_full_kernel_bits(self, scenario, active_p2):
        positions = _random_positions(np.random.default_rng(7), 46)
        full = element_phasor_matrix(scenario, positions)
        m = len(scenario.layout)
        for elements in (
            np.flatnonzero(active_p2.as_complex_array),
            np.array([5]),
            np.array([], dtype=int),
            np.arange(m),
        ):
            got = element_phasor_matrix(scenario, positions, elements)
            rest = np.setdiff1d(np.arange(m), elements)
            assert got.shape == (46, m)
            assert full[:, elements].tobytes() == got[:, elements].tobytes()
            assert not got[:, rest].any()

    def test_position_on_an_off_element_center_rejected(self, scenario):
        on, off = ACTIVE.states
        config = RisConfig((on,) * 5 + (off,) + (on,) * 121, ACTIVE.name)
        positions = np.array([[1.0, 0.2, -0.3], scenario.layout.positions[5]])
        message = f"user position {tuple(positions[1].tolist())} coincides with element 5 center"
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            coherent_sums(scenario, config, positions)


def _block_configs(m):
    """Ten configurations at one block: all on first, then both alphabets, some with
    elements off."""
    rng = np.random.default_rng(m)
    on, off = ACTIVE.states
    configs = [RisConfig((on,) * m, ACTIVE.name)]
    for alphabet in (REFLECTIVE, ACTIVE, REFLECTIVE, ACTIVE):
        for _ in range(2):
            states = rng.integers(0, 2, m)
            configs.append(RisConfig(tuple(alphabet.states[k] for k in states), alphabet.name))
    configs.append(RisConfig((off,) * m, ACTIVE.name))
    return configs


class TestCoherentSumsKeepsTheLastBlock:
    """coherent_sums reuses the phasors of the last block it computed in full."""

    @pytest.mark.parametrize("rings", [6, 12], ids=["m127", "m469"])
    @pytest.mark.parametrize("n", [1, 16])
    def test_one_kernel_call_per_block(self, kernel_rows, rings, n):
        scenario = resolve_scenario({"ris": {"rings": rings}}).scenario
        positions = _random_positions(np.random.default_rng(n), n)
        configs = _block_configs(len(scenario.layout))
        got = [coherent_sums(scenario, config, positions) for config in configs]
        assert kernel_rows == [n]
        full = element_phasor_matrix(scenario, positions)
        for config, sums in zip(configs, got):
            assert sums.tobytes() == apply_config(full, config).tobytes()

    def test_a_block_with_elements_off_first_is_not_kept(self, kernel_rows, scenario, active_p1):
        positions = _random_positions(np.random.default_rng(3), 8)
        coherent_sums(scenario, active_p1, positions)
        coherent_sums(scenario, active_p1, positions)
        assert kernel_rows == [8, 8]
        assert rissim.linkbudget._block == (None,) * 5

    def test_other_positions_or_scenario_miss(self, kernel_rows, scenario, refl_p1):
        positions = _random_positions(np.random.default_rng(5), 16)
        want = coherent_sums(scenario, refl_p1, positions)
        moved = positions.copy()
        moved[7, 2] = np.nextafter(moved[7, 2], np.inf)  # one ulp
        assert coherent_sums(scenario, refl_p1, moved).tobytes() == apply_config(
            element_phasor_matrix(scenario, moved), refl_p1
        ).tobytes()
        assert kernel_rows == [16, 16]
        twin = replace(scenario)
        assert twin == scenario and twin is not scenario
        assert coherent_sums(twin, refl_p1, positions).tobytes() == want.tobytes()
        assert kernel_rows == [16, 16, 16]
        assert coherent_sums(scenario, refl_p1, positions[:8]).tobytes() == want[:8].tobytes()
        assert kernel_rows == [16, 16, 16, 8]

    def test_mutating_the_positions_after_a_call_is_seen(self, kernel_rows, scenario, refl_p1):
        positions = _random_positions(np.random.default_rng(9), 16)
        coherent_sums(scenario, refl_p1, positions)
        positions[3] += 0.05
        got = coherent_sums(scenario, refl_p1, positions)
        assert kernel_rows == [16, 16]
        assert got.tobytes() == apply_config(
            element_phasor_matrix(scenario, positions), refl_p1
        ).tobytes()
        assert not rissim.linkbudget._block[2].flags.writeable


def _cold_sums(scenario, config, positions):
    """Sums from a fresh kernel call, with no kept block or sums involved."""
    rows = positions.reshape(-1, 3)
    return apply_config(element_phasor_matrix(scenario, rows), config).reshape(positions.shape[:-1])


class TestCoherentSumsKeepsTheLastSums:
    """coherent_sums keeps the sums of the last configuration applied to its kept block."""

    @pytest.mark.parametrize("lead", [(), (4,), (2, 2)], ids=["N", "R4", "2x2"])
    def test_a_repeat_applies_nothing(self, apply_rows, scenario, refl_p1, lead):
        rows = math.prod(lead)
        positions = _random_positions(np.random.default_rng(13), rows * 6).reshape(*lead, 6, 3)
        want = _cold_sums(scenario, refl_p1, positions)
        for _ in range(3):
            assert coherent_sums(scenario, refl_p1, positions).tobytes() == want.tobytes()
        assert apply_rows == [6] * rows

    def test_a_returned_array_is_a_writable_copy(self, apply_rows, scenario, refl_p1):
        positions = _random_positions(np.random.default_rng(15), 16)
        want = _cold_sums(scenario, refl_p1, positions)
        for _ in range(3):
            got = coherent_sums(scenario, refl_p1, positions)
            assert got.tobytes() == want.tobytes()
            got[:] = 0.0
        assert not rissim.linkbudget._block[4].flags.writeable
        assert rissim.linkbudget._block[3] == refl_p1.as_complex_array.tobytes()

    def test_other_configuration_positions_or_scenario_miss(self, apply_rows, scenario, refl_p1):
        positions = _random_positions(np.random.default_rng(17), 16)
        first = next(c for c in REFLECTIVE.states if c != refl_p1.coefficients[0])
        other = RisConfig((first,) + refl_p1.coefficients[1:], refl_p1.alphabet_name)
        moved = positions.copy()
        moved[7, 2] = np.nextafter(moved[7, 2], np.inf)  # one ulp
        twin = replace(scenario)
        cases = [
            (scenario, refl_p1, positions),
            (scenario, other, positions),  # one element changed
            (scenario, refl_p1, positions),
            (scenario, refl_p1, moved),
            (scenario, refl_p1, positions),
            (twin, refl_p1, positions),
            (scenario, refl_p1, positions),
        ]
        for s, config, pos in cases:
            assert coherent_sums(s, config, pos).tobytes() == _cold_sums(s, config, pos).tobytes()
        assert apply_rows == [16] * len(cases)

    def test_a_single_position_evicts_the_grid_sums(self, apply_rows, scenario, refl_p1):
        block = _random_positions(np.random.default_rng(19), 12).reshape(2, 6, 3)
        coherent_sums(scenario, refl_p1, block)
        coherent_sums(scenario, refl_p1, block[0, :1])
        assert rissim.linkbudget._block[4].size == 1
        got = coherent_sums(scenario, refl_p1, block)
        assert apply_rows == [6, 6, 1, 6, 6]
        assert got.tobytes() == _cold_sums(scenario, refl_p1, block).tobytes()

    def test_powered_rows_neither_read_nor_store(self, apply_rows, scenario, refl_p1, active_p1):
        kept = _random_positions(np.random.default_rng(21), 16)
        elsewhere = _random_positions(np.random.default_rng(23), 8)
        coherent_sums(scenario, active_p1, elsewhere)
        assert rissim.linkbudget._block == (None,) * 5
        coherent_sums(scenario, refl_p1, kept)
        entry = rissim.linkbudget._block
        for _ in range(2):
            got = coherent_sums(scenario, active_p1, elsewhere)
            assert got.tobytes() == _cold_sums(scenario, active_p1, elsewhere).tobytes()
        assert rissim.linkbudget._block is entry
        coherent_sums(scenario, refl_p1, kept)
        assert apply_rows == [8, 16, 8, 8]


class TestCoherentSumsOfRowBlocks:
    """Positions of shape (..., N, 3) are rows of N: one kernel call and one apply per row."""

    @pytest.mark.parametrize("lead", [(4,), (2, 2)], ids=["R4", "2x2"])
    @pytest.mark.parametrize("config_name", ["refl_p1", "active_p1"])
    def test_rows_have_the_bits_of_separate_calls(
        self, kernel_rows, request, scenario, config_name, lead
    ):
        config = request.getfixturevalue(config_name)
        rng = np.random.default_rng(11)
        block = np.stack([_random_positions(rng, 6) for _ in range(4)]).reshape(*lead, 6, 3)
        got = coherent_sums(scenario, config, block)
        assert got.shape == (*lead, 6)
        assert kernel_rows == [6] * 4
        for row, sums in zip(block.reshape(4, 6, 3), got.reshape(4, 6)):
            assert sums.tobytes() == coherent_sums(scenario, config, row).tobytes()

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3)])
    def test_empty_rows(self, scenario, refl_p1, active_p1, shape):
        for config in (refl_p1, active_p1):
            assert coherent_sums(scenario, config, np.empty(shape)).shape == shape[:-1]

    @pytest.mark.parametrize("shape", [(3,), (2, 2)])
    def test_positions_not_rows_of_3_rejected(self, scenario, refl_p1, active_p1, shape):
        message = f"positions must be (N, 3), got {shape}"
        for config in (refl_p1, active_p1):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                coherent_sums(scenario, config, np.ones(shape))


class TestCombinedPattern:
    def test_boresight_product_is_one(self):
        sc = _scenario_with(_single_element_layout(), Vec3(2.0, 0.0, 0.0), q_bs=25.0, q_e=1.0)
        assert combined_pattern(sc, 0, Vec3(1.0, 0.0, 0.0)) == pytest.approx(1.0, rel=1e-12)

    def test_sixty_degrees_off_normal_halves(self):
        sc = _scenario_with(_single_element_layout(), Vec3(2.0, 0.0, 0.0), q_e=1.0)
        point = spherical_to_cartesian_like(60.0)
        assert combined_pattern(sc, 0, point) == pytest.approx(0.5, rel=1e-12)

    def test_behind_the_plane_clamps_to_zero(self):
        sc = _scenario_with(_single_element_layout(), Vec3(2.0, 0.0, 0.0), q_e=1.0)
        assert combined_pattern(sc, 0, Vec3(-0.5, 0.3, 0.0)) == 0.0

    def test_behind_clamps_even_for_isotropic_element(self):
        sc = _scenario_with(_single_element_layout(), Vec3(2.0, 0.0, 0.0), q_e=0.0)
        assert combined_pattern(sc, 0, Vec3(-0.5, 0.3, 0.0)) == 0.0

    def test_off_plane_element_uses_its_own_x(self):
        # incidence and exit cosines both measure the element's own offsets
        u, bs, ue = Vec3(0.05, 0.02, -0.01), Vec3(1.2, -0.4, 0.1), Vec3(0.8, 0.5, -0.2)
        sc = _scenario_with(RisLayout((u,), d_y=6.6e-3, d_z=6.6e-3), bs, q_e=1.0)
        d1 = math.dist((bs.x, bs.y, bs.z), (u.x, u.y, u.z))
        d2 = math.dist((ue.x, ue.y, ue.z), (u.x, u.y, u.z))
        f = combined_pattern(sc, 0, ue)
        assert f == pytest.approx(((bs.x - u.x) / d1) * (ue.x - u.x) / d2, rel=1e-12)
        assert abs(element_phasor(sc, 0, ue)) == pytest.approx(math.sqrt(f) / (d1 * d2), rel=1e-12)

    def test_within_unit_interval(self, scenario, p1):
        values = [combined_pattern(scenario, m, spherical_to_cartesian(p1)) for m in (0, 1, 60, 126)]
        assert all(0.0 <= v <= 1.0 for v in values)


def spherical_to_cartesian_like(az_deg, r=1.5):
    return Vec3(r * math.cos(math.radians(az_deg)), r * math.sin(math.radians(az_deg)), 0.0)


class TestReceivedPower:
    def test_all_off_is_below_floor(self, scenario):
        config = uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")
        value = received_power(scenario, config, Vec3(1.0, 0.5, -0.3))
        assert value == BELOW_FLOOR_DBM == -math.inf

    def test_coherent_ring_adds_twenty_log_m(self):
        # six equidistant elements on a ring see identical phasors from
        # on-axis endpoints, so the sum is exactly 6x one element
        pitch = 8.7e-3
        ring = []
        for k in range(6):
            ang = math.radians(60.0 * k)
            ring.append(Vec3(0.0, pitch * math.cos(ang), pitch * math.sin(ang)))
        layout6 = RisLayout(tuple(ring), d_y=6.6e-3, d_z=6.6e-3)
        layout1 = RisLayout((ring[0],), d_y=6.6e-3, d_z=6.6e-3)
        bs, ue = Vec3(1.86, 0.0, 0.0), Vec3(1.4, 0.0, 0.0)
        state = ReflectionCoefficient(0.3, -15.0)
        p6 = received_power(_scenario_with(layout6, bs, q_e=1.0), uniform_config(layout6, state), ue)
        p1 = received_power(_scenario_with(layout1, bs, q_e=1.0), uniform_config(layout1, state), ue)
        assert p6 - p1 == pytest.approx(20.0 * math.log10(6.0), abs=1e-9)

    def test_single_element_matches_analytic_form(self):
        u = Vec3(0.0, 0.02, -0.01)
        layout = _single_element_layout(u.y, u.z)
        bs = Vec3(1.2, -0.4, 0.1)
        ue = Vec3(0.8, 0.5, -0.2)
        sc = _scenario_with(layout, bs, q_bs=0.0, q_e=1.0, tx_dbm=7.0)
        gamma = ReflectionCoefficient(0.7, 30.0)
        got = received_power(sc, uniform_config(layout, gamma), ue)

        d1 = math.dist((bs.x, bs.y, bs.z), (u.x, u.y, u.z))
        d2 = math.dist((ue.x, ue.y, ue.z), (u.x, u.y, u.z))
        f = (bs.x / d1) * (ue.x - u.x) / d2  # cos^1 on both element hops
        amp = 0.7 * math.sqrt(f) / (d1 * d2)
        pref = (
            10 ** (7.0 / 10) * 10 ** (1.9) * 10 ** (0.32) * (6.6e-3 * 6.6e-3) ** 2 / (16 * math.pi**2)
        )
        assert got == pytest.approx(10 * math.log10(pref * amp * amp), abs=1e-9)

    def test_default_reflective_focus_level(self, scenario, refl_p1, p1):
        value = received_power(scenario, refl_p1, spherical_to_cartesian(p1))
        assert value == pytest.approx(-57.0, abs=3.0)

    def test_length_mismatch_rejected(self, scenario):
        config = RisConfig((ReflectionCoefficient(0.3, 0.0),) * 5, "broken")
        with pytest.raises(ValidationError):
            received_power(scenario, config, Vec3(1.0, 0.0, 0.0))

    def test_base_station_on_an_element_off_the_plane_rejected(self):
        # the scenario only forbids a base station in the surface plane; an element off the
        # plane can still sit at the base station
        bs = Vec3(1.2, -0.4, 0.1)
        layout = RisLayout((Vec3(0.0, 0.0, 0.0), bs), d_y=6.6e-3, d_z=6.6e-3)
        sc = _scenario_with(layout, bs)
        config = uniform_config(layout, ReflectionCoefficient(1.0, 0.0))
        message = "base station coincides with an element center"
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            received_power(sc, config, Vec3(0.8, 0.5, -0.2))

    def test_far_base_station_gives_infinite_distances_without_a_warning(self, scenario):
        # bs_side is read outside the kernel too (hpbw's bound), so it runs under its own
        # errstate; the received power then names the overflow
        far = replace(scenario, bs_position=Vec3(1e300, 0.0, 0.0))
        d1, amp = far.bs_side  # (1e300)**2 overflows
        assert np.isinf(d1).all() and not amp.any()
        config = uniform_config(far.layout, ReflectionCoefficient(1.0, 0.0))
        with pytest.raises(GeometryError, match=r"^received power nan mW: a distance or magnitude"):
            received_power(far, config, Vec3(1.0, 0.2, -0.3))

    def test_tx_power_linearity(self, scenario, refl_p1, p1):
        pos = spherical_to_cartesian(p1)
        base = received_power(scenario, refl_p1, pos)
        for delta in (-12.5, 3.0, 17.25):
            shifted = replace(scenario, tx_power_dbm=scenario.tx_power_dbm + delta)
            assert received_power(shifted, refl_p1, pos) == pytest.approx(base + delta, abs=1e-9)

    def test_common_phase_shift_invariance(self, scenario, refl_p1, p1):
        pos = spherical_to_cartesian(p1)
        base = received_power(scenario, refl_p1, pos)
        for shift in (37.0, -120.0, 91.5):
            rotated = RisConfig(
                tuple(
                    ReflectionCoefficient(c.magnitude, c.phase_deg + shift)
                    for c in refl_p1.coefficients
                ),
                "rotated",
            )
            assert received_power(scenario, rotated, pos) == pytest.approx(base, abs=1e-9)

    def test_superposition_bound_holds(self, scenario, p1):
        # any configuration stays at or below the fully coherent combination
        from rissim.linkbudget import element_phasor_matrix, prefactor_mw

        pos = spherical_to_cartesian(p1)
        g = element_phasor_matrix(scenario, pos.as_array()[None, :])[0]
        rng = np.random.default_rng(11)
        for _ in range(100):
            mags = rng.uniform(0.0, 1.25, len(g))
            phases = rng.uniform(-180.0, 180.0, len(g))
            config = RisConfig(
                tuple(ReflectionCoefficient(float(m), float(p)) for m, p in zip(mags, phases)),
                "random",
            )
            bound_mw = prefactor_mw(scenario) * float(np.sum(mags * np.abs(g))) ** 2
            got = received_power(scenario, config, pos)
            assert got <= 10 * math.log10(bound_mw) + 1e-9

    def test_distance_reciprocity_of_magnitudes(self):
        # with isotropic patterns, swapping the two endpoints leaves each
        # summand magnitude unchanged
        layout = RisLayout(
            (Vec3(0.0, 0.01, 0.0), Vec3(0.0, -0.02, 0.03)), d_y=6.6e-3, d_z=6.6e-3
        )
        a, b = Vec3(1.5, -0.6, 0.2), Vec3(0.9, 0.8, -0.4)
        sc_fwd = _scenario_with(layout, a)
        sc_rev = _scenario_with(layout, b)
        for m in range(2):
            fwd = abs(element_phasor(sc_fwd, m, b))
            rev = abs(element_phasor(sc_rev, m, a))
            assert fwd == pytest.approx(rev, rel=1e-12)


class TestNoiseFloor:
    def test_default_sounder_floor(self):
        assert noise_floor(293.0, 155e6, 50, 9.0) == pytest.approx(-100.0, abs=0.2)

    def test_textbook_thermal_floor(self):
        assert noise_floor(290.0, 1.0, 1, 0.0) == pytest.approx(-173.98, abs=0.01)

    def test_quadrupling_averages(self):
        base = noise_floor(293.0, 155e6, 10, 9.0)
        assert base - noise_floor(293.0, 155e6, 40, 9.0) == pytest.approx(
            10.0 * math.log10(4.0), abs=1e-12
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            noise_floor(-1.0, 155e6, 50, 9.0)
        with pytest.raises(ValidationError):
            noise_floor(293.0, 0.0, 50, 9.0)
        with pytest.raises(ValidationError):
            noise_floor(293.0, 155e6, 0, 9.0)

    @pytest.mark.parametrize(
        "temperature_k, bandwidth_hz",
        [(293.0, math.inf), (1e300, 1e300), (1e-300, 1e-294)],
        ids=["infinite-bandwidth", "overflow", "underflow"],
    )
    def test_rejects_noise_power_without_a_dbm_value(self, temperature_k, bandwidth_hz):
        with pytest.raises(ValidationError, match="finite and > 0"):
            noise_floor(temperature_k, bandwidth_hz, 50, 9.0)


class TestTypes:
    def test_zero_magnitude_clears_phase(self):
        assert ReflectionCoefficient(0.0, 123.0).phase_deg == 0.0

    def test_phase_wraps_into_range(self):
        assert ReflectionCoefficient(1.0, 345.0).phase_deg == pytest.approx(-15.0)
        assert ReflectionCoefficient(1.0, -180.0).phase_deg == 180.0

    def test_complex_values(self):
        c = complex_values((ReflectionCoefficient(0.3, -15.0),))[0]
        assert abs(c) == pytest.approx(0.3, rel=1e-12)
        assert math.degrees(cmath.phase(c)) == pytest.approx(-15.0, rel=1e-12)

    def test_as_complex_array_has_the_bits_of_as_complex(self, doc):
        rng = np.random.default_rng(21)
        builtin = [s for alphabet in doc.alphabets.values() for s in alphabet.states]
        edge = [
            ReflectionCoefficient(m, p)
            for m in (0.0, -0.0, 0.3, 1.25)
            for p in (180.0, -180.0, 90.0, -90.0, 165.0, -15.0)
        ]
        drawn = [
            ReflectionCoefficient(float(m), float(p))
            for m, p in zip(rng.uniform(0.0, 2.0, 2000), rng.uniform(-540.0, 540.0, 2000))
        ]
        coeffs = tuple(builtin + edge + drawn)
        got = RisConfig(coeffs, "mixed").as_complex_array
        want = np.array([as_complex(c) for c in coeffs])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_non_finite_gain_and_tx_power_rejected(self):
        with pytest.raises(ValidationError, match="^gain must be finite$"):
            AntennaPattern(math.inf, 0.0)
        with pytest.raises(ValidationError, match="^tx power must be finite$"):
            _scenario_with(_single_element_layout(), Vec3(1.0, 0.0, 0.0), tx_dbm=math.nan)

    @pytest.mark.parametrize(
        "change",
        [
            {"tx_power_dbm": 4000.0},
            {"bs_pattern": AntennaPattern(4000.0, 0.0)},
            {"layout": RisLayout((Vec3(0.0, 0.0, 0.0),), d_y=1e297, d_z=1e297)},
        ],
        ids=["tx-power", "bs-gain", "element-size"],
    )
    def test_prefactor_must_be_finite(self, change):
        sc = _scenario_with(_single_element_layout(), Vec3(1.0, 0.0, 0.0))
        with pytest.raises(ValidationError, match="prefactor"):
            replace(sc, **change)

    def test_scenario_validation(self):
        layout = _single_element_layout()
        with pytest.raises(ValidationError):
            _scenario_with(layout, Vec3(0.0, 1.0, 0.0))  # feed inside the plane
        with pytest.raises(ValidationError):
            Scenario(
                frequency_hz=-1.0,
                tx_power_dbm=10.0,
                bs_position=Vec3(1.0, 0.0, 0.0),
                bs_pattern=AntennaPattern(19.0, 0.0),
                ue_pattern=AntennaPattern(3.2, 0.0),
                element_pattern=AntennaPattern(0.0, 1.0),
                layout=layout,
            )
        with pytest.raises(ValidationError):
            AntennaPattern(10.0, -1.0)


class TestScenarioFingerprint:
    def test_stable_across_resolves_and_the_echo(self, tmp_path):
        doc = resolve_scenario({})
        fingerprint = scenario_fingerprint(doc.scenario)
        assert scenario_fingerprint(resolve_scenario({}).scenario) == fingerprint
        echoed = tmp_path / "echo.yaml"
        echoed.write_text(echo_scenario(doc))
        assert scenario_fingerprint(load_scenario(echoed).scenario) == fingerprint

    @pytest.mark.parametrize(
        "user",
        [{"frequency_ghz": 24.0}, {"bs": {"azimuth_deg": -35.0}}, {"ris": {"pitch_mm": 8.8}}],
        ids=["frequency", "bs-azimuth", "pitch"],
    )
    def test_changes_with_the_physical_scenario(self, user):
        default = scenario_fingerprint(resolve_scenario({}).scenario)
        assert scenario_fingerprint(resolve_scenario(user).scenario) != default


class TestConfigFingerprint:
    def test_hashes_the_repr_of_every_coefficient(self):
        # the per-coefficient text is kept on each coefficient; the hash must stay that of
        # the text formatted in full, -0.0 inputs and wrapped phases included
        rng = np.random.default_rng(4411)
        states = [ReflectionCoefficient(-0.0, 90.0), ReflectionCoefficient(1.0, -180.0)]
        states += [
            ReflectionCoefficient(float(m), float(p))
            for m, p in zip(rng.uniform(0.0, 2.0, 6), rng.uniform(-720.0, 720.0, 6))
        ]
        config = RisConfig(tuple(states[k] for k in rng.integers(0, len(states), 40)), "mixed")
        text = "mixed|" + ";".join(f"{c.magnitude!r},{c.phase_deg!r}" for c in config.coefficients)
        want = hashlib.sha256(text.encode()).hexdigest()[:12]
        assert config_fingerprint(config) == want
        assert config_fingerprint(config) == want  # the kept texts give the same hash
