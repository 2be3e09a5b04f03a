import cmath
import hashlib
import itertools
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import as_complex, brute_force_config, child_env, make_random_scenario
from rissim.errors import ValidationError
from rissim.geom import RisLayout, Vec3, spherical_to_cartesian
from rissim.io_cli import resolve_scenario
from rissim.linkbudget import (
    AntennaPattern,
    ReflectionCoefficient,
    RisConfig,
    Scenario,
    complex_values,
    config_fingerprint,
    element_phasor_matrix,
)
from rissim.optimizer import (
    _TIE_RTOL,
    ACTIVE,
    REFLECTIVE,
    ReflectionAlphabet,
    optimize_config,
    uniform_config,
)

THREE_STATE = ReflectionAlphabet(
    "three", tuple(ReflectionCoefficient(1.0, p) for p in (0.0, 120.0, -120.0))
)
# an irregular 4-state alphabet with an off state
FOUR_STATE = ReflectionAlphabet(
    "four",
    (
        ReflectionCoefficient(0.5, 0.0),
        ReflectionCoefficient(0.7, 90.0),
        ReflectionCoefficient(0.9, 180.0),
        ReflectionCoefficient(0.0, 0.0),
    ),
)
ALPHABETS = [REFLECTIVE, ACTIVE, THREE_STATE, FOUR_STATE]
# sha256 of the state indices optimize_config returns on _pinned_cases(); a change to it
# is a deliberate act, noted in CHANGES.md
CONFIGS_SHA256 = "18cb93a2dc4ca4e2955230ee0e2e448f347ad1aa6b22d4463008d94dffe2a2bc"


def _objective_dbm_free(scenario, config, target):
    g = element_phasor_matrix(scenario, target.as_array()[None, :])[0]
    s = np.sum(config.as_complex_array * g)
    return float(abs(s) ** 2)


def _smallest_tied_config(scenario, target, alphabet):
    """Exhaustive oracle for the optimizer's tie rule: the lexicographically
    smallest state vector whose objective is within _TIE_RTOL of the maximum."""
    g = element_phasor_matrix(scenario, target.as_array()[None, :])[0]
    states = np.array([as_complex(c) for c in alphabet.states])
    combos = np.array(list(itertools.product(range(len(states)), repeat=len(g))))
    sums = np.sum(states[combos] * g, axis=1)
    objs = sums.real**2 + sums.imag**2
    # itertools.product enumerates in lexicographic order: argmax takes the first tie
    best = combos[np.argmax(objs >= objs.max() * (1.0 - _TIE_RTOL))]
    return tuple(alphabet.states[i] for i in best)


def _assert_matches_brute_force(scenario, target, alphabet):
    best = _objective_dbm_free(scenario, brute_force_config(scenario, target, alphabet), target)
    found = _objective_dbm_free(scenario, optimize_config(scenario, target, alphabet), target)
    assert abs(found - best) <= 1e-12 * best


class TestAlphabets:
    def test_builtin_states(self, doc):
        assert REFLECTIVE.states == (
            ReflectionCoefficient(0.3, -15.0),
            ReflectionCoefficient(0.3, 165.0),
        )
        assert ACTIVE.states == (
            ReflectionCoefficient(1.25, 0.0),
            ReflectionCoefficient(0.0, 0.0),
        )
        assert len(doc.alphabets["off_structural"].states) == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            ReflectionAlphabet("empty", ())
        with pytest.raises(ValidationError):
            ReflectionAlphabet(
                "dup", (ReflectionCoefficient(0.3, 0.0), ReflectionCoefficient(0.3, 0.0))
            )

    @pytest.mark.parametrize("alphabet", [REFLECTIVE, ACTIVE, THREE_STATE], ids=lambda a: a.name)
    def test_values_are_computed_once_and_read_only(self, alphabet):
        assert alphabet.values is alphabet.values
        assert not alphabet.values.flags.writeable
        assert alphabet.values.tobytes() == complex_values(alphabet.states).tobytes()

    @pytest.mark.parametrize("alphabet", ALPHABETS, ids=lambda a: a.name)
    def test_each_arc_holds_the_greedy_state_of_unit_gain(self, alphabet):
        starts, states, jumps = alphabet.arcs
        k = len(alphabet.states)
        assert len(starts) == len(states) == len(jumps) == k * (k - 1)
        assert 0.0 <= starts[0] and starts[-1] < 2 * math.pi and (np.diff(starts) >= 0).all()
        values = [as_complex(state) for state in alphabet.states]
        psi = np.arange(3600) * (2 * math.pi / 3600)
        psi = psi[np.abs(np.angle(np.exp(1j * (psi[:, None] - starts)))).min(axis=1) > 1e-6]
        assert len(psi) > 3500
        # arc -1, before the first start, is the last arc wrapping through 2 pi
        arc = np.searchsorted(starts, psi, side="right") - 1
        for t, angle in zip(arc, psi.tolist()):
            scores = [(v * cmath.exp(-1j * angle)).real for v in values]
            assert states[t] == scores.index(max(scores)), (t, angle)

    @pytest.mark.parametrize("alphabet", ALPHABETS, ids=lambda a: a.name)
    def test_arc_jumps_are_the_state_changes_and_sum_to_zero(self, alphabet):
        _, states, jumps = alphabet.arcs
        values = alphabet.values
        assert jumps.tobytes() == (values[states] - values[np.roll(states, 1)]).tobytes()
        assert abs(jumps.sum()) <= 1e-15 * len(jumps) * np.abs(values).max()

    @pytest.mark.parametrize("alphabet", ALPHABETS, ids=lambda a: a.name)
    def test_arcs_are_computed_once_and_read_only(self, alphabet):
        assert alphabet.arcs is alphabet.arcs
        assert not any(array.flags.writeable for array in alphabet.arcs)

    def test_index_of(self):
        assert REFLECTIVE.index_of(ReflectionCoefficient(0.3, 165.0)) == 1
        with pytest.raises(ValidationError):
            REFLECTIVE.index_of(ReflectionCoefficient(0.4, 165.0))

    @pytest.mark.parametrize("alphabet", [REFLECTIVE, ACTIVE], ids=lambda a: a.name)
    def test_index_of_own_states_and_equal_copies(self, alphabet):
        # the alphabet's own objects and equal but distinct copies resolve to the same index
        for k, state in enumerate(alphabet.states):
            copy = ReflectionCoefficient(state.magnitude, state.phase_deg)
            assert copy is not state and copy == state
            assert alphabet.index_of(state) == alphabet.index_of(copy) == k

    def test_index_of_a_non_member_names_it_and_the_alphabet(self):
        with pytest.raises(ValidationError) as err:
            ACTIVE.index_of(REFLECTIVE.states[0])
        assert str(err.value) == "(0.3, -15.0 deg) is not a state of alphabet 'active'"


class TestUniformConfig:
    def test_all_identical(self, scenario):
        state = ReflectionCoefficient(0.3, -15.0)
        config = uniform_config(scenario.layout, state)
        assert len(config) == 127
        assert all(c == state for c in config.coefficients)


class TestOptimize:
    @pytest.mark.parametrize("rings", [6, 12], ids=["m127", "m469"])
    @pytest.mark.parametrize("alphabet", [REFLECTIVE, ACTIVE, THREE_STATE], ids=lambda a: a.name)
    def test_config_carries_the_bits_of_its_complex_values(self, rings, alphabet):
        scenario = resolve_scenario({"ris": {"rings": rings}}).scenario
        rng = np.random.default_rng(rings)
        for x, y in zip(rng.uniform(0.9, 1.5, 4), rng.uniform(0.0, 0.9, 4)):
            config = optimize_config(scenario, Vec3(float(x), float(y), -0.39), alphabet)
            got = config.as_complex_array
            assert got.tobytes() == complex_values(config.coefficients).tobytes()
            assert not got.flags.writeable
            rebuilt = RisConfig(config.coefficients, config.alphabet_name)
            assert config == rebuilt and hash(config) == hash(rebuilt)
            assert repr(config) == repr(rebuilt)

    def test_single_state_alphabet_returns_uniform(self, doc):
        off = doc.alphabets["off_structural"]
        rng = np.random.default_rng(3)
        scenario, target = make_random_scenario(rng, 9)
        config = optimize_config(scenario, target, off)
        assert config.coefficients == (off.states[0],) * 9

    def test_single_element_tie_takes_first_state(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            scenario, target = make_random_scenario(rng, 1)
            config = optimize_config(scenario, target, REFLECTIVE)
            # both states share the magnitude, so the objective ties; the
            # first alphabet state must win
            assert config.coefficients[0] == REFLECTIVE.states[0]

    def test_target_behind_surface_takes_first_state(self):
        # every phasor is zero behind the surface, so every configuration ties; the
        # tie rule alone would re-evaluate all K(K-1)M events at M states each, about
        # 21 MB at 469 elements and growing as M^2, so memory is held near linear
        rng = np.random.default_rng(14)
        small, _ = make_random_scenario(rng, 6)
        full = resolve_scenario({"bs": {"azimuth_deg": 180.0}})  # 127 elements lit from behind
        large = resolve_scenario({"bs": {"azimuth_deg": 180.0}, "ris": {"rings": 12}})  # 469
        cases = (
            (small, Vec3(-1.0, 0.2, 0.1)),
            (full.scenario, spherical_to_cartesian(full.targets["P1"])),
            (large.scenario, spherical_to_cartesian(large.targets["P1"])),
        )
        for scenario, target in cases:
            assert not element_phasor_matrix(scenario, target.as_array()[None, :]).any()
            for alphabet in (REFLECTIVE, ACTIVE):
                tracemalloc.start()
                try:
                    config = optimize_config(scenario, target, alphabet)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                uniform = uniform_config(scenario.layout, alphabet.states[0], alphabet.name)
                assert config.coefficients == uniform.coefficients
                assert config_fingerprint(config) == config_fingerprint(uniform)
                assert peak < 2_000_000

    def test_arc_tables_and_first_calls_load_no_module(self):
        # a module loaded on first use (np.unique loads numpy.ma, for one) costs peak memory
        # on every workload; importing the optimizer builds the built-in arc tables
        code = (
            "import json, sys\n"
            "import rissim.linkbudget\n"
            "before = set(sys.modules) | {'rissim.optimizer'}\n"
            "from rissim.optimizer import ACTIVE, REFLECTIVE, ReflectionAlphabet, optimize_config\n"
            "loaded = set(sys.modules) - before\n"
            "from rissim.geom import Vec3\n"
            "from rissim.io_cli import resolve_scenario\n"
            "from rissim.linkbudget import ReflectionCoefficient\n"
            "scenario = resolve_scenario({}).scenario\n"
            "before = set(sys.modules)\n"
            "three = tuple(ReflectionCoefficient(1.0, p) for p in (0.0, 120.0, -120.0))\n"
            "for alphabet in (REFLECTIVE, ACTIVE, ReflectionAlphabet('three', three)):\n"
            "    optimize_config(scenario, Vec3(1.2, 0.4, -0.39), alphabet)\n"
            "print(json.dumps(sorted(loaded | set(sys.modules) - before)))\n"
        )
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
        assert cp.returncode == 0, cp.stderr
        assert json.loads(cp.stdout) == []

    def test_single_element_matches_brute_force(self):
        rng = np.random.default_rng(5)
        scenario, target = make_random_scenario(rng, 1)
        a = optimize_config(scenario, target, ACTIVE)
        b = brute_force_config(scenario, target, ACTIVE)
        assert a == b

    def test_deterministic(self, scenario, p1):
        target = spherical_to_cartesian(p1)
        assert optimize_config(scenario, target, REFLECTIVE) == optimize_config(
            scenario, target, REFLECTIVE
        )

    def test_local_optimality(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            scenario, target = make_random_scenario(rng, int(rng.integers(2, 30)))
            for alphabet in (REFLECTIVE, ACTIVE):
                config = optimize_config(scenario, target, alphabet)
                best = _objective_dbm_free(scenario, config, target)
                for m in range(len(config)):
                    for state in alphabet.states:
                        if state == config.coefficients[m]:
                            continue
                        coeffs = list(config.coefficients)
                        coeffs[m] = state
                        from rissim.linkbudget import RisConfig

                        perturbed = RisConfig(tuple(coeffs), "perturbed")
                        assert (
                            _objective_dbm_free(scenario, perturbed, target)
                            <= best * (1.0 + 1e-12) + 1e-300
                        )

    def test_beats_every_uniform_config(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            scenario, target = make_random_scenario(rng, int(rng.integers(1, 40)))
            for alphabet in (REFLECTIVE, ACTIVE):
                config = optimize_config(scenario, target, alphabet)
                best = _objective_dbm_free(scenario, config, target)
                for state in alphabet.states:
                    uni = uniform_config(scenario.layout, state)
                    assert _objective_dbm_free(scenario, uni, target) <= best * (1 + 1e-12) + 1e-300

    def test_active_on_elements_help(self, scenario, p2):
        from rissim.linkbudget import RisConfig

        target = spherical_to_cartesian(p2)
        config = optimize_config(scenario, target, ACTIVE)
        best = _objective_dbm_free(scenario, config, target)
        off = ReflectionCoefficient(0.0, 0.0)
        on_count = 0
        for m, c in enumerate(config.coefficients):
            if c.magnitude == 0.0:
                continue
            on_count += 1
            coeffs = list(config.coefficients)
            coeffs[m] = off
            assert _objective_dbm_free(scenario, RisConfig(tuple(coeffs), "x"), target) <= best
        assert on_count > 0

    def test_converges_on_random_instances(self):
        # full-size smoke test: every instance returns a config from the alphabet
        rng = np.random.default_rng(9)
        for k in range(100):
            scenario, target = make_random_scenario(rng, int(rng.integers(2, 128)))
            alphabet = REFLECTIVE if k % 2 == 0 else ACTIVE
            config = optimize_config(scenario, target, alphabet)
            assert len(config) == len(scenario.layout)
            assert set(config.coefficients) <= set(alphabet.states)


class TestBruteForce:
    def test_guard_on_search_space(self, scenario, p1):
        with pytest.raises(ValidationError):
            brute_force_config(scenario, spherical_to_cartesian(p1), REFLECTIVE)

    def test_two_opposed_elements_turn_one_off(self):
        # place the second element so its path is exactly half a wavelength
        # longer: the two phasors oppose and only the stronger element stays on
        lam = 299792458.0 / 23.8e9
        y = math.sqrt((1.0 + lam / 4.0) ** 2 - 1.0)
        layout = RisLayout((Vec3(0.0, 0.0, 0.0), Vec3(0.0, y, 0.0)), d_y=6.6e-3, d_z=6.6e-3)
        scenario = Scenario(
            frequency_hz=23.8e9,
            tx_power_dbm=10.0,
            bs_position=Vec3(1.0, 0.0, 0.0),
            bs_pattern=AntennaPattern(19.0, 0.0),
            ue_pattern=AntennaPattern(3.2, 0.0),
            element_pattern=AntennaPattern(0.0, 0.0),
            layout=layout,
        )
        target = Vec3(1.0, 0.0, 0.0)
        config = brute_force_config(scenario, target, ACTIVE)
        mags = [c.magnitude for c in config.coefficients]
        assert mags == [1.25, 0.0]

        # hand enumeration of all four candidates agrees
        g = element_phasor_matrix(scenario, target.as_array()[None, :])[0]
        objectives = {}
        for combo in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            coeffs = np.array([as_complex(ACTIVE.states[k]) for k in combo])
            objectives[combo] = abs(np.sum(coeffs * g)) ** 2
        assert max(objectives, key=objectives.get) == (0, 1)

    def test_matches_brute_force_objective(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            scenario, target = make_random_scenario(rng, 12)
            for alphabet in (REFLECTIVE, ACTIVE):
                _assert_matches_brute_force(scenario, target, alphabet)

    def test_matches_brute_force_objective_reflective(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            scenario, target = make_random_scenario(rng, 10)
            _assert_matches_brute_force(scenario, target, REFLECTIVE)

    @pytest.mark.parametrize(
        "alphabet, m_max, seed",
        [(REFLECTIVE, 12, 15), (THREE_STATE, 8, 16)],
        ids=["reflective", "three"],
    )
    def test_returns_the_smallest_tied_configuration(self, alphabet, m_max, seed):
        # reflective ties come in complement pairs, the symmetric 3-state
        # alphabet's in threes (a common phase rotation)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            scenario, target = make_random_scenario(rng, int(rng.integers(1, m_max + 1)))
            config = optimize_config(scenario, target, alphabet)
            assert config.coefficients == _smallest_tied_config(scenario, target, alphabet)

    def test_matches_brute_force_objective_multistate(self):
        # the sweep is general in the alphabet size: a symmetric 3-state
        # phase alphabet and an irregular 4-state one
        rng = np.random.default_rng(13)
        for _ in range(20):
            for alphabet, m_max in ((THREE_STATE, 9), (FOUR_STATE, 7)):
                scenario, target = make_random_scenario(rng, int(rng.integers(1, m_max + 1)))
                _assert_matches_brute_force(scenario, target, alphabet)


def _pinned_targets():
    """64 seeded targets on the table plane, then 16 others: on the axis plane y = 0
    (a field symmetric in z), off the table, and behind the surface (a zero field)."""
    rng = np.random.default_rng(40)
    table = zip(rng.uniform(0.92, 1.52, 64), rng.uniform(0.02, 0.92, 64), [-0.39] * 64)
    axis = [(x, 0.0, z) for x in (0.5, 1.0, 1.86) for z in (0.0, -0.39)]
    off = zip(rng.uniform(2.0, 4.0, 5), rng.uniform(-2.0, 2.0, 5), rng.uniform(-1.0, 1.0, 5))
    behind = zip(rng.uniform(-1.5, -0.3, 5), rng.uniform(-0.9, 0.9, 5), [-0.39] * 5)
    return [Vec3(*map(float, xyz)) for part in (table, axis, off, behind) for xyz in part]


def _pinned_cases():
    targets = _pinned_targets()
    for rings in (1, 6, 12):
        scenario = resolve_scenario({"ris": {"rings": rings}}).scenario
        for alphabet in ALPHABETS:
            for target in targets:
                yield scenario, target, alphabet


def test_the_returned_state_indices_are_pinned():
    digest = hashlib.sha256()
    for scenario, target, alphabet in _pinned_cases():
        index = {state: k for k, state in enumerate(alphabet.states)}
        config = optimize_config(scenario, target, alphabet)
        digest.update(bytes([index[state] for state in config.coefficients]))
    assert digest.hexdigest() == CONFIGS_SHA256, (
        "optimize_config returned other configurations on the pinned targets; list them by\n"
        "comparing _pinned_cases() on a checkout of the commit that last set CONFIGS_SHA256"
    )
