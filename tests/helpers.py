"""Shared builders for randomized test scenarios and the exhaustive-search oracle."""
import itertools

import numpy as np

from rissim.errors import ValidationError
from rissim.geom import RisLayout, Vec3
from rissim.linkbudget import AntennaPattern, RisConfig, Scenario, element_phasor_matrix
from rissim.optimizer import ReflectionAlphabet


def make_random_scenario(rng: np.random.Generator, m_count: int):
    """Random in-plane layout with random endpoints in front of the surface.

    Returns (scenario, target) with the target a Vec3. Element pattern uses
    the default exponent 1; BS/UE patterns are isotropic so geometry alone
    drives the phasors.
    """
    yz = rng.uniform(-0.05, 0.05, (m_count, 2))
    elements = tuple(Vec3(0.0, float(y), float(z)) for y, z in yz)
    layout = RisLayout(elements, pitch=1e-3, d_y=6.6e-3, d_z=6.6e-3, rings=0)
    bs = Vec3(float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1)))
    target = Vec3(float(rng.uniform(0.3, 2.5)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1)))
    scenario = Scenario(
        frequency_hz=23.8e9,
        tx_power_dbm=10.0,
        bs_position=bs,
        bs_pattern=AntennaPattern(19.0, 0.0),
        ue_pattern=AntennaPattern(3.2, 0.0),
        element_pattern=AntennaPattern(0.0, 1.0),
        layout=layout,
    )
    return scenario, target


def linear_mean_dbm(values_dbm) -> float:
    """dB value of the arithmetic mean of linear powers."""
    linear = 10.0 ** (np.asarray(values_dbm, dtype=float) / 10.0)
    return float(10.0 * np.log10(np.mean(linear)))


def brute_force_config(
    scenario: Scenario,
    target: Vec3,
    alphabet: ReflectionAlphabet,
    max_search: int = 2**20,
) -> RisConfig:
    """Globally optimal configuration by exhaustive enumeration.

    Guarded to |alphabet|^M <= max_search. Ties resolve to the
    lexicographically smallest state-index vector (enumeration order).
    """
    m_count = len(scenario.layout)
    n_states = len(alphabet.states)
    if n_states**m_count > max_search:
        raise ValidationError(
            f"search space {n_states}^{m_count} exceeds the {max_search} guard"
        )
    g = element_phasor_matrix(scenario, target.as_array()[None, :])[0]
    states = np.array([c.as_complex for c in alphabet.states])

    best_obj = -1.0
    best_combo: tuple[int, ...] | None = None
    chunk: list[tuple[int, ...]] = []

    def flush(chunk):
        nonlocal best_obj, best_combo
        idx = np.array(chunk, dtype=np.intp)
        sums = np.sum(states[idx] * g[None, :], axis=-1)
        objs = sums.real**2 + sums.imag**2
        k = int(np.argmax(objs))
        if objs[k] > best_obj:  # strict: earlier (lex smaller) combos win ties
            best_obj = float(objs[k])
            best_combo = chunk[k]

    for combo in itertools.product(range(n_states), repeat=m_count):
        chunk.append(combo)
        if len(chunk) == 8192:
            flush(chunk)
            chunk = []
    if chunk:
        flush(chunk)
    assert best_combo is not None
    return RisConfig(tuple(alphabet.states[k] for k in best_combo), alphabet.name)
