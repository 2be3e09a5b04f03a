"""Configuration search maximizing power at a target position.

The objective is |sum_m Gamma_m g_m|^2 with g_m the propagation phasor of
element m toward the target. At its maximum over a finite alphabet every
element takes the state maximizing Re(Gamma g_m exp(-j phi)) for some
direction phi (Sanchez et al., GLOBECOM 2021; Ren et al., IEEE JSTSP 2023).
That greedy choice changes only at the tie angles arg((s_k - s_l) g_m) +- 90
deg, so one sweep of phi around the circle, event by event, visits every
candidate: the search is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError, ValidationError
from .geom import RisLayout, Vec3, read_only
from .linkbudget import (
    ReflectionCoefficient, RisConfig, Scenario, complex_values, element_phasor_matrix
)

# Arcs whose swept objective lies this close to the best are re-evaluated
# exactly (the running sum carries rounding); candidates within _TIE_RTOL of
# the best exact objective count as ties.
_CANDIDATE_RTOL = 1e-9
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class ReflectionAlphabet:
    """Named finite set of realizable reflection coefficients."""

    name: str
    states: tuple[ReflectionCoefficient, ...]

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValidationError("alphabet needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValidationError("alphabet states must be distinct")

    def index_of(self, coeff: ReflectionCoefficient) -> int:
        try:
            return self.states.index(coeff)
        except ValueError:
            raise ValidationError(
                f"({coeff.magnitude}, {coeff.phase_deg} deg) is not a state of alphabet "
                f"{self.name!r}"
            ) from None

    @cached_property
    def values(self) -> np.ndarray:
        """Read-only complex values of the states, computed once."""
        return complex_values(self.states)


REFLECTIVE = ReflectionAlphabet(
    "reflective",
    (ReflectionCoefficient(0.3, -15.0), ReflectionCoefficient(0.3, 165.0)),
)
ACTIVE = ReflectionAlphabet(
    "active",
    (ReflectionCoefficient(1.25, 0.0), ReflectionCoefficient(0.0, 0.0)),
)


def uniform_config(
    layout: RisLayout, state: ReflectionCoefficient, alphabet_name: str = "uniform"
) -> RisConfig:
    """All elements set to the same state."""
    return RisConfig((state,) * len(layout), alphabet_name)


def optimize_config(
    scenario: Scenario, target: Vec3, alphabet: ReflectionAlphabet
) -> RisConfig:
    """Globally optimal configuration for power at the target position.

    Each element contributes s_k g_m; its greedy state is constant on each
    arc between its own K(K-1) tie angles. The per-element state changes,
    merged by angle, give the coherent sum on every arc of the circle. Ties
    (e.g. a reflective configuration and its complement) resolve to the
    lexicographically smallest state-index vector, as in exhaustive search;
    a field that is zero at every element ties every configuration, so the
    result is the first state everywhere.
    """
    if len(alphabet.states) == 1:
        return uniform_config(scenario.layout, alphabet.states[0], alphabet.name)
    g = element_phasor_matrix(scenario, target.as_array()[None, :])[0]
    if not np.isfinite(g).all():
        raise GeometryError("element phasors at the target are not finite: a distance overflows")
    states = alphabet.values
    contrib = states[:, None] * g[None, :]  # (K, M)
    m_count = len(g)
    cols = np.arange(m_count)

    # Own tie angles in [0, 2 pi), sorted per element; own arc t starts at own[t].
    k = len(states)
    ties = np.angle(np.array([contrib[a] - contrib[b] for a in range(k) for b in range(a + 1, k)]))
    own = np.sort(np.concatenate((ties + np.pi / 2, ties - np.pi / 2)) % (2 * np.pi), axis=0)
    mid = 0.5 * (own + np.concatenate((own[1:], own[:1])))
    mid[-1] += np.pi  # the last own arc wraps through 2 pi
    scores = contrib.real[None] * np.cos(mid)[:, None] + contrib.imag[None] * np.sin(mid)[:, None]
    choice = np.argmax(scores, axis=1)  # (K(K-1), M) greedy state on each own arc
    picked = contrib[choice, cols]  # (K(K-1), M) contribution on each own arc
    # the event at own[t] moves its element from own arc t-1 into own arc t
    delta = picked - np.concatenate((picked[-1:], picked[:-1]))

    # Global sweep from phi = 0, where every element sits in its last own arc.
    order = np.argsort(own.ravel(), kind="stable")  # keeps each element's events in arc order
    deltas = delta.ravel()[order]
    sums = picked[-1].sum() + np.cumsum(deltas)
    objs = sums.real**2 + sums.imag**2
    near = np.flatnonzero((objs >= objs.max() * (1.0 - _CANDIDATE_RTOL)) & (deltas != 0))
    # All phasors zero: every configuration ties. Without the filter every event
    # would be a candidate, K(K-1)M rows of M states each.
    if len(near) == 0:
        return uniform_config(scenario.layout, alphabet.states[0], alphabet.name)

    # After global event i, an element that has seen n of its events sits in own arc n-1.
    entered = np.array([np.bincount(order[: i + 1] % m_count, minlength=m_count) for i in near])
    candidates = choice[(entered - 1) % len(own), cols]
    exact = np.sum(states[candidates] * g, axis=1)
    exact = exact.real**2 + exact.imag**2
    best = min(candidates[exact >= exact.max() * (1.0 - _TIE_RTOL)].tolist())  # lexicographic
    config = RisConfig(tuple([alphabet.states[i] for i in best]), alphabet.name)
    # complex_values is elementwise: these are the bits as_complex_array would rebuild
    object.__setattr__(config, "as_complex_array", read_only(states[best]))
    return config
