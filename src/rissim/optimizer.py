"""Configuration search maximizing power at a target position.

The objective is |sum_m Gamma_m g_m|^2 with g_m the propagation phasor of
element m toward the target. At its maximum over a finite alphabet every
element takes the state maximizing Re(Gamma g_m exp(-j phi)) for some
direction phi (Sanchez et al., GLOBECOM 2021; Ren et al., IEEE JSTSP 2023).
That greedy choice depends only on phi - arg g_m, so it changes only at the
alphabet's tie angles arg(s_k - s_l) +- 90 deg rotated by arg g_m, and one
sweep of phi around the circle, event by event, visits every candidate: the
search is exact. The optimum S* is strictly greedy at phi* = arg S*: an
element tied there could change state and add |Delta|^2 to |S*|^2. So it lies
on an arc of positive width, and the order in which equal-angle events are
swept cannot change the answer.
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
        # Built with the alphabet, `values` too, and not in its first search: arrays
        # cached there land among the search's temporaries and raise peak RSS.
        self.arcs

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

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (starts, states, jumps) of the greedy state, built with the alphabet.

        argmax_k Re(s_k exp(-j psi)) changes only at the K(K-1) tie angles
        arg(s_k - s_l) +- 90 deg. Arc t starts at starts[t], sorted in [0, 2 pi),
        and ends where arc t+1 starts (the last wraps through 2 pi); it holds
        states[t], and jumps[t] = s[states[t]] - s[states[t-1]] is the change on
        entering it.
        """
        values = self.values
        ties = np.angle(np.concatenate([a - values[i + 1:] for i, a in enumerate(values)])) + np.pi / 2
        # Python's sort: a numpy sort kind that no search uses would map its code pages
        starts = np.array(sorted((np.concatenate((ties, ties - np.pi)) % (2 * np.pi)).tolist()))
        mid = 0.5 * (starts + np.append(starts[1:], starts[:1] + 2 * np.pi))
        states = np.argmax((values * np.exp(-1j * mid)[:, None]).real, axis=1)
        jumps = values[states] - values[np.roll(states, 1)]
        return read_only(starts), read_only(states), read_only(jumps)


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

    On the alphabet's arc t rotated by arg g_m, element m's greedy state is
    states[t], since Re(s_k g_m exp(-j phi)) = |g_m| Re(s_k exp(-j(phi - arg g_m))).
    The per-element state changes, merged by angle, give the coherent sum on
    every arc of the circle. Equal-angle events may be swept in any order: the
    optimum lies on an arc of positive width (see the module docstring). Ties
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
    starts, states, jumps = alphabet.arcs

    # Global sweep from phi = 0. Element m enters its arc t at events[t, m]; its
    # first event enters arc `first`, so at phi = 0 it sits in the arc before.
    events = (starts[:, None] + np.angle(g)) % (2 * np.pi)  # (K(K-1), M)
    first = events.argmin(axis=0)
    order = np.argsort(events.ravel(), kind="stable")  # equal angles in row order
    deltas = (jumps[:, None] * g).ravel()[order]
    sums = np.sum(alphabet.values[states[first - 1]] * g) + np.cumsum(deltas)
    objs = sums.real**2 + sums.imag**2
    near = np.flatnonzero((objs >= objs.max() * (1.0 - _CANDIDATE_RTOL)) & (deltas != 0))
    # All phasors zero: every configuration ties. Without the filter every event
    # would be a candidate, K(K-1)M rows of M states each.
    if len(near) == 0:
        return uniform_config(scenario.layout, alphabet.states[0], alphabet.name)

    # After global event i, an element that has seen n of its events is in arc
    # (first + n - 1) mod K(K-1).
    entered = np.array([np.bincount(order[: i + 1] % len(g), minlength=len(g)) for i in near])
    candidates = states[(first + entered - 1) % len(starts)]
    exact = np.sum(alphabet.values[candidates] * g, axis=1)
    exact = exact.real**2 + exact.imag**2
    best = min(candidates[exact >= exact.max() * (1.0 - _TIE_RTOL)].tolist())  # lexicographic
    config = RisConfig(tuple([alphabet.states[i] for i in best]), alphabet.name)
    # complex_values is elementwise: these are the bits as_complex_array would rebuild
    object.__setattr__(config, "as_complex_array", read_only(alphabet.values[best]))
    return config
