"""Correctness checks on rissim outputs, independent of rissim's own code paths.

Every check holds for any correct implementation of the model, including the
declared output changes planned on the roadmap (exact configuration search,
a sufficient-statistic sounder): they test the model's equations and the
planner's contract, never particular output bits.

* grid cells against a scalar link-budget reference (1e-6 dB);
* optimized configurations are 1-opt: no single-element change raises the
  target power;
* emulated cells well above the noise floor lie within a statistical bound
  of the deterministic sweep, fixed so that a false failure is below 1e-14
  per cell;
* every schedule event lies outside its predecessor's focus ellipse while
  the trajectory point one time step earlier lies inside it;
* written grid CSVs read back to the in-memory grid.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

SPEED_OF_LIGHT = 299792458.0
BOLTZMANN = 1.380649e-23

# Below-floor sentinel of the grid format (dBm) and its linear power (mW).
FLOOR_SENTINEL_DBM = -250.0
_FLOOR_SENTINEL_MW = 10.0 ** (FLOOR_SENTINEL_DBM / 10.0)

REFERENCE_TOL_DB = 1e-6
# Cells whose coherent sum is below this share of the incoherent sum are
# ill-conditioned (deep nulls); there the float rounding of any summation
# order exceeds 1e-6 dB, so they are compared in amplitude instead.
_CONDITIONING = 1e-4
_AMPLITUDE_TOL = 1e-9
# A flip must raise |sum|^2 by more than this share to count as improving;
# it absorbs rounding differences between reference and program phasors.
_ONE_OPT_RTOL = 1e-9

# Emulation bound. The emulated power of a cell is |sqrt(P) e^{j theta} +
# sqrt(N) z|^2 with z ~ CN(0, 1) and N the noise floor, so
# P(|z| > t) = exp(-t^2). With t^2 = ln(1e14) the per-cell false-failure
# probability is 1e-14. A run checks fewer than 1e8 cells (about 3e5 at
# 1.2 s per patterns pass; 1e8 would take passes of 3 ms), so a false
# failure has probability below 1e-6. Only cells at least 20 dB above the
# floor are checked.
EMULATION_FALSE_FAIL_PER_CELL = 1e-14
_EMULATION_T = math.sqrt(math.log(1.0 / EMULATION_FALSE_FAIL_PER_CELL))
EMULATION_MIN_SNR_DB = 20.0

CSV_RTOL = 1e-5  # the grid CSV keeps 6 significant digits


def _db(x: float) -> float:
    return 10.0 ** (x / 10.0)


def _pattern(exponent: float, cos_angle: float) -> float:
    if exponent == 0.0:
        return 1.0
    return max(cos_angle, 0.0) ** exponent


def reference_phasors(scenario, point) -> list[complex]:
    """Per-element phasors sqrt(F_m) exp(-j 2 pi (d1 + d2) / lambda) / (d1 d2),
    one element at a time in plain Python; point is an (x, y, z) triple."""
    ax, ay, az = scenario.bs_position.x, scenario.bs_position.y, scenario.bs_position.z
    a_norm = math.sqrt(ax * ax + ay * ay + az * az)
    bore = (-ax / a_norm, -ay / a_norm, -az / a_norm)  # feed aims at the surface center
    q_bs = scenario.bs_pattern.exponent
    q_el = scenario.element_pattern.exponent
    q_ue = scenario.ue_pattern.exponent
    k = 2.0 * math.pi * scenario.frequency_hz / SPEED_OF_LIGHT
    bx, by, bz = point
    out = []
    for e in scenario.layout.elements:
        tx, ty, tz = e.x - ax, e.y - ay, e.z - az
        d1 = math.sqrt(tx * tx + ty * ty + tz * tz)
        f_bs = _pattern(q_bs, (tx * bore[0] + ty * bore[1] + tz * bore[2]) / d1)
        cos_in = (ax - e.x) / d1
        f_in = _pattern(q_el, cos_in) if cos_in > 0.0 else 0.0
        vx, vy, vz = bx - e.x, by - e.y, bz - e.z
        d2 = math.sqrt(vx * vx + vy * vy + vz * vz)
        cos_out = vx / d2
        f_out = _pattern(q_el, cos_out) if cos_out > 0.0 else 0.0
        f_ue = _pattern(q_ue, -vz / d2)
        amp = math.sqrt(f_bs * f_in * f_out * f_ue) / (d1 * d2)
        out.append(amp * cmath.exp(-1j * k * (d1 + d2)))
    return out


def prefactor_mw(scenario) -> float:
    layout = scenario.layout
    return (
        _db(scenario.tx_power_dbm)
        * _db(scenario.bs_pattern.gain_dbi)
        * _db(scenario.ue_pattern.gain_dbi)
        * (layout.d_y * layout.d_z) ** 2
        / (16.0 * math.pi**2)
    )


def _complex(coefficients) -> list[complex]:
    """Complex values of a sequence of ReflectionCoefficient."""
    return [c.magnitude * cmath.exp(1j * math.radians(c.phase_deg)) for c in coefficients]


def check_power(scenario, config, point, dbm: float) -> bool:
    """The program's power at point (dBm) matches the scalar reference."""
    terms = [c * g for c, g in zip(_complex(config.coefficients), reference_phasors(scenario, point))]
    s = abs(sum(terms))
    incoherent = sum(abs(t) for t in terms)
    pref = prefactor_mw(scenario)
    if s >= _CONDITIONING * incoherent and pref * s * s > _FLOOR_SENTINEL_MW:
        return dbm > FLOOR_SENTINEL_DBM and abs(dbm - 10.0 * math.log10(pref * s * s)) <= REFERENCE_TOL_DB
    amplitude = 0.0 if dbm <= FLOOR_SENTINEL_DBM else math.sqrt(_db(dbm) / pref)
    return abs(amplitude - s) <= _AMPLITUDE_TOL * incoherent


def check_grid_cells(scenario, config, grid, cells) -> bool:
    """Sampled cells (i, j) of a PowerGrid agree with the scalar reference."""
    spec = grid.spec
    return all(
        check_power(
            scenario,
            config,
            (spec.x0 + spec.dx * i, spec.y0 + spec.dy * j, spec.z_plane),
            float(grid.values[i, j]),
        )
        for i, j in cells
    )


def focus_gain_db(scenario, config, alphabet, point) -> tuple[bool, float]:
    """Check that config is 1-opt for point and return its gain over the best
    uniform configuration of the alphabet, in dB.

    1-opt: for every element m and every other state x, replacing element m's
    state by x does not raise |sum_m Gamma_m g_m|^2.
    """
    states = np.array(_complex(alphabet.states))
    if len(config.coefficients) != len(scenario.layout):
        return False, 0.0
    try:
        idx = np.array([alphabet.index_of(c) for c in config.coefficients])
    except ValueError:  # a coefficient outside the alphabet
        return False, 0.0
    g = np.array(reference_phasors(scenario, point))
    s = np.sum(states[idx] * g)
    obj = abs(s) ** 2
    flipped = s - (states[idx] * g)[:, None] + states[None, :] * g[:, None]  # (M, K)
    one_opt = bool(np.all(np.abs(flipped) ** 2 <= obj * (1.0 + _ONE_OPT_RTOL)))
    best_uniform = max(abs(x * np.sum(g)) ** 2 for x in states)
    return one_opt, 10.0 * math.log10(obj / best_uniform)


def noise_floor_mw(sounder) -> float:
    """Closed-form floor kTB / Q * NF in milliwatts."""
    ktb_mw = BOLTZMANN * sounder.temperature_k * sounder.bandwidth_hz / 1e-3
    return ktb_mw / sounder.averages * _db(sounder.noise_figure_db)


def check_emulation(sim, meas, sounder) -> tuple[bool, int]:
    """Emulated cells at least 20 dB above the floor lie within the fixed
    statistical bound of the deterministic sweep. Returns (ok, cells checked)."""
    if meas.values.shape != sim.values.shape:
        return False, 0
    floor = noise_floor_mw(sounder)
    p_sim = 10.0 ** (sim.values / 10.0)
    snr = p_sim / floor
    mask = snr >= _db(EMULATION_MIN_SNR_DB)
    w = _EMULATION_T / np.sqrt(snr[mask])  # |noise| / |signal| bound
    ratio = 10.0 ** ((meas.values[mask] - sim.values[mask]) / 10.0)
    ok = np.all((ratio >= (1.0 - w) ** 2) & (ratio <= (1.0 + w) ** 2))
    return bool(ok), int(np.count_nonzero(mask))


def check_csv_roundtrip(grid, read_back) -> bool:
    """A grid read back from its CSV matches the grid written."""
    a, b = grid.spec, read_back.spec
    if (a.nx, a.ny) != (b.nx, b.ny) or read_back.label != grid.label:
        return False
    if not np.allclose([a.x0, a.y0, a.dx, a.dy, a.z_plane], [b.x0, b.y0, b.dx, b.dy, b.z_plane], rtol=CSV_RTOL, atol=0.0):
        return False
    floor_a = grid.values <= FLOOR_SENTINEL_DBM
    floor_b = read_back.values <= FLOOR_SENTINEL_DBM
    return bool(
        np.array_equal(floor_a, floor_b)
        and np.allclose(read_back.values[~floor_a], grid.values[~floor_a], rtol=CSV_RTOL, atol=0.0)
    )


def check_pgm(data: bytes, grid) -> bool:
    """A heatmap file is a binary PGM with one byte per grid cell."""
    header = f"P5\n{grid.spec.nx} {grid.spec.ny}\n255\n".encode("ascii")
    return data.startswith(header) and len(data) == len(header) + grid.spec.nx * grid.spec.ny


def position_at(waypoints, distance: float) -> tuple[float, float, float]:
    """Point at the given path length along a polyline of (x, y, z) triples."""
    remaining = max(distance, 0.0)
    for p, q in zip(waypoints, waypoints[1:]):
        seg = math.dist(p, q)
        if remaining <= seg and seg > 0.0:
            f = remaining / seg
            return tuple(pi + f * (qi - pi) for pi, qi in zip(p, q))
        remaining -= seg
    return tuple(waypoints[-1])


def inside_ellipse(center, rho_a: float, rho_r: float, point) -> bool:
    """Point lies in the focus ellipse at center: semi-axis rho_r along the
    horizontal bearing of center, rho_a across it."""
    h = math.hypot(center[0], center[1])
    ux, uy = center[0] / h, center[1] / h
    dx, dy = point[0] - center[0], point[1] - center[1]
    radial = dx * ux + dy * uy
    across = -dx * uy + dy * ux
    return (across / rho_a) ** 2 + (radial / rho_r) ** 2 <= 1.0


def check_schedule(events, waypoints, speed: float, time_step: float) -> bool:
    """The schedule starts at t = 0 at the first waypoint; every later event
    lies outside its predecessor's ellipse, and the trajectory point one
    time step before it lies inside."""
    if not events or events[0].t_s != 0.0:
        return False
    first = events[0].position
    if math.dist((first.x, first.y, first.z), waypoints[0]) > 1e-9:
        return False
    for prev, ev in zip(events, events[1:]):
        center = (prev.position.x, prev.position.y)
        here = (ev.position.x, ev.position.y)
        before = position_at(waypoints, (ev.t_s - time_step) * speed)
        if not ev.t_s > prev.t_s:
            return False
        if inside_ellipse(center, prev.rho_a, prev.rho_r, here):
            return False
        if not inside_ellipse(center, prev.rho_a, prev.rho_r, before):
            return False
    return True
