"""Shared builders for randomized test scenarios and the oracles the package is
checked against: exhaustive configuration search, the (N, M, 3) phasor
kernel, scalar per-element phasor and pattern products, the full-scan
beamwidth, the record-level sounder, the step-by-step planner and the per-cell
grid CSV writer."""
import itertools
import math

import numpy as np

from rissim.errors import BeamNotResolvedError, GeometryError, ValidationError
from rissim.geom import RisLayout, SphericalCoord, Vec3, cartesian_to_spherical
from rissim.linkbudget import (
    _BELOW_FLOOR_MW,
    BELOW_FLOOR_DBM,
    AntennaPattern,
    RisConfig,
    Scenario,
    config_fingerprint,
    db_to_linear,
    dbm_from_sums,
    element_phasor_matrix,
    noise_floor,
    prefactor_mw,
    wavelength,
)
from rissim.optimizer import ReflectionAlphabet, optimize_config
from rissim.planner import (
    Trajectory,
    UpdateEvent,
    UpdateSchedule,
    _polyline,
    focus_ellipse,
)
from rissim.sweep import PowerGrid, SounderParams, _arc_positions


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


def reference_phasor_matrix(scenario: Scenario, positions: np.ndarray) -> np.ndarray:
    """The phasor kernel over an (N, M, 3) offset array with a complex phase.

    element_phasor_matrix must give these bits for every input.
    """
    pos = np.asarray(positions, dtype=float)
    u = scenario.layout.positions
    d1, amp_bs = scenario.bs_side

    dv = pos[:, None, :] - u[None, :, :]  # element -> user, per position
    d2 = np.sqrt(np.sum(dv * dv, axis=-1))
    if np.any(d2 == 0.0):
        n, m = np.argwhere(d2 == 0.0)[0]
        raise GeometryError(
            f"user position {tuple(pos[n].tolist())} coincides with element {m} center"
        )
    cos_out = dv[..., 0] / d2
    f_out = np.where(cos_out <= 0.0, 0.0, scenario.element_pattern.value_at(cos_out))
    cos_ue = -dv[..., 2] / d2  # UE antenna boresight is +z
    f_ue = scenario.ue_pattern.value_at(cos_ue)

    lam = wavelength(scenario)
    amp = amp_bs[None, :] * np.sqrt(f_out * f_ue) / d2
    return amp * np.exp(-2j * np.pi * (d1[None, :] + d2) / lam)


def element_phasor(scenario: Scenario, m: int, ue_position: Vec3) -> complex:
    """Single-element propagation phasor (reflection coefficient factored out)."""
    if not 0 <= m < len(scenario.layout):
        raise ValidationError(f"element index {m} out of range")
    row = element_phasor_matrix(scenario, ue_position.as_array()[None, :])[0]
    return complex(row[m])


def combined_pattern(scenario: Scenario, m: int, ue_position: Vec3) -> float:
    """Product of the four normalized pattern factors for element m, in [0, 1]."""
    if not 0 <= m < len(scenario.layout):
        raise ValidationError(f"element index {m} out of range")
    u = scenario.layout.positions[m]
    a = scenario.bs_position.as_array()
    b = ue_position.as_array()

    to_el = u - a
    d1 = np.linalg.norm(to_el)
    if d1 == 0.0:
        raise GeometryError("base station coincides with the element center")
    cos_bs = float(to_el @ (-a / np.linalg.norm(a))) / d1
    f_bs = float(scenario.bs_pattern.value_at(cos_bs))

    cos_in = a[0] / d1
    f_in = 0.0 if cos_in <= 0.0 else float(scenario.element_pattern.value_at(cos_in))

    dv = b - u
    d2 = np.linalg.norm(dv)
    if d2 == 0.0:
        raise GeometryError("user position coincides with the element center")
    cos_out = dv[0] / d2
    f_out = 0.0 if cos_out <= 0.0 else float(scenario.element_pattern.value_at(cos_out))
    cos_ue = -dv[2] / d2
    f_ue = float(scenario.ue_pattern.value_at(cos_ue))
    return f_bs * f_in * f_out * f_ue


def hpbw_full_scan(
    scenario: Scenario, config: RisConfig, target: SphericalCoord, axis: str
) -> float:
    """Half-power beamwidth from every 0.1 degree sample of the +/-45 degree arc.

    The scan rissim.sweep.hpbw must reproduce bit for bit.
    """
    if axis not in ("azimuth", "elevation"):
        raise ValidationError(f"axis must be 'azimuth' or 'elevation', got {axis!r}")
    n = 450
    offsets = (np.arange(2 * n + 1) - n) * 0.1
    if axis == "elevation":
        valid = (target.elevation_deg + offsets >= -90.0) & (
            target.elevation_deg + offsets <= 90.0
        )
        offsets = offsets[valid]
    # every element's phasor, off or not: independent of coherent_sums' subset path
    phasors = element_phasor_matrix(scenario, _arc_positions(target, axis, offsets))
    powers = dbm_from_sums(scenario, np.sum(phasors * config.as_complex_array, axis=-1))
    k = int(np.argmax(powers))
    ref = powers[k] - 3.0

    lo = hi = None
    for t in range(k, 0, -1):
        if powers[t - 1] < ref <= powers[t]:
            frac = (powers[t] - ref) / (powers[t] - powers[t - 1])
            lo = offsets[t] - frac * 0.1
            break
    for t in range(k, len(powers) - 1):
        if powers[t + 1] < ref <= powers[t]:
            frac = (powers[t] - ref) / (powers[t] - powers[t + 1])
            hi = offsets[t] + frac * 0.1
            break
    if lo is None or hi is None:
        raise BeamNotResolvedError(f"beam not resolved ({axis} cut)")
    return float(hi - lo)


def average_ir_power(
    ir_records: np.ndarray, n1: int, n2: int, tx_power_dbm: float
) -> float:
    """Coherently average Q impulse-response records and return power in dBm.

    ir_records: (Q, L) complex taps. The window [n1, n2] must lie within the
    record length.
    """
    records = np.asarray(ir_records, dtype=complex)
    if records.ndim != 2 or records.shape[0] < 1:
        raise ValidationError(f"need a (Q, L) record array, got shape {records.shape}")
    if n1 > n2:
        raise ValidationError(f"empty tap window [{n1}, {n2}]")
    if n1 < 0 or n2 >= records.shape[1]:
        raise ValidationError(
            f"window [{n1}, {n2}] outside record length {records.shape[1]}"
        )
    q = records.shape[0]
    s = np.sum(records[:, n1 : n2 + 1])
    p_mw = db_to_linear(tx_power_dbm) / q * float(s.real * s.real + s.imag * s.imag)
    if p_mw <= _BELOW_FLOOR_MW:
        return BELOW_FLOOR_DBM
    return float(10.0 * np.log10(p_mw))


def _noise_tap_variance_mw(scenario: Scenario, sounder: SounderParams) -> float:
    """Per-tap complex noise variance so that noise-only input reproduces the
    closed-form floor in expectation, including the window-length factor."""
    floor_mw = db_to_linear(
        noise_floor(
            sounder.temperature_k,
            sounder.bandwidth_hz,
            sounder.averages,
            sounder.noise_figure_db,
        )
    )
    window = sounder.window_stop - sounder.window_start + 1
    return floor_mw / (db_to_linear(scenario.tx_power_dbm) * window)


def record_level_power(
    scenario: Scenario, sounder: SounderParams, a: complex, rng: np.random.Generator
) -> float:
    """One sounder reading in dBm at a cell whose coherent sum is a.

    Synthesizes Q records of n2 + 1 taps (complex white noise plus the signal
    tap at the window center) and averages them over the window [n1, n2].
    """
    pref = prefactor_mw(scenario)
    tx_mw = db_to_linear(scenario.tx_power_dbm)
    q = sounder.averages
    n1, n2 = sounder.window_start, sounder.window_stop
    mid = (n1 + n2) // 2
    taps = n2 + 1
    sigma2 = _noise_tap_variance_mw(scenario, sounder) if sounder.noise_enabled else 0.0
    scale = math.sqrt(sigma2 / 2.0)
    mag2 = a.real * a.real + a.imag * a.imag
    if mag2 > 0.0:
        # signal tap amplitude chosen so the noise-free pipeline
        # returns exactly the deterministic received power
        s = math.sqrt(pref * mag2 / (tx_mw * q)) * (a / abs(a))
    else:
        s = 0.0
    records = scale * (rng.standard_normal((q, taps)) + 1j * rng.standard_normal((q, taps)))
    records[:, mid] += s
    return average_ir_power(records, n1, n2, scenario.tx_power_dbm)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b| over the samples."""
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    f_a = np.searchsorted(a, pooled, side="right") / len(a)
    f_b = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.max(np.abs(f_a - f_b)))


def ks_critical_value(n: int, m: int, alpha: float) -> float:
    """Asymptotic two-sample KS critical value at false-rejection rate alpha."""
    return math.sqrt(-math.log(alpha / 2.0) * (n + m) / (2.0 * n * m))


def _position_at(pts: np.ndarray, cumulative: np.ndarray, s: float) -> Vec3:
    total = cumulative[-1]
    s = min(max(s, 0.0), total)
    k = int(np.searchsorted(cumulative, s, side="right")) - 1
    k = min(k, len(cumulative) - 2)
    seg_len = cumulative[k + 1] - cumulative[k]
    if seg_len == 0.0:
        return Vec3.from_array(pts[k])
    frac = (s - cumulative[k]) / seg_len
    return Vec3.from_array(pts[k] + frac * (pts[k + 1] - pts[k]))


def plan_updates_stepwise(
    scenario: Scenario,
    trajectory: Trajectory,
    alphabet: ReflectionAlphabet,
    time_step_s: float = 1e-3,
) -> UpdateSchedule:
    """plan_updates testing one sampled instant at a time, one Vec3 per step."""
    pts, cumulative = _polyline(trajectory)
    total_time = cumulative[-1] / trajectory.speed_mps

    def reconfigure(t, position):
        config = optimize_config(scenario, position, alphabet)
        ellipse = focus_ellipse(scenario, config, cartesian_to_spherical(position))
        event = UpdateEvent(t, position, config_fingerprint(config), ellipse.rho_a, ellipse.rho_r)
        return event, ellipse

    event, ellipse = reconfigure(0.0, _position_at(pts, cumulative, 0.0))
    events = [event]
    steps = int(math.floor(total_time / time_step_s + 1e-9))
    for k in range(1, steps + 1):
        t = k * time_step_s
        position = _position_at(pts, cumulative, t * trajectory.speed_mps)
        if not ellipse.contains(position.as_array()):
            event, ellipse = reconfigure(t, position)
            events.append(event)

    if len(events) >= 2:
        mean = (events[-1].t_s - events[0].t_s) / (len(events) - 1)
    else:
        mean = None
    return UpdateSchedule(tuple(events), mean)


def _fmt_reference(value: float) -> str:
    v = float(value)
    if v == 0.0:  # normalize -0.0
        v = 0.0
    return f"{v:.6g}"


def write_power_grid_csv_reference(grid: PowerGrid, stream) -> None:
    """The grid CSV writer formatting one cell at a time.

    write_power_grid_csv must write these bytes for every grid.
    """
    s = grid.spec
    if "\n" in grid.label or "\r" in grid.label:
        raise ValidationError("grid label must not contain newlines")
    stream.write(
        f"# {_fmt_reference(s.x0)},{_fmt_reference(s.y0)},{_fmt_reference(s.dx)},"
        f"{_fmt_reference(s.dy)},{s.nx},{s.ny},{_fmt_reference(s.z_plane)},{grid.label}\n"
    )
    ys = [(j, _fmt_reference(s.y0 + s.dy * j)) for j in range(s.ny)]
    lines = []
    for i, row in enumerate(grid.values.tolist()):
        x = _fmt_reference(s.x0 + s.dx * i)
        lines.extend(
            f"{i},{j},{x},{y},{'-inf' if v <= BELOW_FLOOR_DBM else _fmt_reference(v)}\n"
            for (j, y), v in zip(ys, row)
        )
    stream.write("".join(lines))
