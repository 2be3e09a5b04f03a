"""Shared builders for randomized test scenarios and the oracles the package is
checked against: exhaustive configuration search, the (N, M, 3) phasor
kernel, scalar per-element phasor and pattern products, the full-scan
beamwidth, the record-level sounder, the step-by-step planner and the per-cell
grid CSV writer; a spy on hpbw's rounds; and the golden-output manifest of the
CLI and the scripts."""
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import rissim
import rissim.sweep
from rissim.cli import cli_dispatch
from rissim.errors import BeamNotResolvedError, GeometryError, ValidationError
from rissim.geom import (
    RisLayout,
    SphericalCoord,
    Vec3,
    cartesian_to_spherical,
    spherical_to_cartesian,
)
from rissim.io_cli import load_scenario
from rissim.linkbudget import (
    _BELOW_FLOOR_MW,
    BELOW_FLOOR_DBM,
    AntennaPattern,
    ReflectionCoefficient,
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
    arc_waypoints,
    focus_ellipse,
    plan_updates,
)
from rissim.sweep import (
    PowerGrid,
    SounderParams,
    _arc_positions,
    emulate_measurement_grid,
    hpbw,
    sweep_power,
)


def make_random_scenario(rng: np.random.Generator, m_count: int):
    """Random in-plane layout with random endpoints in front of the surface.

    Returns (scenario, target) with the target a Vec3. Element pattern uses
    the default exponent 1; BS/UE patterns are isotropic so geometry alone
    drives the phasors.
    """
    yz = rng.uniform(-0.05, 0.05, (m_count, 2))
    elements = tuple(Vec3(0.0, float(y), float(z)) for y, z in yz)
    layout = RisLayout(elements, d_y=6.6e-3, d_z=6.6e-3)
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


def as_complex(c: ReflectionCoefficient) -> complex:
    """Scalar complex value m * (cos + j sin) of one coefficient, in Python floats.

    The oracle for rissim.linkbudget.complex_values, which must give its bits
    bar the sign of a zero part where m*cos or m*sin underflows.
    """
    rad = math.radians(c.phase_deg)
    return c.magnitude * complex(math.cos(rad), math.sin(rad))


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
    states = np.array([as_complex(c) for c in alphabet.states])

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

    cos_in = (a[0] - u[0]) / d1
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
    phasors = element_phasor_matrix(scenario, _arc_positions(target, [(axis, offsets)]))
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


@contextlib.contextmanager
def recording_rounds():
    """Yield a list that receives the positions of each coherent_sums call made through
    rissim.sweep (hpbw's rounds), one array per call, until the block exits."""
    rounds, apply = [], rissim.sweep.coherent_sums

    def recording(scenario, config, positions):
        rounds.append(positions)
        return apply(scenario, config, positions)

    rissim.sweep.coherent_sums = recording
    try:
        yield rounds
    finally:
        rissim.sweep.coherent_sums = apply


def abs_cross_reference(u: np.ndarray, axis: str, azimuth_deg: float) -> np.ndarray:
    """|u_m x n| per coordinate through np.cross, n the rotation axis of an hpbw cut at the
    azimuth: z on azimuth cuts, (-sin az, cos az, 0) on elevation cuts.

    The oracle for rissim.sweep._across_axis, which must give its bits.
    """
    az = math.radians(azimuth_deg)
    n = (0.0, 0.0, 1.0) if axis == "azimuth" else (-math.sin(az), math.cos(az), 0.0)
    return np.abs(np.cross(u, n))


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
    return UpdateSchedule(tuple(events))


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
    stream.write(
        f"# {_fmt_reference(s.x0)},{_fmt_reference(s.y0)},{_fmt_reference(s.dx)},"
        f"{_fmt_reference(s.dy)},{s.nx},{s.ny},{_fmt_reference(s.z_plane)},{grid.label}\n"
    )
    ys = [(j, _fmt_reference(s.y0 + s.dy * j)) for j in range(s.ny)]
    lines = []
    for i, row in enumerate(grid.values.tolist()):
        x = _fmt_reference(s.x0 + s.dx * i)
        lines.extend(
            f"{i},{j},{x},{y},{_fmt_reference(v)}\n"
            for (j, y), v in zip(ys, row)
        )
    stream.write("".join(lines))


# ----------------------------- golden outputs -----------------------------

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_outputs.json"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# Inputs the golden commands read, written to the working directory first.
GOLDEN_INPUTS = {
    "ue_exponent_2_5.yaml": "ue: {pattern_exponent: 2.5}\n",
    "isotropic_elements.yaml": "ris: {element_pattern_exponent: 0.0}\n",
}
# The active P1 optimum with every off element written as -0, made once the CLI writes it.
_NEGATIVE_ZERO = ("active_P1.csv", "negative_zero_active_P1.csv")


def _golden_commands() -> list[str]:
    commands = [
        "layout --out layout.csv",
        "layout --rings 2 --pitch-mm 10",
        "noise-floor",
        "noise-floor --temp-k 300 --bw-mhz 100 --q 10 --nf-db 5",
    ]
    for alphabet in ("reflective", "active"):
        for target in ("P1", "P2"):
            tag = f"{alphabet}_{target}"
            pick = f"--target {target} --alphabet {alphabet}"
            commands += [
                f"optimize {pick} --out {tag}.csv",
                f"sweep {pick} --out sweep_{tag}.csv --pgm sweep_{tag}.pgm",
                f"emulate {pick} --seed 7 --out emulate_{tag}.csv --pgm emulate_{tag}.pgm",
                f"hpbw {pick} --axis azimuth",
                f"hpbw {pick} --axis elevation",
                f"ellipse {pick}",
                f"ellipse --target {target} --config {tag}.csv",
            ]
        commands += [
            f"plan --start P2 --end P1 --motion arc --alphabet {alphabet} --out arc_{alphabet}.csv",
            f"plan --start P2 --end P1 --motion line --alphabet {alphabet}",
            f"plan --start P2 --motion radial --distance 0.8 --alphabet {alphabet}",
        ]
    negative_zero = _NEGATIVE_ZERO[1]
    commands += [
        "sweep --all-off --out all_off.csv",
        "emulate --all-off --seed 7 --out all_off_meas.csv --pgm all_off_meas.pgm",
        "emulate --target P1 --no-noise --out no_noise_P1.csv",
        "sweep --off-structural --points-compat --out off_structural.csv --pgm off_structural.pgm",
        f"sweep --config {negative_zero} --out sweep_negative_zero.csv",
        f"hpbw --target P1 --axis azimuth --config {negative_zero}",
        f"ellipse --target P1 --config {negative_zero}",
        "compare sweep_reflective_P1.csv emulate_reflective_P1.csv",
        "compare sweep_active_P2.csv emulate_active_P2.csv --floor-dbm -80",
        "optimize --target 0,0,0",
        "sweep --target P1 --max-dbm inf --pgm bad_levels.pgm --out bad_levels.csv",
    ]
    for scenario in GOLDEN_INPUTS:
        commands += [
            f"--scenario {scenario} sweep --target P1 --out sweep_{Path(scenario).stem}.csv",
            f"--scenario {scenario} ellipse --target P1",
        ]
    return commands


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_golden_commands() -> dict:
    """Run the golden command set in process in the working directory.

    Every path is relative, so no output names the directory, and every
    command writes files of its own. Returns, per command line, its exit code
    and the sha256 of its stdout, its stderr and each file it writes.
    """
    for name, text in GOLDEN_INPUTS.items():
        Path(name).write_text(text)
    results = {}
    for line in _golden_commands():
        before = set(os.listdir())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_dispatch(line.split())
        written = sorted(set(os.listdir()) - before)
        results[line] = {
            "exit": code,
            "stdout": _sha256(out.getvalue().encode()),
            "stderr": _sha256(err.getvalue().encode()),
            "files": {name: _sha256(Path(name).read_bytes()) for name in written},
        }
        source, target = _NEGATIVE_ZERO
        if source in written:
            Path(target).write_text(Path(source).read_text().replace(",1,0,0\n", ",1,-0,0\n"))
    return results


def _hex(*values) -> str:
    return " ".join(float(v).hex() for v in values)


def golden_model_results() -> dict:
    """Full-precision results of the default setup, which the 6-digit CLI outputs round away.

    Per alphabet and target: the configuration fingerprint, the sha256 of the
    sweep and emulated grids' float64 bytes, both beamwidths and the focus
    ellipse as float.hex text; per alphabet, the sha256 of the arc schedule.
    """
    doc = load_scenario(None)
    scenario = doc.scenario
    results = {}
    for alphabet_name in ("reflective", "active"):
        alphabet = doc.alphabets[alphabet_name]
        for name in ("P1", "P2"):
            target = doc.targets[name]
            config = optimize_config(scenario, spherical_to_cartesian(target), alphabet)
            tag = f"{alphabet_name} {name}"
            grids = (
                sweep_power(scenario, config, doc.grid),
                emulate_measurement_grid(scenario, config, doc.grid, doc.sounder),
            )
            ellipse = focus_ellipse(scenario, config, target)
            c = ellipse.center
            results[f"config {tag}"] = config_fingerprint(config)
            results[f"sweep {tag}"] = _sha256(grids[0].values.tobytes())
            results[f"emulate {tag}"] = _sha256(grids[1].values.tobytes())
            results[f"hpbw {tag}"] = _hex(
                hpbw(scenario, config, target, "azimuth"), hpbw(scenario, config, target, "elevation")
            )
            results[f"ellipse {tag}"] = _hex(
                ellipse.rho_a, ellipse.rho_r, ellipse.alpha_deg, ellipse.beta_deg, c.x, c.y, c.z
            )
        trajectory = Trajectory(arc_waypoints(doc.targets["P2"], doc.targets["P1"]), 1.0)
        schedule = plan_updates(scenario, trajectory, alphabet)
        events = [
            f"{_hex(e.t_s, e.position.x, e.position.y, e.position.z, e.rho_a, e.rho_r)} {e.config_hash}"
            for e in schedule.events
        ]
        results[f"plan arc {alphabet_name}"] = _sha256("\n".join(events).encode())
    return results


def script_output_hashes(outdir: Path) -> dict:
    return {p.name: _sha256(p.read_bytes()) for p in sorted(Path(outdir).iterdir())}


def child_env() -> dict:
    """The environment of a child process that imports the same rissim as the tests."""
    src = str(Path(rissim.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_script(name: str, *args) -> subprocess.CompletedProcess:
    """`python scripts/NAME ARGS` in a child that imports the same rissim as the tests."""
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, env=child_env()
    )


def golden_environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def assert_matches_golden(section: str, got: dict) -> None:
    """Compare got with one section of the golden manifest, naming what differs.

    The message says so when the manifest was recorded under another Python,
    numpy or platform, since the bits may then differ without a fault.
    """
    manifest = json.loads(GOLDEN_PATH.read_text())
    want = manifest[section]
    differ = [key for key in {**want, **got} if want.get(key) != got.get(key)]
    if not differ:
        return
    message = f"{len(differ)} of {len(want)} golden {section} entries differ, first {differ[:5]}"
    if manifest["environment"] != golden_environment():
        message += (
            f"; the manifest was recorded under {manifest['environment']}, "
            f"this run is {golden_environment()}"
        )
    raise AssertionError(message)


def regenerate_golden_outputs() -> None:
    """Rewrite the golden manifest from the code as it stands: the CLI set, the
    full-precision model results and both scripts.

    From the repository root:
    PYTHONPATH=src:tests python -c "import helpers; helpers.regenerate_golden_outputs()"
    """
    manifest = {"environment": golden_environment(), "model": golden_model_results()}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            manifest["cli"] = run_golden_commands()
        finally:
            os.chdir(home)
        for script in ("run_update_planning.py", "run_power_patterns.py"):
            outdir = Path(tmp) / script
            cp = run_script(script, "--outdir", str(outdir))
            if cp.returncode != 0:
                raise RuntimeError(cp.stderr)
            manifest[script] = script_output_hashes(outdir)
    GOLDEN_PATH.write_text(json.dumps(manifest, indent=1) + "\n")
