"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `[criterion NN] PASS/FAIL` line with the measured
numbers before asserting, so a full run documents every criterion either way.
"""
import math

import numpy as np
import pytest

from helpers import brute_force_config, linear_mean_dbm, make_random_scenario
from rissim.cli import cli_dispatch
from rissim.geom import Vec3, hex_layout, spherical_to_cartesian
from rissim.linkbudget import element_phasor_matrix, received_power
from rissim.optimizer import (
    ACTIVE,
    REFLECTIVE,
    optimize_config,
    uniform_config,
)
from rissim.planner import (
    Trajectory,
    arc_waypoints,
    plan_updates,
    rho_azimuth,
    rho_radial,
    update_interval,
)
from rissim.sweep import (
    SounderParams,
    emulate_measurement_grid,
    find_peak,
    hpbw,
    sweep_power,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_noise_floor(capsys):
    code = cli_dispatch(
        ["noise-floor", "--temp-k", "293", "--bw-mhz", "155", "--q", "50", "--nf-db", "9"]
    )
    out = capsys.readouterr().out.strip()
    value = float(out.split()[0])
    ok = code == 0 and abs(value - (-100.0)) <= 0.2
    with capsys.disabled():
        _report(1, ok, f"noise-floor prints {out!r} (want -100.0 dBm +/- 0.2)")


def test_criterion_02_layout():
    layout = hex_layout(6, 8.7e-3, 6.6e-3, 6.6e-3)
    pos = layout.positions
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    dist[np.diag_indices(len(layout))] = np.inf
    min_dist = float(dist.min())
    ok = len(layout) == 127 and abs(min_dist - 8.7e-3) <= 1e-12
    _report(
        2,
        ok,
        f"rings=6 pitch=8.7mm -> {len(layout)} elements, min spacing {min_dist * 1e3:.9f} mm",
    )


def test_criterion_03_reflective_focusing(sweep_refl_p1, sweep_refl_p2, p1, p2):
    failures = []
    details = []
    for label, grid, target, level in (
        ("P1", sweep_refl_p1, p1, -57.0),
        ("P2", sweep_refl_p2, p2, -56.0),
    ):
        peak = find_peak(grid)
        proj = spherical_to_cartesian(target)
        offset = math.hypot(peak.x - proj.x, peak.y - proj.y)
        details.append(
            f"{label}: peak {peak.power_dbm:.2f} dBm (want {level} +/- 3) at "
            f"({peak.x:.2f}, {peak.y:.2f}), {offset * 100:.1f} cm from the target projection"
        )
        if abs(peak.power_dbm - level) > 3.0:
            failures.append(f"{label} peak level out of band")
        if offset > 0.02 + 1e-12:
            failures.append(f"{label} peak more than one cell from the target")
    _report(3, not failures, "; ".join(details + failures))


def test_criterion_04_active_focusing(
    sweep_active_p1, sweep_active_p2, sweep_refl_p1, sweep_refl_p2
):
    failures = []
    details = []
    for label, active_grid, refl_grid in (
        ("P1", sweep_active_p1, sweep_refl_p1),
        ("P2", sweep_active_p2, sweep_refl_p2),
    ):
        active_peak = find_peak(active_grid).power_dbm
        refl_peak = find_peak(refl_grid).power_dbm
        gain = active_peak - refl_peak
        details.append(f"{label}: active {active_peak:.2f} dBm, gain over reflective {gain:.2f} dB")
        if abs(active_peak - (-52.0)) > 3.0:
            failures.append(f"{label} active peak out of band")
        if not (3.0 <= gain <= 8.0 and gain >= 4.0):
            failures.append(f"{label} active gain outside [4, 8] dB")
    _report(4, not failures, "; ".join(details + failures))


def test_criterion_05_hpbw(scenario, active_p2, p2):
    alpha = hpbw(scenario, active_p2, p2, "azimuth")
    beta = hpbw(scenario, active_p2, p2, "elevation")
    ok = abs(alpha - 8.0) <= 2.0 and abs(beta - 7.0) <= 2.0
    _report(5, ok, f"active focus at P2: alpha {alpha:.2f} deg (8 +/- 2), beta {beta:.2f} deg (7 +/- 2)")


def test_criterion_06_focus_ellipse_formulas():
    rho_a = rho_azimuth(1.4, 8.0)
    rho_r = rho_radial(0.0, -0.39, 16.0, 7.0)
    oracle_a = 1.4 * math.tan(math.radians(4.0))
    oracle_r = 0.5 * (
        0.39 / math.tan(math.radians(12.5)) - 0.39 / math.tan(math.radians(19.5))
    )
    ok = (
        abs(rho_a - 0.098) <= 0.002
        and abs(rho_r - 0.329) <= 0.005
        and abs(rho_a - oracle_a) <= 1e-12
        and abs(rho_r - oracle_r) <= 1e-12
    )
    _report(
        6,
        ok,
        f"rho_a(1.4 m, 8 deg) = {rho_a:.4f} m (0.098 +/- 0.002); "
        f"rho_r(0.39 m, 16 deg, 7 deg) = {rho_r:.4f} m (0.329 +/- 0.005, scalar oracle match)",
    )


def test_criterion_07_update_intervals(scenario, doc):
    exact = update_interval(0.09, 1.0) == 0.09 and update_interval(0.40, 1.0) == 0.40
    waypoints = arc_waypoints(doc.targets["P2"], doc.targets["P1"])
    schedule = plan_updates(scenario, Trajectory(waypoints, 1.0), ACTIVE)
    mean = schedule.mean_interval_s
    ok = exact and mean is not None and abs(mean - 0.090) <= 0.020
    _report(
        7,
        ok,
        f"update_interval exact: {exact}; az-arc mean interval {mean * 1000:.1f} ms "
        f"over {len(schedule.events)} events (90 +/- 20 ms)",
    )


def test_criterion_08_optimizer_against_brute_force():
    rng = np.random.default_rng(20240831)
    mismatches = 0
    exceeds = 0
    total = 0
    for alphabet in (REFLECTIVE, ACTIVE):
        for _ in range(100):
            m_count = int(rng.integers(2, 13))
            scenario, target = make_random_scenario(rng, m_count)
            best = brute_force_config(scenario, target, alphabet)
            found = optimize_config(scenario, target, alphabet)
            g = element_phasor_matrix(scenario, target.as_array()[None, :])[0]
            b_obj = float(abs(np.sum(best.as_complex_array * g)) ** 2)
            f_obj = float(abs(np.sum(found.as_complex_array * g)) ** 2)
            total += 1
            if f_obj > b_obj * (1 + 1e-9):
                exceeds += 1
            if abs(f_obj - b_obj) > 1e-12 * b_obj:
                mismatches += 1
            # discarded draw: keeps this seed's stream, and so its 200
            # instances, the ones the criterion has always been judged on
            rng.integers(0, len(alphabet.states), m_count)
    ok = mismatches == 0 and exceeds == 0
    _report(
        8,
        ok,
        f"{total} random instances: objective equals brute force within 1e-12 relative in "
        f"{total - mismatches} (need all), exceeds brute force {exceeds}x",
    )


def test_criterion_09_measurement_emulation(scenario, doc, refl_p1, sweep_refl_p1):
    quiet = emulate_measurement_grid(
        scenario, refl_p1, doc.grid, SounderParams(noise_enabled=False)
    )
    max_dev = float(np.max(np.abs(quiet.values - sweep_refl_p1.values)))

    from rissim.linkbudget import ReflectionCoefficient

    all_off = uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")
    noise_grid = emulate_measurement_grid(scenario, all_off, doc.grid, SounderParams(rng_seed=9))
    mean_floor = linear_mean_dbm(noise_grid.values)

    off_state = doc.alphabets["off_structural"].states[0]
    off_cfg = uniform_config(scenario.layout, off_state, "off_structural")
    off_grid = emulate_measurement_grid(scenario, off_cfg, doc.grid, SounderParams(rng_seed=9))
    off_peak = find_peak(off_grid)
    off_azimuth = math.degrees(math.atan2(off_peak.y, off_peak.x))

    ok = (
        max_dev < 1e-9
        and abs(mean_floor - (-100.0)) <= 1.0
        and abs(off_peak.power_dbm - (-80.0)) <= 3.0
        and abs(off_azimuth - 36.0) <= 5.0
    )
    _report(
        9,
        ok,
        f"noise-off emulation deviates {max_dev:.2e} dB from the sweep; all-off grid mean "
        f"{mean_floor:.2f} dBm (-100 +/- 1); powered-off peak {off_peak.power_dbm:.2f} dBm at "
        f"azimuth {off_azimuth:.1f} deg (want -80 +/- 3 near 36 deg)",
    )


def test_criterion_10_determinism(tmp_path, capsys, scenario, refl_p1, doc):
    runs: dict[str, list] = {}
    for tag in ("a", "b"):
        base = tmp_path / tag
        base.mkdir()
        outputs = []
        commands = [
            ["layout", "--rings", "6", "--pitch-mm", "8.7", "--out", str(base / "layout.csv")],
            ["optimize", "--target", "P1", "--alphabet", "reflective",
             "--out", str(base / "config.csv")],
            ["sweep", "--config", str(base / "config.csv"), "--out", str(base / "sweep.csv"),
             "--pgm", str(base / "sweep.pgm")],
            ["emulate", "--all-off", "--seed", "11", "--out", str(base / "emulate.csv")],
            ["hpbw", "--target", "P2", "--alphabet", "active", "--axis", "azimuth"],
            ["ellipse", "--target", "P2", "--alphabet", "active"],
            ["plan", "--start", "P2", "--end", "P1", "--motion", "arc", "--speed", "1",
             "--alphabet", "active", "--out", str(base / "schedule.csv")],
            ["compare", str(base / "sweep.csv"), str(base / "sweep.csv")],
            ["noise-floor", "--temp-k", "293", "--bw-mhz", "155", "--q", "50", "--nf-db", "9"],
        ]
        for argv in commands:
            code = cli_dispatch(argv)
            captured = capsys.readouterr()
            assert code == 0, f"{argv} -> {code}: {captured.err}"
            outputs.append((argv[0], captured.out))
        for name in ("layout.csv", "config.csv", "sweep.csv", "sweep.pgm",
                     "emulate.csv", "schedule.csv"):
            outputs.append((name, (base / name).read_bytes()))
        runs[tag] = outputs

    mismatched = [
        name for (name, a), (_, b) in zip(runs["a"], runs["b"]) if a != b
    ]

    # chunking independence: rows of 46 positions per kernel call against
    # one position per call
    swept = sweep_power(scenario, refl_p1, doc.grid).values
    single = np.array([
        [received_power(scenario, refl_p1, Vec3(*doc.grid.cell_xy(i, j), doc.grid.z_plane))
         for j in range(doc.grid.ny)]
        for i in range(doc.grid.nx)
    ])
    sweeps_equal = bool(np.array_equal(swept, single))

    ok = not mismatched and sweeps_equal
    with capsys.disabled():
        _report(
            10,
            ok,
            f"repeated CLI runs byte-identical across {len(runs['a'])} outputs"
            + (f" (mismatches: {mismatched})" if mismatched else "")
            + f"; row sweep bit-equal to single-cell evaluation: {sweeps_equal}",
        )
