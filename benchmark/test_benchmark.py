"""Self-tests of the benchmark: every correctness check accepts rissim's
outputs and rejects a deliberately corrupted copy, and the traced run's
top-level spans cover its wall time.

    python3 -m pytest benchmark -q
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
from rissim.geom import Vec3, spherical_to_cartesian
from rissim.io_cli import load_scenario, read_power_grid_csv, write_power_grid_csv
from rissim.linkbudget import RisConfig, received_power
from rissim.optimizer import optimize_config
from rissim.planner import Trajectory, plan_updates
from rissim.sweep import PowerGrid, SounderParams, emulate_measurement_grid, sweep_power
from workloads import WORKLOADS, Ledger, _arc

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def doc():
    return load_scenario(None)


@pytest.fixture(scope="module")
def focused(doc):
    target = spherical_to_cartesian(doc.targets["P1"])
    alphabet = doc.alphabets["active"]
    return target, alphabet, optimize_config(doc.scenario, target, alphabet)


@pytest.fixture(scope="module")
def grids(doc, focused):
    config = focused[2]
    sounder = SounderParams(rng_seed=3)
    sim = sweep_power(doc.scenario, config, doc.grid, label="sim")
    meas = emulate_measurement_grid(doc.scenario, config, doc.grid, sounder, label="meas")
    return sim, meas, sounder


def _shifted(grid: PowerGrid) -> PowerGrid:
    return PowerGrid(grid.spec, np.roll(grid.values, 1, axis=0), label=grid.label)


def _all_cells(grid):
    return [(i, j) for i in range(0, grid.spec.nx, 3) for j in range(0, grid.spec.ny, 5)]


def test_reference_matches_received_power(doc, focused):
    rng = np.random.default_rng(0)
    config = focused[2]
    for x, y in zip(rng.uniform(0.9, 1.5, 20), rng.uniform(0.0, 0.9, 20)):
        point = (float(x), float(y), -0.39)
        dbm = received_power(doc.scenario, config, Vec3(*point))
        assert checks.check_power(doc.scenario, config, point, dbm)
        assert not checks.check_power(doc.scenario, config, point, dbm + 1e-5)


def test_grid_check_rejects_shifted_grid(doc, focused, grids):
    sim = grids[0]
    config = focused[2]
    assert checks.check_grid_cells(doc.scenario, config, sim, _all_cells(sim))
    assert not checks.check_grid_cells(doc.scenario, config, _shifted(sim), _all_cells(sim))


def test_one_opt_rejects_flipped_element(doc, focused):
    target, alphabet, config = focused
    point = (target.x, target.y, target.z)
    ok, gain = checks.focus_gain_db(doc.scenario, config, alphabet, point)
    assert ok and gain > 0.0
    g = np.abs(checks.reference_phasors(doc.scenario, point))
    m = int(np.argmax(g))  # the strongest element: flipping it must cost power
    states = alphabet.states
    coeffs = list(config.coefficients)
    coeffs[m] = states[1 - states.index(coeffs[m])]
    flipped = RisConfig(tuple(coeffs), config.alphabet_name)
    assert not checks.focus_gain_db(doc.scenario, flipped, alphabet, point)[0]


def test_emulation_check_rejects_shifted_grid(grids):
    sim, meas, sounder = grids
    ok, checked = checks.check_emulation(sim, meas, sounder)
    assert ok and checked > 100
    assert not checks.check_emulation(sim, _shifted(meas), sounder)[0]


def test_emulation_bound_false_failure_rate():
    # the bound is exp(-t^2) per cell at the fixed t
    assert math.exp(-checks._EMULATION_T**2) == pytest.approx(checks.EMULATION_FALSE_FAIL_PER_CELL)


def test_csv_check_rejects_shifted_grid(grids, tmp_path):
    sim = grids[0]
    path = tmp_path / "g.csv"
    with open(path, "w", newline="") as f:
        write_power_grid_csv(sim, f)
    with open(path, newline="") as f:
        back = read_power_grid_csv(f)
    assert checks.check_csv_roundtrip(sim, back)
    assert not checks.check_csv_roundtrip(_shifted(sim), back)


def test_schedule_check_rejects_event_inside_predecessor(doc):
    p2, p1 = doc.targets["P2"], doc.targets["P1"]
    waypoints = _arc(p2.r, p2.elevation_deg, p2.azimuth_deg, p1.azimuth_deg)
    schedule = plan_updates(doc.scenario, Trajectory(waypoints, 1.0), doc.alphabets["active"], time_step_s=1e-3)
    events = list(schedule.events)
    xyz = [(w.x, w.y, w.z) for w in waypoints]
    assert len(events) > 2
    assert checks.check_schedule(events, xyz, 1.0, 1e-3)
    # move event 2 back to where the user was one step earlier: inside event 1's ellipse
    before = checks.position_at(xyz, events[2].t_s - 1e-3)
    moved = dataclasses.replace(events[2], position=dataclasses.replace(events[2].position, x=before[0], y=before[1]))
    assert not checks.check_schedule(events[:2] + [moved] + events[3:], xyz, 1.0, 1e-3)
    # an event one step late: the point one step before it is already outside
    late = dataclasses.replace(events[2], t_s=events[2].t_s + 2e-3)
    assert not checks.check_schedule(events[:2] + [late] + events[3:], xyz, 1.0, 1e-3)


def test_tracer_wraps_names_imported_elsewhere_and_restores_them():
    import rissim.optimizer
    import rissim.planner
    import rissim.sweep

    originals = (rissim.optimizer.element_phasor_matrix, rissim.sweep.coherent_sums, rissim.planner.hpbw)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = (rissim.optimizer.element_phasor_matrix, rissim.sweep.coherent_sums, rissim.planner.hpbw)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert (rissim.optimizer.element_phasor_matrix, rissim.sweep.coherent_sums, rissim.planner.hpbw) == originals


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    totals = spans.layer_totals(tracer.spans)
    assert totals["outer"]["self_s"] == pytest.approx(0.02, abs=0.015)
    assert totals["inner"]["self_s"] == pytest.approx(0.03, abs=0.015)
    assert spans.top_level_time(tracer.spans) == pytest.approx(totals["outer"]["total_s"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_is_correct_and_covered(name, tmp_path):
    workload = WORKLOADS[name](tmp_path)
    workload.make_inputs(7)
    ledger = Ledger()
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload.run_pass(ledger, tracer.span)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert ledger.failed == 0 and ledger.attempted == workload.planned
    assert spans.top_level_time(tracer.spans) >= 0.95 * wall


def test_run_refuses_a_tree_without_rissim(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "patterns", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_run_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "codebook", "--seed", "2", "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_metric_tables_match_benchmark_json():
    import run

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
