"""The three benchmark workloads, driven through rissim's public functions.

Each workload loads its scenario in `__init__` (counted as set-up), makes
its inputs from the seed in `make_inputs` (before timing), and in `run_pass`
produces every output, checks it and returns the digest of the outputs.
Pass k and pass k + period get identical inputs. Why each workload exists,
and which layers it stresses or bypasses, is in README.md.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from rissim.geom import SphericalCoord, Vec3, spherical_to_cartesian
from rissim.io_cli import (
    export_heatmap,
    load_scenario,
    read_power_grid_csv,
    resolve_scenario,
    write_power_grid_csv,
)
from rissim.linkbudget import ReflectionCoefficient, coherent_sums, prefactor_mw
from rissim.optimizer import optimize_config, uniform_config
from rissim.planner import Trajectory, focus_ellipse, plan_updates
from rissim.sweep import SounderParams, emulate_measurement_grid, find_peak, sweep_power

from spans import PLANNER_TIME_STEP_S

ALPHABETS = ("reflective", "active")
SAMPLED_CELLS = 8  # reference-checked cells per swept grid, plus the emulated peak
SAMPLED_ENTRIES = 12  # reference-checked cross-gain entries per surface
SPEED_MPS = 1.0
HEATMAP_RANGE_DBM = (-100.0, -50.0)

# Table area of the default scenario (the default grid's extent), meters.
TABLE_X = (0.92, 1.52)
TABLE_Y = (0.02, 0.92)
TABLE_Z = -0.39


@dataclass
class Ledger:
    """Operations attempted and failed; an operation is one output with its check."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(name)

    def crash(self, planned: int, done: int, exc: BaseException) -> None:
        """A pass raised: its remaining operations count as attempted and failed."""
        missing = max(planned - done, 1)
        self.attempted += missing
        self.failed += missing
        if len(self.failures) < 10:
            self.failures.append(f"{type(exc).__name__}: {exc}")


def _xyz(v: Vec3) -> tuple[float, float, float]:
    return (v.x, v.y, v.z)


def _optimize_checked(ledger, scenario, point: Vec3, alphabet):
    config = optimize_config(scenario, point, alphabet)
    one_opt, gain = checks.focus_gain_db(scenario, config, alphabet, _xyz(point))
    ledger.check(f"optimize_config 1-opt at {_xyz(point)} ({alphabet.name})", one_opt)
    ledger.gains.append(gain)
    return config


class Patterns:
    """The power-pattern study of scripts/run_power_patterns.py, in-process."""

    name = "patterns"
    unit = "grid cells"
    period = 1  # passes after which the outputs repeat

    def __init__(self, outdir: Path):
        self.doc = load_scenario(None)
        self.outdir = outdir

    def make_inputs(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        grid = self.doc.grid
        self.sounder = SounderParams(rng_seed=seed)
        self.cells = [
            (int(i), int(j))
            for i, j in zip(rng.integers(0, grid.nx, SAMPLED_CELLS), rng.integers(0, grid.ny, SAMPLED_CELLS))
        ]
        self.cases = 2 + len(self.doc.targets) * len(ALPHABETS)
        # per case: sweep, emulate, 2 CSV, 2 PGM; per focusing case: optimize
        self.planned = 6 * self.cases + len(self.doc.targets) * len(ALPHABETS)
        self.work = 2 * self.cases * grid.nx * grid.ny

    def run_pass(self, ledger: Ledger, span) -> str:
        doc, scenario = self.doc, self.doc.scenario
        cases = [
            ("no_ris", uniform_config(scenario.layout, ReflectionCoefficient(0.0, 0.0), "all_off")),
            (
                "powered_off",
                uniform_config(scenario.layout, doc.alphabets["off_structural"].states[0], "off_structural"),
            ),
        ]
        for name in sorted(doc.targets):
            target = spherical_to_cartesian(doc.targets[name])
            for alphabet_name in ALPHABETS:
                config = _optimize_checked(ledger, scenario, target, doc.alphabets[alphabet_name])
                cases.append((f"{alphabet_name}_{name}", config))

        digest = hashlib.sha256()
        for name, config in cases:
            sim = sweep_power(scenario, config, doc.grid, label=f"sim:{name}")
            meas = emulate_measurement_grid(scenario, config, doc.grid, self.sounder, label=f"meas:{name}")
            for kind, grid in (("sim", sim), ("meas", meas)):
                csv_path = self.outdir / f"{name}_{kind}.csv"
                pgm_path = self.outdir / f"{name}_{kind}.pgm"
                with open(csv_path, "w", newline="") as f:
                    write_power_grid_csv(grid, f)
                export_heatmap(grid, *HEATMAP_RANGE_DBM, pgm_path)
                with span("bench.check"):
                    with open(csv_path, newline="") as f:
                        read_back = read_power_grid_csv(f)
                    ledger.check(f"{csv_path.name} reads back", checks.check_csv_roundtrip(grid, read_back))
                    pgm = pgm_path.read_bytes()
                    ledger.check(f"{pgm_path.name} is a PGM of the grid", checks.check_pgm(pgm, grid))
                with span("bench.digest"):
                    digest.update(csv_path.read_bytes())
                    digest.update(pgm)
            peak = find_peak(meas)
            with span("bench.check"):
                cells = self.cells + [(peak.i, peak.j)]
                ledger.check(f"sweep {name} vs reference", checks.check_grid_cells(scenario, config, sim, cells))
                ok, _ = checks.check_emulation(sim, meas, self.sounder)
                ledger.check(f"emulate {name} within noise bound", ok)
        return digest.hexdigest()

    def sizes(self) -> dict:
        g = self.doc.grid
        return {"grid": [g.nx, g.ny], "cases": self.cases, "grids_per_case": 2, "cells_per_pass": self.work}


def _arc(r: float, elevation: float, az_from: float, az_to: float) -> tuple[Vec3, ...]:
    n = max(1, int(math.ceil(abs(az_to - az_from) / 0.5)))
    return tuple(
        spherical_to_cartesian(SphericalCoord(r, float(az), elevation))
        for az in np.linspace(az_from, az_to, n + 1)
    )


def _radial(start: Vec3, distance: float) -> tuple[Vec3, ...]:
    h = math.hypot(start.x, start.y)
    return (start, Vec3(start.x + distance * start.x / h, start.y + distance * start.y / h, start.z))


def _in_table(x: float, y: float) -> bool:
    return TABLE_X[0] <= x <= TABLE_X[1] and TABLE_Y[0] <= y <= TABLE_Y[1]


def _path_length(waypoints) -> float:
    return sum(math.dist(_xyz(a), _xyz(b)) for a, b in zip(waypoints, waypoints[1:]))


class Planning:
    """Focus ellipses at the named targets and reconfiguration schedules.

    A pass covers one alphabet, alternating, which halves the pass time for
    a steadier median; the two alphabets cost about the same.
    """

    name = "planning"
    unit = "simulated user-seconds"
    period = len(ALPHABETS)
    ARC_SPAN_DEG = 15.0
    SEGMENT_M = 0.3

    def __init__(self, outdir: Path):
        self.doc = load_scenario(None)

    def _seeded_trajectories(self, rng) -> dict:
        # arc at constant range and elevation, on the table plane
        while True:
            h = rng.uniform(1.1, 1.45)
            az_lo = math.degrees(math.asin(TABLE_Y[0] / h))
            az_hi = math.degrees(min(math.acos(TABLE_X[0] / h), math.asin(min(TABLE_Y[1] / h, 1.0))))
            if az_hi - az_lo >= self.ARC_SPAN_DEG:
                break
        az0 = rng.uniform(az_lo, az_hi - self.ARC_SPAN_DEG)
        ends = (az0, az0 + self.ARC_SPAN_DEG) if rng.random() < 0.5 else (az0 + self.ARC_SPAN_DEG, az0)
        r = math.hypot(h, TABLE_Z)
        arc = _arc(r, math.degrees(math.atan2(TABLE_Z, h)), *ends)

        while True:  # straight segment in a random direction
            x, y = rng.uniform(*TABLE_X), rng.uniform(*TABLE_Y)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            x2, y2 = x + self.SEGMENT_M * math.cos(phi), y + self.SEGMENT_M * math.sin(phi)
            if _in_table(x2, y2):
                break
        line = (Vec3(x, y, TABLE_Z), Vec3(x2, y2, TABLE_Z))

        while True:  # outward along the bearing from the surface
            x, y = rng.uniform(*TABLE_X), rng.uniform(*TABLE_Y)
            radial = _radial(Vec3(x, y, TABLE_Z), self.SEGMENT_M)
            if _in_table(radial[1].x, radial[1].y):
                break
        return {"seeded_arc": arc, "seeded_line": line, "seeded_radial": radial}

    def make_inputs(self, seed: int) -> None:
        targets = self.doc.targets
        p2, p1 = targets["P2"], targets["P1"]
        self.trajectories = {
            "arc_p2_to_p1": _arc(p2.r, p2.elevation_deg, p2.azimuth_deg, p1.azimuth_deg),
            "radial_from_p2": _radial(spherical_to_cartesian(p2), 0.8),
            **self._seeded_trajectories(np.random.default_rng(seed)),
        }
        self._next = 0
        self.planned = 2 * len(targets) + len(self.trajectories)
        self.work = sum(_path_length(w) for w in self.trajectories.values()) / SPEED_MPS

    def run_pass(self, ledger: Ledger, span) -> str:
        doc, scenario = self.doc, self.doc.scenario
        alphabet_name = ALPHABETS[self._next]
        self._next = (self._next + 1) % len(ALPHABETS)
        digest = hashlib.sha256()
        for name in sorted(doc.targets):
            target = doc.targets[name]
            center = spherical_to_cartesian(target)
            config = _optimize_checked(ledger, scenario, center, doc.alphabets[alphabet_name])
            ellipse = focus_ellipse(scenario, config, target)
            with span("bench.check"):
                ok = (
                    math.dist(_xyz(ellipse.center), _xyz(center)) <= 1e-9
                    and 0.0 < ellipse.rho_a < math.inf
                    and 0.0 < ellipse.rho_r < math.inf
                )
                ledger.check(f"focus_ellipse {name} ({alphabet_name})", ok)
            digest.update(repr((name, alphabet_name, ellipse.rho_a, ellipse.rho_r)).encode())
        for name, waypoints in self.trajectories.items():
            schedule = plan_updates(
                scenario,
                Trajectory(waypoints, SPEED_MPS),
                doc.alphabets[alphabet_name],
                time_step_s=PLANNER_TIME_STEP_S,
            )
            with span("bench.check"):
                ok = checks.check_schedule(
                    schedule.events, [_xyz(w) for w in waypoints], SPEED_MPS, PLANNER_TIME_STEP_S
                )
                ledger.check(f"schedule {name} ({alphabet_name}) ellipse exits", ok)
            with span("bench.digest"):
                for e in schedule.events:
                    digest.update(
                        repr((e.t_s, _xyz(e.position), e.config_hash, e.rho_a, e.rho_r)).encode()
                    )
        return digest.hexdigest()

    def sizes(self) -> dict:
        return {
            "trajectories": {k: round(_path_length(w), 6) for k, w in self.trajectories.items()},
            "alphabets": list(ALPHABETS),
            "alphabets_per_pass": 1,
            "speed_mps": SPEED_MPS,
            "simulated_s_per_pass": self.work,
        }


class Codebook:
    """Per-target focusing configurations and their cross-gain matrices.

    The seed draws BATCHES batches of targets and each pass computes one
    batch, cycling, so a run covers the whole codebook many times while its
    passes stay short enough to give a steady median.
    """

    name = "codebook"
    unit = "optimized targets"
    BATCHES = 4
    # Targets per batch and surface size (elements): one uniform draw in each
    # cell of an (x, y) grid of strata over the table. Stratifying keeps the
    # mean focus gain and the search cost from swinging with the seed.
    STRATA = {127: (4, 4), 469: (1, 2)}

    def __init__(self, outdir: Path):
        small = load_scenario(None)
        # 12 rings at the same pitch: 469 elements
        large = resolve_scenario({"ris": {"rings": 12}})
        self.surfaces = {len(d.scenario.layout): d for d in (small, large)}

    def _batch(self, rng) -> dict:
        batch = {}
        for m, (nx, ny) in self.STRATA.items():
            dx = (TABLE_X[1] - TABLE_X[0]) / nx
            dy = (TABLE_Y[1] - TABLE_Y[0]) / ny
            targets = [
                Vec3(TABLE_X[0] + (i + rng.random()) * dx, TABLE_Y[0] + (j + rng.random()) * dy, TABLE_Z)
                for i in range(nx)
                for j in range(ny)
            ]
            n = len(targets)
            entries = list(
                zip(rng.integers(0, len(ALPHABETS) * n, SAMPLED_ENTRIES), rng.integers(0, n, SAMPLED_ENTRIES))
            )
            batch[m] = (targets, entries)
        return batch

    def make_inputs(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.batches = [self._batch(rng) for _ in range(self.BATCHES)]
        self.period = self.BATCHES
        self._next = 0
        n_targets = sum(nx * ny for nx, ny in self.STRATA.values())
        self.planned = len(ALPHABETS) * n_targets + len(self.STRATA)
        self.work = len(ALPHABETS) * n_targets

    def run_pass(self, ledger: Ledger, span) -> str:
        batch = self.batches[self._next]
        self._next = (self._next + 1) % self.BATCHES
        digest = hashlib.sha256()
        for m, doc in self.surfaces.items():
            scenario = doc.scenario
            targets, entries = batch[m]
            configs = [_optimize_checked(ledger, scenario, t, doc.alphabets[a]) for t in targets for a in ALPHABETS]
            positions = np.array([_xyz(t) for t in targets])
            sums = np.vstack([coherent_sums(scenario, c, positions) for c in configs])
            with np.errstate(divide="ignore"):
                cross_dbm = 10.0 * np.log10(prefactor_mw(scenario) * np.abs(sums) ** 2)
            with span("bench.check"):
                ok = all(
                    checks.check_power(scenario, configs[c], _xyz(targets[t]), float(cross_dbm[c, t]))
                    for c, t in entries
                )
                ledger.check(f"cross-gain M={m} vs reference", ok)
            with span("bench.digest"):
                for c in configs:
                    digest.update(repr([(x.magnitude, x.phase_deg) for x in c.coefficients]).encode())
                digest.update(cross_dbm.tobytes())
        return digest.hexdigest()

    def sizes(self) -> dict:
        return {
            "batches": self.BATCHES,
            "targets_per_batch": {f"m{m}": nx * ny for m, (nx, ny) in self.STRATA.items()},
            "alphabets": list(ALPHABETS),
            "optimized_targets_per_pass": self.work,
        }


WORKLOADS = {w.name: w for w in (Patterns, Planning, Codebook)}
