"""Power patterns over the positioning-table plane and beamwidth extraction.

sweep_power evaluates the deterministic model on a rectangular grid;
emulate_measurement_grid reproduces the sounder pipeline instead: per cell it
synthesizes Q impulse-response records (deterministic signal tap plus complex
white noise calibrated to the thermal floor) and averages them coherently,

    P(x, y) = P_tx / Q * | sum_{n=n1..n2} sum_{q=1..Q} h_q[n] |^2.

Grid cells are independent; rows may be evaluated concurrently. The noise
generator is seeded per cell from (seed, i, j) so parallel and serial runs
are bit-identical.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BeamNotResolvedError, NoPeakError, ValidationError
from .geom import SphericalCoord
from .linkbudget import (
    BELOW_FLOOR_DBM,
    _BELOW_FLOOR_MW,
    RisConfig,
    Scenario,
    coherent_sums,
    db_to_linear,
    is_below_floor,
    linear_mw_to_dbm,
    noise_floor,
    prefactor_mw,
    scenario_fingerprint,
)

_HALF_POWER_DB = 3.0
_HPBW_STEP_DEG = 0.1
_HPBW_WINDOW_DEG = 45.0


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid on the horizontal plane z = z_plane."""

    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int
    z_plane: float

    def __post_init__(self):
        if not (self.dx > 0.0 and self.dy > 0.0):
            raise ValidationError("grid steps must be > 0")
        if self.nx < 1 or self.ny < 1:
            raise ValidationError("grid must contain at least one cell")

    @staticmethod
    def default() -> "GridSpec":
        """31 x 46 cells, 2 cm steps: x in [0.92, 1.52], y in [0.02, 0.92], z = -0.39."""
        return GridSpec(x0=0.92, y0=0.02, dx=0.02, dy=0.02, nx=31, ny=46, z_plane=-0.39)

    def x_coords(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def y_coords(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def cell_xy(self, i: int, j: int) -> tuple[float, float]:
        return self.x0 + self.dx * i, self.y0 + self.dy * j


@dataclass(frozen=True, eq=False)
class PowerGrid:
    """Received power in dBm, values[i, j] at (x0 + i dx, y0 + j dy, z_plane)."""

    spec: GridSpec
    values: np.ndarray
    label: str = ""
    fingerprint: str = ""

    def __post_init__(self):
        if self.values.shape != (self.spec.nx, self.spec.ny):
            raise ValidationError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.spec.nx}, {self.spec.ny})"
            )
        self.values.flags.writeable = False


@dataclass(frozen=True)
class SounderParams:
    """Measurement-pipeline emulation parameters.

    averages is the record count Q; the impulse-response window spans taps
    [window_start, window_stop]. noise_enabled=False is the zero-noise switch
    used to validate the pipeline against the deterministic sweep.
    """

    averages: int = 50
    window_start: int = 7
    window_stop: int = 13
    noise_figure_db: float = 9.0
    temperature_k: float = 293.0
    bandwidth_hz: float = 155e6
    rng_seed: int = 0
    noise_enabled: bool = True

    def __post_init__(self):
        if self.averages < 1:
            raise ValidationError("averages must be >= 1")
        if not 1 <= self.window_start <= self.window_stop:
            raise ValidationError("window taps must satisfy 1 <= start <= stop")


class Peak(NamedTuple):
    x: float
    y: float
    power_dbm: float
    i: int
    j: int


@dataclass(frozen=True)
class GridComparison:
    peak_offset_m: float
    peak_delta_db: float
    rmse_db: float
    threshold_dbm: float


def _row_positions(grid: GridSpec, i: int) -> np.ndarray:
    x = grid.x0 + grid.dx * i
    pts = np.empty((grid.ny, 3))
    pts[:, 0] = x
    pts[:, 1] = grid.y_coords()
    pts[:, 2] = grid.z_plane
    return pts


def _dbm_from_sums(scenario: Scenario, sums: np.ndarray) -> np.ndarray:
    p_mw = prefactor_mw(scenario) * (sums.real**2 + sums.imag**2)
    with np.errstate(divide="ignore"):
        dbm = 10.0 * np.log10(p_mw)
    return np.where(p_mw <= _BELOW_FLOOR_MW, BELOW_FLOOR_DBM, dbm)


def sweep_power(
    scenario: Scenario,
    config: RisConfig,
    grid: GridSpec,
    workers: int = 1,
    label: str = "",
) -> PowerGrid:
    """Deterministic received-power map; independent of evaluation order."""

    def row(i: int) -> np.ndarray:
        return _dbm_from_sums(scenario, coherent_sums(scenario, config, _row_positions(grid, i)))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(row, range(grid.nx)))
    else:
        rows = [row(i) for i in range(grid.nx)]
    return PowerGrid(grid, np.vstack(rows), label=label, fingerprint=scenario_fingerprint(scenario))


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
    return linear_mw_to_dbm(p_mw)


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


def emulate_measurement_grid(
    scenario: Scenario,
    config: RisConfig,
    grid: GridSpec,
    sounder: SounderParams,
    workers: int = 1,
    label: str = "",
) -> PowerGrid:
    """Synthetic sounder measurement over the grid; reproducible per rng_seed."""
    pref = prefactor_mw(scenario)
    tx_mw = db_to_linear(scenario.tx_power_dbm)
    q = sounder.averages
    n1, n2 = sounder.window_start, sounder.window_stop
    mid = (n1 + n2) // 2
    taps = n2 + 1
    sigma2 = _noise_tap_variance_mw(scenario, sounder) if sounder.noise_enabled else 0.0
    scale = math.sqrt(sigma2 / 2.0)

    def row(i: int) -> np.ndarray:
        sums = coherent_sums(scenario, config, _row_positions(grid, i))
        out = np.empty(grid.ny)
        for j in range(grid.ny):
            a = sums[j]
            mag2 = a.real * a.real + a.imag * a.imag
            if mag2 > 0.0:
                # signal tap amplitude chosen so the noise-free pipeline
                # returns exactly the deterministic received power
                s = math.sqrt(pref * mag2 / (tx_mw * q)) * (a / abs(a))
            else:
                s = 0.0
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=sounder.rng_seed, spawn_key=(i, j))
            )
            records = scale * (
                rng.standard_normal((q, taps)) + 1j * rng.standard_normal((q, taps))
            )
            records[:, mid] += s
            out[j] = average_ir_power(records, n1, n2, scenario.tx_power_dbm)
        return out

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(row, range(grid.nx)))
    else:
        rows = [row(i) for i in range(grid.nx)]
    return PowerGrid(grid, np.vstack(rows), label=label, fingerprint=scenario_fingerprint(scenario))


def find_peak(grid: PowerGrid) -> Peak:
    """Location and value of the maximum cell; ties take the smallest (i, j)."""
    flat = int(np.argmax(grid.values))  # C order: first max has smallest (i, j)
    i, j = divmod(flat, grid.spec.ny)
    value = float(grid.values[i, j])
    if is_below_floor(value):
        raise NoPeakError("no peak: every cell is below the power floor")
    x, y = grid.spec.cell_xy(i, j)
    return Peak(x, y, value, i, j)


def _arc_positions(target: SphericalCoord, axis: str, offsets_deg: np.ndarray) -> np.ndarray:
    az = np.full_like(offsets_deg, target.azimuth_deg)
    el = np.full_like(offsets_deg, target.elevation_deg)
    if axis == "azimuth":
        az = az + offsets_deg
    else:
        el = el + offsets_deg
    az_r, el_r = np.radians(az), np.radians(el)
    return target.r * np.stack(
        [np.cos(el_r) * np.cos(az_r), np.cos(el_r) * np.sin(az_r), np.sin(el_r)], axis=-1
    )


def hpbw(
    scenario: Scenario, config: RisConfig, target: SphericalCoord, axis: str
) -> float:
    """Half-power beamwidth (degrees) along a constant-range arc through the target.

    Walks the arc in 0.1 degree steps out to +/-45 degrees, takes the sampled
    maximum as the beam center and linearly interpolates the two crossings
    3 dB below it. The definition is relative, so constant power offsets do
    not change the result.
    """
    if axis not in ("azimuth", "elevation"):
        raise ValidationError(f"axis must be 'azimuth' or 'elevation', got {axis!r}")
    n = int(round(_HPBW_WINDOW_DEG / _HPBW_STEP_DEG))
    offsets = (np.arange(2 * n + 1) - n) * _HPBW_STEP_DEG
    if axis == "elevation":
        valid = (target.elevation_deg + offsets >= -90.0) & (
            target.elevation_deg + offsets <= 90.0
        )
        offsets = offsets[valid]
    powers = _dbm_from_sums(
        scenario, coherent_sums(scenario, config, _arc_positions(target, axis, offsets))
    )
    k = int(np.argmax(powers))
    ref = powers[k] - _HALF_POWER_DB

    lo = hi = None
    for t in range(k, 0, -1):
        if powers[t - 1] < ref <= powers[t]:
            frac = (powers[t] - ref) / (powers[t] - powers[t - 1])
            lo = offsets[t] - frac * _HPBW_STEP_DEG
            break
    for t in range(k, len(powers) - 1):
        if powers[t + 1] < ref <= powers[t]:
            frac = (powers[t] - ref) / (powers[t] - powers[t + 1])
            hi = offsets[t] + frac * _HPBW_STEP_DEG
            break
    if lo is None or hi is None:
        raise BeamNotResolvedError(
            f"beam not resolved: no -3 dB crossing within +/-{_HPBW_WINDOW_DEG} deg "
            f"({axis} cut)"
        )
    return float(hi - lo)


def compare_grids(a: PowerGrid, b: PowerGrid, threshold_dbm: float = -90.0) -> GridComparison:
    """Peak offset/delta and RMSE over cells where both grids exceed a floor."""
    if a.spec != b.spec:
        raise ValidationError("grids have different specifications")
    peak_a = find_peak(a)
    peak_b = find_peak(b)
    offset = math.hypot(peak_b.x - peak_a.x, peak_b.y - peak_a.y)
    delta = peak_b.power_dbm - peak_a.power_dbm
    mask = (a.values > threshold_dbm) & (b.values > threshold_dbm)
    if np.any(mask):
        diff = a.values[mask] - b.values[mask]
        rmse = float(np.sqrt(np.mean(diff * diff)))
    else:
        rmse = float("nan")
    return GridComparison(offset, float(delta), rmse, threshold_dbm)
