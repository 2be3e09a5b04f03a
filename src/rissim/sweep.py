"""Power patterns over the positioning-table plane and beamwidth extraction.

sweep_power evaluates the deterministic model on a rectangular grid. The
element phasors of the grid depend only on the scenario and the grid, not on
the configuration, so they are built once (one kernel call per grid row) and
cached; each configuration is then applied to them as a vector of reflection
coefficients. emulate_measurement_grid reproduces the channel sounder, which
averages Q impulse-response records coherently over the tap window [n1, n2],

    P(x, y) = P_tx / Q * | sum_{n=n1..n2} sum_{q=1..Q} h_q[n] |^2,

with each record a deterministic signal tap plus complex white noise
calibrated to the thermal floor. The window sum of the Q (n2 - n1 + 1)
Gaussian noise taps is a single complex Gaussian, so the emulator draws it
directly: one CN(0, N) value per cell added to the deterministic field, N
the closed-form floor. One generator seeded with rng_seed draws the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BeamNotResolvedError, NoPeakError, ValidationError
from .geom import SphericalCoord
from .linkbudget import (
    RisConfig,
    Scenario,
    apply_config,
    coherent_sums,
    db_to_linear,
    dbm_from_sums,
    element_phasor_matrix,
    is_below_floor,
    noise_floor,
    prefactor_mw,
    require_config_size,
    wavelength,
)

_HALF_POWER_DB = 3.0
_HPBW_STEP_DEG = 0.1
_HPBW_WINDOW_DEG = 45.0
_HPBW_COARSE_STEPS = 10  # fine samples per coarse step: 1 degree
# Rounding allowance of the peak certificate in hpbw (see its docstring).
_CERTIFICATE_RTOL = 1e-9


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
        for name in ("x0", "y0", "dx", "dy", "z_plane"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"grid {name} must be finite")
        if not (self.dx > 0.0 and self.dy > 0.0):
            raise ValidationError("grid steps must be > 0")
        if self.nx < 1 or self.ny < 1:
            raise ValidationError("grid must contain at least one cell")

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

    averages is the record count Q. The emulator draws each cell's window sum
    directly, with the closed-form noise floor noise_floor(T, B, Q, NF) as its
    variance. window_start/window_stop (the impulse-response taps
    [start, stop]) are validated and kept for compatibility with the scenario
    format, but the emulator does not read them: the window's length and
    position do not change the emulated distribution. Only the record-level
    oracle in the tests synthesizes taps over the window. noise_enabled=False
    is the zero-noise switch used to validate the emulator against the
    deterministic sweep.
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
        # raises unless the closed-form floor exists, averages >= 1 included
        noise_floor(self.temperature_k, self.bandwidth_hz, self.averages, self.noise_figure_db)
        if not 1 <= self.window_start <= self.window_stop:
            raise ValidationError("window taps must satisfy 1 <= start <= stop")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")


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


@lru_cache(maxsize=1)
def _grid_phasors(scenario: Scenario, grid: GridSpec) -> np.ndarray:
    """(nx, ny, M) read-only element phasors of every grid cell, one kernel call per row.

    The array depends on the geometry only, so every configuration evaluated
    on the same (scenario, grid) shares it. One entry is enough: sweep and
    emulation alternate on the same grid. The entry stays resident at
    nx * ny * M * 16 bytes: 2.9 MB on the default 31 x 46 grid with 127
    elements, 10.7 MB with 469.
    """
    phasors = np.empty((grid.nx, grid.ny, len(scenario.layout)), dtype=complex)
    for i in range(grid.nx):
        phasors[i] = element_phasor_matrix(scenario, _row_positions(grid, i))
    phasors.flags.writeable = False
    return phasors


def _grid_sums(scenario: Scenario, config: RisConfig, grid: GridSpec) -> np.ndarray:
    """(nx, ny) coherent sums sum_m Gamma_m g_m from the cached grid phasors.

    Each row goes through apply_config, as coherent_sums does, so every cell
    has the bits of received_power at that cell.
    """
    require_config_size(scenario, config)
    phasors = _grid_phasors(scenario, grid)
    sums = np.empty((grid.nx, grid.ny), dtype=complex)
    # Row by row: a whole-grid apply_config gives the same bits, but its (nx, ny, M)
    # temporary (2.9 MB on the default grid, against 93 KB per row) made the
    # benchmark's patterns passes about a third slower.
    for i in range(grid.nx):
        sums[i] = apply_config(phasors[i], config)
    return sums


def sweep_power(
    scenario: Scenario, config: RisConfig, grid: GridSpec, label: str = ""
) -> PowerGrid:
    """Deterministic received-power map."""
    values = dbm_from_sums(scenario, _grid_sums(scenario, config, grid))
    return PowerGrid(grid, values, label=label)


def emulate_measurement_grid(
    scenario: Scenario,
    config: RisConfig,
    grid: GridSpec,
    sounder: SounderParams,
    label: str = "",
) -> PowerGrid:
    """Synthetic sounder measurement over the grid; reproducible per rng_seed.

    Each cell reads |sqrt(pref) S + sqrt(N) z|^2 with S the coherent sum, N
    the closed-form noise floor in mW and z ~ CN(0, 1) drawn once per grid.
    """
    sums = _grid_sums(scenario, config, grid)
    if sounder.noise_enabled:
        floor_mw = db_to_linear(
            noise_floor(
                sounder.temperature_k,
                sounder.bandwidth_hz,
                sounder.averages,
                sounder.noise_figure_db,
            )
        )
        z = np.random.default_rng(sounder.rng_seed).standard_normal((grid.nx, grid.ny, 2))
        scale = math.sqrt(floor_mw / (2.0 * prefactor_mw(scenario)))
        sums = sums + scale * (z[..., 0] + 1j * z[..., 1])
    values = dbm_from_sums(scenario, sums)
    return PowerGrid(grid, values, label=label)


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


def _hpbw_offsets(target: SphericalCoord, axis: str) -> np.ndarray:
    """Fine arc offsets in degrees: +/-45 at 0.1, elevation kept within +/-90."""
    n = int(round(_HPBW_WINDOW_DEG / _HPBW_STEP_DEG))
    offsets = (np.arange(2 * n + 1) - n) * _HPBW_STEP_DEG
    if axis == "elevation":
        valid = (target.elevation_deg + offsets >= -90.0) & (
            target.elevation_deg + offsets <= 90.0
        )
        offsets = offsets[valid]
    return offsets


def _taper_bounds(exponent: float, lo: np.ndarray, hi: np.ndarray):
    """Sup of phi(c) = c**exponent over c in [lo, hi] and sup of |dphi/dc|.

    phi is 0 for c <= 0. The slope is inf where phi has no Lipschitz bound:
    a step (exponent 0) or an infinite derivative (0 < exponent < 1) at a
    c = 0 inside [lo, hi].
    """
    hi = np.minimum(hi, 1.0)
    lit = hi > 0.0  # elsewhere phi is 0 on the whole range
    top = np.where(lit, hi, 1.0)
    if exponent >= 1.0:
        slope = exponent * top ** (exponent - 1.0)
    else:
        bottom = np.where(lo > 0.0, lo, 1.0)
        slope = np.where(lo > 0.0, exponent * bottom ** (exponent - 1.0), np.inf)
    return np.where(lit, top**exponent, 0.0), np.where(lit, slope, 0.0)


def _interval_bounds(
    scenario: Scenario,
    config: RisConfig,
    target: SphericalCoord,
    axis: str,
    widths: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per arc interval: a bound on |dS/dtheta| (per radian) and on sum_m |Gamma_m| A_m.

    widths holds the J interval widths in radians and ends the (J + 1, 3)
    arc positions bounding them. The derivation is in hpbw's docstring.
    """
    weight = np.abs(config.as_complex_array) * scenario.bs_side[1]  # |Gamma_m| c_m
    on = weight > 0.0
    w, u = weight[on], scenario.layout.positions[on]
    u_norm = np.sqrt(np.sum(u * u, axis=-1))
    near, far = target.r - u_norm, target.r + u_norm  # near <= d2 <= far
    if np.any(near <= 0.0):
        return np.full(len(widths), np.inf), np.full(len(widths), np.inf)
    speed = target.r * (math.cos(math.radians(target.elevation_deg)) if axis == "azimuth" else 1.0)
    reach = (0.5 * speed * widths)[:, None]
    mid = 0.5 * (ends[:-1] + ends[1:])

    def cosine_range(numerator_mid):
        lo, hi = numerator_mid - reach, numerator_mid + reach
        return lo / np.where(lo > 0.0, far, near), hi / np.where(hi > 0.0, near, far)

    taper, d_taper = _taper_bounds(
        scenario.element_pattern.exponent / 2.0, *cosine_range(mid[:, 0, None] - u[None, :, 0])
    )
    if scenario.ue_pattern.exponent > 0.0:  # else the UE taper is identically 1
        f_ue, df_ue = _taper_bounds(
            scenario.ue_pattern.exponent / 2.0, *cosine_range(u[None, :, 2] - mid[:, 2, None])
        )
        with np.errstate(invalid="ignore"):  # 0 * inf where a taper is identically 0
            d_taper = d_taper * f_ue + taper * df_ue
        taper = taper * f_ue
    # per element: slope <= taper alpha + |d taper / d cos| beta, amplitude <= taper w / D
    k = 2.0 * math.pi / wavelength(scenario)
    alpha = w * u_norm * speed * (k / near**2 + 1.0 / near**3)
    beta = w * speed / near**2
    slope = taper @ alpha + np.where(taper > 0.0, d_taper, 0.0) @ beta
    return slope, taper @ (w / near)


def hpbw(
    scenario: Scenario, config: RisConfig, target: SphericalCoord, axis: str
) -> float:
    """Half-power beamwidth (degrees) along a constant-range arc through the target.

    The arc is sampled in 0.1 degree steps out to +/-45 degrees (elevation
    cuts stop at +/-90). The sampled maximum is the beam center, the first
    one on ties, and the two crossings 3 dB below it are linearly
    interpolated. The definition is relative, so constant power offsets do
    not change the result.

    Only the samples that can affect the result are evaluated, each with the
    phasors of the elements with Gamma_m != 0 only (coherent_sums). Each
    kernel row is computed independently, so the result has the same bits as
    a scan of every sample:

    1. Coarse pass: every 10th sample (1 degree steps) plus the last one.
    2. Certified peak search: on a coarse interval [a, b] of width w, |S| of
       S(theta) = sum_m Gamma_m g_m is Lipschitz with a constant L, so
       |S| <= (|S(a)| + |S(b)| + L w) / 2 inside it. Every interval whose
       bound reaches the best amplitude evaluated so far is evaluated at
       0.1 degree, until none is left. No skipped sample can then equal or
       beat the maximum, so the first-maximum rule picks the full scan's.
    3. Exact crossings: every sample from the peak out to the nearest
       evaluated sample below the -3 dB reference on each side (the window
       edge if there is none) is evaluated. The crossing search reads only
       samples in that range.

    The bound L. Write g_m = c_m h_m / d2 exp(-j k (d1 + d2)) with c_m the
    base-station side amplitude, d2 = |b - u_m|, k = 2 pi / lambda and
    h_m = cos_out^(q_el / 2) cos_ue^(q_ue / 2) the user-side pattern taper.
    On the arc |b| = r and |db/dtheta| = v (r cos(el) on azimuth cuts, r on
    elevation cuts), so b . b' = 0 and, with D_m = r - |u_m| <= d2,

        |d2'| = |u_m . b'| / d2 <= |u_m| v / D_m,
        |dS/dtheta| <= sum_m |Gamma_m| (k A_m |d2'| + |A_m'|),
        A_m <= c_m h_hi / D_m,
        |A_m'| <= c_m (|h_m'| / D_m + h_hi |u_m| v / D_m^3).

    The numerators of both cosines (b_x - u_x and u_z - b_z) move at most v
    per radian and d2 lies in [D_m, r + |u_m|], which bounds each cosine on
    the interval; the cosines themselves move at most v / D_m per radian.
    That gives h_hi, the largest taper, and |h_m'| through |d(c^p)/dc| <=
    p c_hi^(p - 1) for p >= 1 and p c_lo^(p - 1) for 0 < p < 1. There is no
    bound, and the interval is always evaluated, where D_m <= 0 or where a
    cosine may reach 0 inside the interval under a factor with a step
    (element exponent 0) or an infinite slope (0 < p < 1). Elements with
    Gamma_m = 0, c_m = 0 or a taper that is 0 on the whole interval add
    nothing.

    Rounding: an interval reaches the best amplitude A* when its bound is
    >= A* - 1e-9 (A* + sum_m |Gamma_m| A_m). Kernel rounding moves an
    amplitude by orders of magnitude less than 1e-9 of that incoherent sum,
    and an amplitude below (1 - 1e-9) A* is strictly below A* in dBm. When
    A* is at the power floor every evaluated sample ties and the first
    sample, always evaluated, wins as in a full scan.
    """
    if axis not in ("azimuth", "elevation"):
        raise ValidationError(f"axis must be 'azimuth' or 'elevation', got {axis!r}")
    offsets = _hpbw_offsets(target, axis)
    positions = _arc_positions(target, axis, offsets)
    n = len(offsets)
    powers = np.full(n, np.nan)  # NaN marks a sample not evaluated
    amps = np.full(n, np.nan)

    def evaluate(idx: np.ndarray) -> None:
        idx = idx[np.isnan(powers[idx])]
        if idx.size:
            sums = coherent_sums(scenario, config, positions[idx])
            powers[idx] = dbm_from_sums(scenario, sums)
            amps[idx] = np.abs(sums)

    # 1. coarse pass
    coarse = np.unique(np.append(np.arange(0, n, _HPBW_COARSE_STEPS), n - 1))
    evaluate(coarse)
    # 2. certified peak search
    widths = np.radians(np.diff(offsets[coarse]))
    slope, incoherent = _interval_bounds(scenario, config, target, axis, widths, positions[coarse])
    bound = 0.5 * (amps[coarse[:-1]] + amps[coarse[1:]] + slope * widths)
    pending = np.ones(len(widths), dtype=bool)
    while True:
        best = np.nanmax(amps)
        hit = pending & (bound >= best - _CERTIFICATE_RTOL * (best + incoherent))
        if not hit.any():
            break
        pending &= ~hit
        evaluate(np.concatenate([np.arange(coarse[j], coarse[j + 1]) for j in np.flatnonzero(hit)]))

    k = int(np.argmax(np.where(np.isnan(powers), -np.inf, powers)))
    ref = powers[k] - _HALF_POWER_DB
    # 3. exact crossings: fill in up to the nearest evaluated sample below ref
    below = np.flatnonzero(powers < ref)  # NaN compares False
    evaluate(np.arange(below[below < k].max(initial=0), below[below > k].min(initial=n - 1) + 1))

    def crossing(side: int) -> float | None:
        """Interpolated -3 dB offset walking from the peak toward side (-1 or +1)."""
        for t in range(k, n - 1 if side > 0 else 0, side):
            if powers[t + side] < ref <= powers[t]:
                frac = (powers[t] - ref) / (powers[t] - powers[t + side])
                return offsets[t] + side * (frac * _HPBW_STEP_DEG)
        return None

    lo, hi = crossing(-1), crossing(+1)
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
