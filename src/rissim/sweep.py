"""Power patterns over the positioning-table plane and beamwidth extraction.

sweep_power evaluates the deterministic model on a rectangular grid: the
grid's positions go to coherent_sums as one (nx, ny, 3) block, one kernel
call per grid row, and the block's phasors are kept there for the next
configuration on the same grid. emulate_measurement_grid reproduces the
channel sounder, which averages Q impulse-response records coherently over
the tap window [n1, n2],

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
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BeamNotResolvedError, NoPeakError, ValidationError
from .geom import SphericalCoord, read_only
from .linkbudget import (
    RisConfig,
    Scenario,
    allocate,
    coherent_sums,
    db_to_linear,
    dbm_from_sums,
    is_below_floor,
    noise_floor,
    prefactor_mw,
    wavelength,
)

_HALF_POWER_DB = 3.0
_HPBW_STEP_DEG = 0.1
_HPBW_WINDOW_DEG = 45.0
_HPBW_HALF_STEPS = int(round(_HPBW_WINDOW_DEG / _HPBW_STEP_DEG))
# every cut's fine samples are a run of these offsets, shorter where elevation reaches +/-90
_HPBW_OFFSETS = read_only(np.arange(-_HPBW_HALF_STEPS, _HPBW_HALF_STEPS + 1) * _HPBW_STEP_DEG)
# hpbw's coarse grid in fine samples: a step of 10 (1 degree) out to 60 from the target, 30 beyond
_HPBW_COARSE_STEPS, _HPBW_NEAR_STEPS = (10, 30), 60
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

    def x_coords(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def y_coords(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)


@dataclass(frozen=True, eq=False)
class PowerGrid:
    """Received power in dBm, values[i, j] at (x_coords()[i], y_coords()[j], z_plane) of spec."""

    spec: GridSpec
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.values.shape != (self.spec.nx, self.spec.ny):
            raise ValidationError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.spec.nx}, {self.spec.ny})"
            )
        if "\n" in self.label or "\r" in self.label:  # the grid CSV header is one line
            raise ValidationError("grid label must not contain newlines")
        read_only(self.values)


@dataclass(frozen=True)
class SounderParams:
    """Measurement-pipeline emulation parameters.

    averages is the record count Q. The emulator draws each cell's window sum
    directly, with the closed-form noise floor floor_mw (in mW) as its
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
        self.floor_mw  # raises unless the closed-form floor exists, averages >= 1 included
        if not 1 <= self.window_start <= self.window_stop:
            raise ValidationError("window taps must satisfy 1 <= start <= stop")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")

    @cached_property
    def floor_mw(self) -> float:
        """The closed-form noise floor noise_floor(T, B, Q, NF) in mW; it must be a float."""
        dbm = noise_floor(self.temperature_k, self.bandwidth_hz, self.averages, self.noise_figure_db)
        try:
            return db_to_linear(dbm)
        except OverflowError:
            raise ValidationError(f"noise floor {dbm} dBm is too large for a power in mW") from None


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


def _grid_sums(scenario: Scenario, config: RisConfig, grid: GridSpec) -> np.ndarray:
    """(nx, ny) coherent sums sum_m Gamma_m g_m, the grid's positions as one coherent_sums block.

    Each row is one kernel call and one apply_config, so every cell has the
    bits of received_power at that cell.
    """
    pts = allocate((grid.nx, grid.ny, 3), float, (grid.nx, grid.ny, len(scenario.layout)))
    pts[..., 0] = grid.x_coords()[:, None]
    pts[..., 1] = grid.y_coords()
    pts[..., 2] = grid.z_plane
    return coherent_sums(scenario, config, pts)


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
        z = np.random.default_rng(sounder.rng_seed).standard_normal((grid.nx, grid.ny, 2))
        scale = math.sqrt(sounder.floor_mw / (2.0 * prefactor_mw(scenario)))
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
    return Peak(float(grid.spec.x_coords()[i]), float(grid.spec.y_coords()[j]), value, i, j)


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


def _hpbw_window(target: SphericalCoord, axis: str) -> tuple[np.ndarray, ...]:
    """hpbw's fine samples on the cut's window and their coarse intervals, read-only.

    The window is +/-45 degrees at 0.1, elevation kept within +/-90. Returns
    (offsets, coarse, widths, j, a, b, since, until): the offsets in
    degrees, the coarse samples (every 1 degree within +/-6 of the target,
    3 beyond, and both ends), each coarse interval's width in radians and,
    per fine sample t, its interval j[t] between the coarse samples a[t] and
    b[t], since[t] = theta(t) - theta(a) and until[t] = theta(b) - theta(t)
    in radians. They depend only on where elevation clips the window, so
    every cut on the same window shares them.
    """
    if axis == "azimuth":
        return _window_arrays(0, len(_HPBW_OFFSETS))
    el = target.elevation_deg + _HPBW_OFFSETS
    return _window_arrays(np.searchsorted(el, -90.0), np.searchsorted(el, 90.0, "right"))


@lru_cache(maxsize=64)  # ~40 kB each; every cut within +/-45 degrees elevation uses one
def _window_arrays(lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """_hpbw_window's arrays for the offsets lo to hi - 1."""
    offsets, steps = _HPBW_OFFSETS[lo:hi], np.arange(lo, hi) - _HPBW_HALF_STEPS
    on = steps % np.where(np.abs(steps) <= _HPBW_NEAR_STEPS, *_HPBW_COARSE_STEPS) == 0
    on[[0, -1]] = True
    coarse = np.flatnonzero(on)
    theta = np.radians(offsets)
    j = np.clip(np.searchsorted(coarse, np.arange(len(offsets))), 1, len(coarse) - 1) - 1
    a, b = coarse[j], coarse[j + 1]
    arrays = (coarse, np.diff(theta[coarse]), j, a, b, theta - theta[a], theta[b] - theta)
    return offsets, *map(read_only, arrays)


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
    arc positions bounding them. The derivation, with the path length's
    slope taken about the cut's rotation axis, is in hpbw's docstring.
    """
    weight = np.abs(config.as_complex_array) * scenario.bs_side[1]  # |Gamma_m| c_m
    on = weight > 0.0
    if not on.any():  # nothing reflects: |S| is 0 everywhere
        return np.zeros(len(widths)), np.zeros(len(widths))
    w, u = weight[on], scenario.layout.positions[on]
    u_norm = np.sqrt(np.sum(u * u, axis=-1))
    near, d_min, d_max = target.r - u_norm, target.r - u_norm.max(), target.r + u_norm.max()
    if d_min <= 0.0:  # D_m <= d2 and every d2 lies in [d_min, d_max]
        return np.full(len(widths), np.inf), np.full(len(widths), np.inf)
    speed = target.r * (math.cos(math.radians(target.elevation_deg)) if axis == "azimuth" else 1.0)
    reach = 0.5 * speed * widths

    def cosine_range(axis, sign):  # of sign (b - u_m)[axis] / d2 over all m, per interval
        b, v = sign * 0.5 * (ends[:-1, axis] + ends[1:, axis]), sign * u[:, axis]
        lo, hi = b - v.max() - reach, b - v.min() + reach
        return lo / np.where(lo > 0.0, d_max, d_min), hi / np.where(hi > 0.0, d_min, d_max)

    taper, d_taper = _taper_bounds(scenario.element_pattern.exponent / 2.0, *cosine_range(0, 1.0))
    if scenario.ue_pattern.exponent > 0.0:  # else the UE taper is identically 1
        f_ue, df_ue = _taper_bounds(scenario.ue_pattern.exponent / 2.0, *cosine_range(2, -1.0))
        with np.errstate(invalid="ignore"):  # 0 * inf where a taper is identically 0
            d_taper = d_taper * f_ue + taper * df_ue
        taper = taper * f_ue
    # every element's taper is within (taper, d_taper), so only the element sums remain
    k = 2.0 * math.pi / wavelength(scenario)
    alpha = (w * (k / near**2 + 1.0 / near**3)) @ _across_axis(u, axis, target.azimuth_deg)
    b_sup = 0.5 * (np.abs(ends[:-1]) + np.abs(ends[1:])) + reach[:, None]
    beta = w * speed / near**2
    slope = taper * (b_sup @ alpha) + np.where(taper > 0.0, d_taper, 0.0) * beta.sum()
    return slope, taper * (w / near).sum()


def _across_axis(u: np.ndarray, axis: str, azimuth_deg: float) -> np.ndarray:
    """(M, 3) |u_m x n| per coordinate, n the cut's rotation axis (see hpbw).

    n is z on azimuth cuts, so u_m x n = (u_y, -u_x, 0); on elevation cuts
    n = (-sin az, cos az, 0) and u_m x n = (-u_z cos az, -u_z sin az,
    u_x cos az + u_y sin az). The products with n's zero coordinates that
    np.cross subtracts are zeros, so these have np.cross's bits.
    """
    if axis == "azimuth":
        cross = u[:, [1, 0, 2]] * (1.0, 1.0, 0.0)
    else:
        az = math.radians(azimuth_deg)
        c, s = math.cos(az), math.sin(az)
        cross = u[:, [2, 2, 0]] * (c, s, c)
        cross[:, 2] += u[:, 1] * s
    return np.abs(cross, out=cross)


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

    1. Coarse pass: the samples at multiples of 1 degree within +/-6 degrees
       of the target, at multiples of 3 degrees beyond, plus the first and
       the last sample (_hpbw_window).
    2. Certified peak search and crossing fill, in one kernel round: on a
       coarse interval [a, b], |S| of S(theta) = sum_m Gamma_m g_m is
       Lipschitz with a constant L, so at every sample t inside it
       |S(t)| <= min(|S(a)| + L (t - a), |S(b)| + L (b - t)). Every sample
       whose bound reaches the best coarse amplitude is evaluated: the
       threshold (see Rounding below) only rises with the best amplitude, so
       a sample that misses it here misses it for the final maximum too. No
       skipped sample can then equal or beat the maximum, so the
       first-maximum rule picks the full scan's. The same round evaluates
       every sample between the samples nearest the coarse peak on each side
       that lie below its -3 dB level (the window edge if there is none):
       coarse samples below it, or samples whose bound is under the level's
       amplitude by more than the rounding allowance.
    3. Exact crossings: every sample from the peak out to the nearest
       evaluated sample below the -3 dB reference on each side (the window
       edge if there is none) is evaluated. The peak's level is at least the
       coarse peak's, so this evaluates nothing new unless a hit sample
       outside the fill of step 2 is higher. It reads evaluated powers only,
       so the fill of step 2 decides how many samples and rounds are
       evaluated, never a bit of the result. Each crossing lies between the
       last sample below the reference before the peak (first after it) and
       its neighbour toward the peak.

    The arrays that depend only on the window are shared: the offsets, the
    coarse samples and, per fine sample, its coarse interval, the interval's
    ends and the distances to them (_hpbw_window) are built once per elevation
    clip and kept read-only; every cut within +/-45 degrees elevation uses
    the same ones. Per cut, arc positions are computed for the samples a
    round evaluates only, and the peak and the samples below its -3 dB level
    are looked up among the evaluated samples only.

    The bound L. Write g_m = c_m h_m / d2 exp(-j k (d1 + d2)) with c_m the
    base-station side amplitude, d2 = |b - u_m|, k = 2 pi / lambda and
    h_m = cos_out^(q_el / 2) cos_ue^(q_ue / 2) the user-side pattern taper.
    The arc turns b about a unit axis n through the origin: n = z on azimuth
    cuts and n = (-sin az, cos az, 0) on elevation cuts. So |b| = r,
    b' = +/-(n x b) with |b'| = v (r cos(el) on azimuth cuts, r on elevation
    cuts), b . b' = 0 and u_m . b' = +/-(u_m x n) . b. With D_m = r - |u_m|
    <= d2,

        |d2'| = |u_m . b'| / d2 <= sum_i |(u_m x n)_i| B_i / D_m,
        |dS/dtheta| <= sum_m |Gamma_m| (k A_m |d2'| + |A_m'|),
        A_m <= c_m h_hi / D_m,
        |A_m'| <= c_m (|h_m'| / D_m + h_hi |d2'| / D_m^2),

    where B_i >= |b_i| over the interval: each |b_i| moves at most v per
    radian, so B_i = (|b_i(a)| + |b_i(b)|) / 2 + v w / 2. Only the part of
    u_m across the rotation axis moves the path length, which makes this L
    about 0.5-0.7 of the bound |u_m| v / D_m on the default surface.

    The taper is bounded once per interval from the surface's extremes over
    the elements with Gamma_m c_m != 0. The cosine numerators (b_x - u_x and
    u_z - b_z) move at most v per radian, so their range on the interval
    follows from the min and max of u_x and u_z, and every d2 lies in
    [r - max |u_m|, r + max |u_m|]. That bounds every element's cosines and
    gives one H >= h_hi and one H' >= |dh/dc| for all m, through |d(c^p)/dc|
    <= p c_hi^(p - 1) for p >= 1 and p c_lo^(p - 1) for 0 < p < 1. The cosines
    move at most v / D_m per radian, so the sums above need only the three
    per-coordinate sums over m of |Gamma_m| c_m |(u_m x n)_i| (k / D_m^2 +
    1 / D_m^3), plus those of |Gamma_m| c_m v / D_m^2 and |Gamma_m| c_m / D_m:
    O(J + M) work for J intervals and M elements. There is no bound, and the
    interval is always evaluated, where r <= max |u_m| or where a cosine may
    reach 0 inside the interval under a factor with a step (element exponent
    0) or an infinite slope (0 < p < 1).

    Rounding: a sample reaches the best amplitude A* when its bound is
    >= A* - 1e-9 (A* + sum_m |Gamma_m| A_m), the incoherent sum bounded over
    its interval, and is under the -3 dB level's amplitude when its bound is
    below that amplitude less the same allowance. Kernel rounding moves an
    amplitude by orders of magnitude less than 1e-9 of that incoherent sum,
    and an amplitude below (1 - 1e-9) A* is strictly below A* in dBm. When
    A* is at the power floor every evaluated sample ties and the first
    sample, always evaluated, wins as in a full scan.
    """
    if axis not in ("azimuth", "elevation"):
        raise ValidationError(f"axis must be 'azimuth' or 'elevation', got {axis!r}")
    offsets, coarse, widths, j, a, b, since, until = _hpbw_window(target, axis)
    n = len(offsets)
    powers = np.full(n, np.nan)  # NaN marks a sample not evaluated
    amps = np.full(n, np.nan)

    def evaluate(idx: np.ndarray) -> np.ndarray | None:
        """Evaluate the samples in idx not evaluated yet; their positions, None if none."""
        idx = idx[np.isnan(powers[idx])]
        if idx.size:
            positions = _arc_positions(target, axis, offsets[idx])
            sums = coherent_sums(scenario, config, positions)
            powers[idx] = dbm_from_sums(scenario, sums)
            amps[idx] = np.abs(sums)
            return positions

    def fill(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Every sample from the last in left to the first in right (the window's ends if none)."""
        return np.arange(left.max(initial=0), right.min(initial=n - 1) + 1)

    def crossings() -> tuple[float, np.ndarray, np.ndarray]:
        """The evaluated peak's -3 dB level and the evaluated samples below it on each side."""
        done = np.flatnonzero(~np.isnan(powers))
        k = done[np.argmax(powers[done])]
        ref = powers[k] - _HALF_POWER_DB
        below = done[powers[done] < ref]
        return ref, below[below < k], below[below > k]

    # 1. coarse pass
    ends = evaluate(coarse)
    # 2. certified peak search, with the coarse peak's crossings filled in the same round
    slope, incoherent = _interval_bounds(scenario, config, target, axis, widths, ends)
    lip = slope[j]
    with np.errstate(invalid="ignore"):  # inf * 0 at an end of an interval with no bound
        top = np.minimum(amps[a] + lip * since, amps[b] + lip * until)
    k, best = coarse[np.argmax(powers[coarse])], amps[coarse].max()
    slack = _CERTIFICATE_RTOL * (best + incoherent)  # per interval
    want = top >= (best - slack)[j]  # NaN compares False
    under = top < (best * 10.0 ** (-_HALF_POWER_DB / 20.0) - slack)[j]
    below = np.flatnonzero((powers < powers[k] - _HALF_POWER_DB) | under)
    want[fill(below[below < k], below[below > k])] = True
    evaluate(np.flatnonzero(want))
    # 3. exact crossings: a third round only if a hit sample held a new peak outside the fill
    ref, left, right = crossings()
    if evaluate(fill(left, right)) is not None:
        ref, left, right = crossings()
    if not (left.size and right.size):
        raise BeamNotResolvedError(
            f"beam not resolved: no -3 dB crossing within +/-{_HPBW_WINDOW_DEG} deg "
            f"({axis} cut)"
        )

    def crossing(t: int, side: int) -> float:
        """Interpolated -3 dB offset between sample t (at or above ref) and t + side."""
        frac = (powers[t] - ref) / (powers[t] - powers[t + side])
        return offsets[t] + side * (frac * _HPBW_STEP_DEG)

    return float(crossing(right[0] - 1, +1) - crossing(left[-1] + 1, -1))


def compare_grids(a: PowerGrid, b: PowerGrid, threshold_dbm: float) -> GridComparison:
    """Peak offset/delta and RMSE over cells where both grids exceed a finite floor."""
    if not math.isfinite(threshold_dbm):
        raise ValidationError(f"comparison floor must be finite, got {threshold_dbm} dBm")
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
    return GridComparison(offset, float(delta), rmse)
