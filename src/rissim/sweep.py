"""Power patterns over the positioning-table plane and beamwidth extraction.

sweep_power evaluates the deterministic model on a rectangular grid: the
grid's positions go to coherent_sums as one (nx, ny, 3) block, one kernel
call per grid row, and the block's phasors are kept there for the next
configuration on the same grid, with the sums of the last configuration
applied to them: emulate_measurement_grid right after sweep_power with the
same configuration reuses the sweep's sums. emulate_measurement_grid
reproduces the channel sounder, which averages Q impulse-response records
coherently over the tap window [n1, n2],

    P(x, y) = P_tx / Q * | sum_{n=n1..n2} sum_{q=1..Q} h_q[n] |^2,

with each record a deterministic signal tap plus complex white noise
calibrated to the thermal floor. The window sum of the Q (n2 - n1 + 1)
Gaussian noise taps is a single complex Gaussian, so the emulator draws it
directly: one CN(0, N) value per cell added to the deterministic field, N
the closed-form floor. One generator seeded with rng_seed draws the grid.
"""
from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BeamNotResolvedError, GeometryError, NoPeakError, ValidationError
from .geom import SphericalCoord, read_only
from .linkbudget import (
    BELOW_FLOOR_DBM,
    RisConfig,
    Scenario,
    allocate,
    coherent_sums,
    db_to_linear,
    dbm_from_sums,
    floor_amplitude,
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
    """Power in dBm, -inf below the floor; values[i, j] at (x_coords()[i], y_coords()[j], z_plane)."""

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
    if value == BELOW_FLOOR_DBM:
        raise NoPeakError("no peak: every cell is below the power floor")
    return Peak(float(grid.spec.x_coords()[i]), float(grid.spec.y_coords()[j]), value, i, j)


def _arc_positions(target: SphericalCoord, cuts: list[tuple[str, np.ndarray]]) -> np.ndarray:
    """(N, 3) positions at the given offsets (degrees) on each (axis, offsets) cut, stacked in order."""
    angles = np.empty((2, sum(len(offsets) for _, offsets in cuts)))  # azimuth, elevation in degrees
    angles[0], angles[1] = target.azimuth_deg, target.elevation_deg
    start = 0
    for axis, offsets in cuts:
        angles[0 if axis == "azimuth" else 1, start:start + len(offsets)] += offsets
        start += len(offsets)
    az_r, el_r = np.radians(angles)
    cos_el, positions = np.cos(el_r), np.empty((start, 3))
    np.multiply(cos_el, np.cos(az_r), out=positions[:, 0])
    np.multiply(cos_el, np.sin(az_r), out=positions[:, 1])
    positions[:, 2] = np.sin(el_r)
    positions *= target.r
    return positions


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
    if axis == "azimuth" or abs(target.elevation_deg) <= _HPBW_WINDOW_DEG:  # offsets end at +/-45
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


def _taper_bounds(exponent: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(3, J) sups of phi(c) = c**exponent, |dphi/dc| and |d2phi/dc2| over c in [lo, hi].

    phi is 0 for c <= 0. |phi^(n)| = |p (p - 1) ...| c**(p - n) for p = exponent
    is largest at the top of the range where p >= n and at its bottom elsewhere.
    Where p < n and the range reaches c = 0 it is inf: phi^(n - 1) has a step
    there (exponent 0 for n = 1, exponent 1 for n = 2) or an infinite slope.
    """
    hi = np.minimum(hi, 1.0)
    lit, inside = hi > 0.0, lo > 0.0  # where not lit, phi is 0 on the whole range
    top, bottom = np.where(lit, hi, 1.0), np.where(inside, lo, 1.0)
    sups, scale = [top**exponent], 1.0
    for n in (1.0, 2.0):
        scale *= abs(exponent - n + 1.0)
        if exponent >= n:
            sups.append(scale * top ** (exponent - n))
        else:
            sups.append(np.where(inside, scale * bottom ** (exponent - n), np.inf))
    return np.where(lit, sups, 0.0)


@np.errstate(invalid="ignore", over="ignore")  # a NaN bound is read as inf below
def _interval_bounds(
    scenario: Scenario,
    config: RisConfig,
    target: SphericalCoord,
    cuts: list[tuple[str, np.ndarray]],
    ends: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per arc interval of each cut: bounds on |d2S/dtheta2| (per radian squared) and on
    sum_m |Gamma_m| A_m, one (curve, incoherent) pair per cut.

    Each cut is (axis, widths), the J interval widths in radians, and ends
    stacks each cut's J + 1 arc positions bounding them, cut after cut. The
    derivation, with the path length's derivatives taken about the cut's
    rotation axis, is in hpbw's docstring. First the element summary, over
    the elements with w_m = |Gamma_m| c_m > 0 (see hpbw): their positions
    u, the (2, 3) corners of their bounding box, d_min and d_max = r -/+ max
    |u_m|, the per-element weights of Q and q, and the sums behind g0-g2 and
    the incoherent bound. Both bounds are 0 when nothing reflects (S is 0
    everywhere) and inf when r <= max |u_m|. Then, once per call (once per
    focus ellipse), the arc-end cosines, the taper bounds and B over the
    intervals between consecutive rows of ends, those between two cuts
    included and then dropped; per cut only the speed v, |u_m x n|, Q, q and
    the sums of the bound. A NaN in either bound (an overflow met 0, such
    as k^2 = inf times a zero coordinate of |u_m x n|) is inf: no bound.
    """
    weight = np.abs(config.as_complex_array) * scenario.bs_side[1]  # |Gamma_m| c_m
    if not (on := weight > 0.0).any():
        return [(np.zeros(len(widths)), np.zeros(len(widths))) for _, widths in cuts]
    w, u = weight[on], scenario.layout.positions[on]
    u_norm = np.sqrt(np.sum(u * u, axis=-1))
    near, d_min, d_max = target.r - u_norm, target.r - u_norm.max(), target.r + u_norm.max()
    if d_min <= 0.0:  # D_m <= d2 and every d2 lies in [d_min, d_max]
        return [(np.full(len(widths), np.inf), np.full(len(widths), np.inf)) for _, widths in cuts]
    k, inv = 2.0 * math.pi / wavelength(scenario), 1.0 / near
    kd, w1, w2, w3 = k + inv, w * inv, w * inv * inv, w * inv * inv * inv
    box = np.sort(u, axis=0)[[0, -1]]  # per coordinate: min, max
    weights, lin_weights = w3 * (k * k + 3.0 * inv * kd), 2.0 * w3 * kd
    g0_sum, s1, s2, s3 = w2 @ (u_norm * kd), w1.sum(), w2.sum(), w3.sum()
    cos_el = math.cos(math.radians(target.elevation_deg))
    speeds = [target.r * (cos_el if axis == "azimuth" else 1.0) for axis, _ in cuts]
    left, right = ends[:-1], ends[1:]  # each interval's ends
    reach, parts, start = np.zeros(len(left)), [], 0  # v w / 2; 0 on the interval between cuts
    for speed, (_, widths) in zip(speeds, cuts):
        parts.append(slice(start, start + len(widths)))
        reach[parts[-1]], start = 0.5 * speed * widths, start + len(widths) + 1

    def cosine_range(axis, sign):  # of sign (b - u_m)[axis] / d2 over all m, per interval
        b, v = sign * 0.5 * (left[:, axis] + right[:, axis]), sign * box[:, axis]
        lo, hi = b - max(v) - reach, b - min(v) + reach
        return lo / np.where(lo > 0.0, d_max, d_min), hi / np.where(hi > 0.0, d_min, d_max)

    taper, d_taper, dd_taper = _taper_bounds(
        scenario.element_pattern.exponent / 2.0, *cosine_range(0, 1.0)
    )
    if scenario.ue_pattern.exponent > 0.0:  # else the UE taper is identically 1
        f, df, ddf = _taper_bounds(scenario.ue_pattern.exponent / 2.0, *cosine_range(2, -1.0))
        dd_taper = dd_taper * f + 2.0 * d_taper * df + taper * ddf
        d_taper = d_taper * f + taper * df
        taper = taper * f
    d_taper, dd_taper = (np.where(taper > 0.0, d, 0.0) for d in (d_taper, dd_taper))
    b_sup = 0.5 * (np.abs(left) + np.abs(right)) + reach[:, None]
    bounds = []
    for (axis, _), speed, cut in zip(cuts, speeds, parts):
        h, b = taper[cut], b_sup[cut]
        # every element's taper is within (taper, d_taper, dd_taper), so only the element sums
        # remain: M2 = H (B^T Q B + g0) + H1 (v B . q + g1) + H2 g2
        cross = _across_axis(u, axis, target.azimuth_deg)
        form = (cross.T * weights) @ cross  # Q
        lin = lin_weights @ cross  # q
        g0, g1, g2 = speed * g0_sum, speed * (s2 + 3.0 * speed * s3), speed**2 * s3
        curve = h * (((b @ form) * b).sum(axis=1) + g0)
        curve += d_taper[cut] * (speed * (b @ lin) + g1) + dd_taper[cut] * g2
        bounds.append((curve, h * s1))
        for bound in bounds[-1]:
            bound[np.isnan(bound)] = np.inf
    return bounds


def _across_axis(u: np.ndarray, axis: str, azimuth_deg: float) -> np.ndarray:
    """(M, 3) |u_m x n| per coordinate, n the cut's rotation axis (see hpbw).

    n is z on azimuth cuts, so u_m x n = (u_y, -u_x, 0); on elevation cuts
    n = (-sin az, cos az, 0) and u_m x n = (-u_z cos az, -u_z sin az,
    u_x cos az + u_y sin az). The products with n's zero coordinates that
    np.cross subtracts are zeros, so these have np.cross's bits.
    """
    if axis == "azimuth":
        cross = u.take((1, 0, 2), axis=1) * (1.0, 1.0, 0.0)
    else:
        az = math.radians(azimuth_deg)
        c, s = math.cos(az), math.sin(az)
        cross = u.take((2, 2, 0), axis=1) * (c, s, c)
        cross[:, 2] += u[:, 1] * s
    return np.abs(cross, out=cross)


def hpbw(
    scenario: Scenario, config: RisConfig, target: SphericalCoord, axis: str | tuple[str, ...]
) -> float | tuple[float, ...]:
    """Half-power beamwidth (degrees) along a constant-range arc through the target.

    The arc is sampled in 0.1 degree steps out to +/-45 degrees (elevation
    cuts stop at +/-90). The sampled maximum is the beam center, the first
    one on ties, and the two crossings 3 dB below it are linearly
    interpolated. The definition is relative, so constant power offsets do
    not change the result.

    axis is "azimuth" or "elevation", or a tuple of them: the cuts then run
    in lockstep and their widths return as a tuple in the same order, with
    the bits of one call per axis. An error is the one the first failing
    cut raises alone: when a lockstep run fails, its cuts are run again one
    at a time, in order.

    Only the samples that can affect the result are evaluated, each with the
    phasors of the elements with Gamma_m != 0 only (coherent_sums). Each
    kernel row is computed independently, so the result has the same bits as
    a scan of every sample:

    1. Coarse pass: the samples at multiples of 1 degree within +/-6 degrees
       of the target, at multiples of 3 degrees beyond, plus the first and
       the last sample (_hpbw_window).
    2. Certified peak search and exact crossings, in rounds that evaluate
       what the current peak needs until the peak stops moving. On a coarse
       interval [a, b] let p(t) interpolate the coarse sums S(a) and S(b) of
       S(theta) = sum_m Gamma_m g_m linearly. With M2 >= |S''| on the
       interval, |S(t) - p(t)| <= (t - a)(b - t) M2 / 2 at every sample t
       inside it, so |p(t)| plus or minus that term bounds |S(t)| from above
       and below. Each round evaluates, those already evaluated aside,
       - the peak candidates: every sample whose upper bound reaches the
         best coarse amplitude A*. The threshold (see Rounding below) only
         rises with the best amplitude, so a sample that misses it here
         misses it for the final maximum too. No skipped sample can then
         equal or beat the maximum, so the first-maximum rule picks the
         full scan's;
       - on each side of the current evaluated peak (the coarse peak
         first), every sample out to the nearest one below its -3 dB level
         (the window edge if there is none): an evaluated sample below it,
         or a sample certified below it, its upper bound under 10^(-3/20)
         A*. Every peak is at least A*, so a sample certified below stays
         below any peak's level. Samples certified at or above the level
         are skipped: their lower bound reaches both 10^(-3/20) times the
         largest upper bound among the candidates, which bounds the final
         peak, and the amplitude at the power floor, so that none of them
         can read -inf;
       - the neighbour toward the peak of each sample in that stretch that
         is not certified at or above the level, evaluated or not, so that
         whichever of them turns out to be the crossing sample has its
         neighbour evaluated, a dip below the level inside the lobe too.
       The rounds stop when the peak did not move, and three facts make
       that enough:
       - evaluating more samples only moves a peak's nearest samples below
         the level closer to it, so a peak that did not move needs nothing
         more;
       - the first round evaluates every candidate, so the peak after it is
         the full scan's. It moves at most once, and a cut takes at most 3
         kernel rounds with the coarse pass: a third only where the final
         peak needs samples the first fill skipped, such as a higher lobe
         outside it;
       - after the last round, the nearest sample certified below the level
         on each side was in its selection, so it is evaluated and below
         the final level.
       So on each side the nearest evaluated sample below the level (the
       window edge if there is none) and its neighbour toward the peak are
       evaluated, and every sample between the peak and it is evaluated at
       or above the level or certified so. Each crossing lies between the
       two.

    The arrays that depend only on the window are shared: the offsets, the
    coarse samples and, per fine sample, its coarse interval, the interval's
    ends and the distances to them (_hpbw_window) are built once per elevation
    clip and kept read-only; every cut within +/-45 degrees elevation uses
    the same ones. Per call (a focus ellipse's two cuts make one) the part
    of the bound M2 (below) that depends only on the scenario, the
    configuration and the range, one element summary, and the taper bounds
    and B are formed in one _interval_bounds call over every cut's
    intervals; per cut only v, |u_m x n|, Q and q. Per round,
    the samples every cut still pending asks for are one block: one
    _arc_positions, coherent_sums and dbm_from_sums call, with arc
    positions for those samples only. Each cut's selection, certificates and
    crossings stay its own (_cut), so a cut evaluates the same rows in the
    same rounds alone or beside another.

    Step 2 bounds each coarse interval as a whole first: U_j = max(|S(a)|,
    |S(b)|) + w_j^2 M2 / 8 is at least the upper bound of every sample in
    it, since |p(t)| <= max(|S(a)|, |S(b)|) and (t - a)(b - t) <= w_j^2 / 4
    for an interval of width w_j. The per-sample bounds are formed only on
    the span from the first to the last interval whose U_j may reach the -3
    dB level; every interval outside it is below the level as a whole. The
    span holds every candidate (they reach A*) and both crossings of any
    peak: each end of the span is the window's edge or the coarse sample
    that starts or ends an interval below the level, so it is below the
    level itself and evaluated, and a walk from the peak stops there at the
    latest. Outside the span no sample is a candidate and none is certified
    either way. The peak and its nearest samples below the level are looked
    up on the span, once per round.

    The interpolation error: S(t) - p(t) = -int G(t, s) S''(s) ds over the
    interval with G >= 0 and int G ds = (t - a)(b - t) / 2, which holds for a
    complex S whose derivative is absolutely continuous, so no derivative is
    ever evaluated.

    The bound M2. Write g_m = c_m A_m exp(-j k (d1 + d2)) with c_m the
    base-station side amplitude, A_m = h_m / d2, d2 = |b - u_m|, k = 2 pi /
    lambda and h_m = cos_out^(q_el / 2) cos_ue^(q_ue / 2) the user-side
    pattern taper. Then

        |g_m''| <= c_m (|A_m''| + 2 k |A_m'| |d2'| + k A_m |d2''| + k^2 A_m d2'^2).

    The arc turns b about a unit axis n through the origin: n = z on azimuth
    cuts and n = (-sin az, cos az, 0) on elevation cuts. So |b| = r, b' =
    +/-(n x b) with |b'| = v (r cos(el) on azimuth cuts, r on elevation
    cuts), b'' = -b_perp, the part of b across n, with |b_perp| = v, b . b'
    = 0 and u_m . b' = +/-(u_m x n) . b. With D_m = r - |u_m| <= d2,

        |d2'| = |u_m . b'| / d2 <= X_m / D_m,  X_m = sum_i |(u_m x n)_i| B_i,
        |d2''| = |u_m . b_perp - d2'^2| / d2 <= (|u_m| v + d2'^2) / D_m,

    where B_i >= |b_i| over the interval: each |b_i| moves at most v per
    radian, so B_i = (|b_i(a)| + |b_i(b)|) / 2 + v w / 2. Only the part of
    u_m across the rotation axis moves the path length. A cosine
    (b - u_m) . e / d2 moves at most v / D_m per radian, and its second
    derivative is at most v / D_m + 3 v^2 / D_m^2. So with H >= h_m and
    H1, H2 the product rule's bounds on the first and second derivatives of
    h with respect to the cosines, |h_m'| <= H1 v / D_m and |h_m''| <=
    H2 v^2 / D_m^2 + H1 (v / D_m + 3 v^2 / D_m^2). Expanding A_m' and A_m''
    and collecting terms, with w_m = |Gamma_m| c_m and x_m = |u_m x n|,

        M2 = H (B^T Q B + g0) + H1 (v B . q + g1) + H2 g2,
        Q = sum_m w_m (k^2 + 3 k / D_m + 3 / D_m^2) / D_m^3 x_m x_m^T,
        q = sum_m 2 w_m (k + 1 / D_m) / D_m^3 x_m,
        g0 = v sum_m w_m |u_m| (k + 1 / D_m) / D_m^2,
        g1 = v sum_m w_m (1 + 3 v / D_m) / D_m^2,  g2 = v^2 sum_m w_m / D_m^3.

    The k^2 term dominates. On the cuts through P1 and P2 of the default
    scenario M2 is 1.3-2.6 times the sampled sum_m |Gamma_m| |g_m''| over the
    same interval (median 1.5).

    The taper is bounded once per interval from the surface's extremes over
    the elements with Gamma_m c_m != 0. The cosine numerators (b_x - u_x and
    u_z - b_z) move at most v per radian, so their range on the interval
    follows from the min and max of u_x and u_z, and every d2 lies in
    [r - max |u_m|, r + max |u_m|]. That bounds every element's cosines and
    gives one H, H1 and H2 for all m (_taper_bounds). The 3 x 3 form Q, the
    vector q and g0, g1, g2 are sums over the elements, so the bound costs
    O(J + M) for J intervals and M elements. There is no bound, and the
    interval is always evaluated, where r <= max |u_m| or where a cosine may
    reach 0 inside the interval under a factor c^p with p < 2 whose first or
    second derivative is unbounded or jumps there. Nor is there one where a
    bound reads NaN, an overflow met 0 (beside a step pattern's flat side,
    the product rule's cross term reads 0 x inf; at extreme frequencies or
    exponents, k^2 or a taper's scale overflows): NaN is taken as inf.

    Rounding: a sample reaches the best amplitude A* when its upper bound is
    >= A* - 1e-9 (A* + sum_m |Gamma_m| A_m), the incoherent sum bounded over
    its interval; it is certified below the -3 dB level when its upper bound
    is under 10^(-3/20) A* less the same allowance and at or above it when
    its lower bound exceeds the reference of step 2 by the allowance.
    Kernel and interpolation rounding move an amplitude by orders of
    magnitude less than 1e-9 of that incoherent sum, and an amplitude below
    (1 - 1e-9) A* is strictly below A* in dBm. The interval test takes the
    same allowance against the same thresholds. U_j is made of the same
    coarse sums and M2 with a few more operations, so its rounding is as far
    inside the allowance; it is at least each sample's computed upper bound
    up to a few units in its last place (the tests check a factor 1 + 1e-12).
    So an interval below the level by the allowance holds no sample that
    reaches it, and the end of the span it closes is below the level in
    dBm. When A* is at the power floor every evaluated sample ties: no
    sample is below the level, and the beam is not resolved, as in a full
    scan, unless a sample above the floor turns up; that one is a candidate.
    """
    axes = axis if isinstance(axis, tuple) else (axis,)
    if bad := [name for name in axes if name not in ("azimuth", "elevation")]:
        raise ValidationError(f"axis must be 'azimuth' or 'elevation', got {bad[0]!r}")
    try:
        widths = _lockstep(scenario, config, target, axes)
    except (GeometryError, ValidationError):
        if len(axes) < 2:
            raise
        widths = tuple(hpbw(scenario, config, target, name) for name in axes)
    return widths if isinstance(axis, tuple) else widths[0]


def _lockstep(
    scenario: Scenario, config: RisConfig, target: SphericalCoord, axes: tuple[str, ...]
) -> tuple[float, ...]:
    """hpbw's cuts on the given axes in lockstep, one _cut each.

    Each round evaluates the samples every pending cut asks for as one block.
    Each reply holds the cut's sums, dBm and interval bounds: one
    _interval_bounds call bounds every cut's intervals after the first round,
    every cut's coarse pass.
    """
    windows = [_hpbw_window(target, axis) for axis in axes]
    cuts = [_cut(scenario, axis, window) for axis, window in zip(axes, windows)]
    intervals = [(axis, window[2]) for axis, window in zip(axes, windows)]
    asks = {c: next(cut) for c, cut in enumerate(cuts)}  # the coarse samples (step 1)
    widths, bounds = [math.nan] * len(cuts), []
    while asks:
        positions = _arc_positions(target, list(asks.values()))
        sums = coherent_sums(scenario, config, positions)
        powers, stop = dbm_from_sums(scenario, sums), 0
        bounds = bounds or _interval_bounds(scenario, config, target, intervals, positions)
        for c, (_, offsets) in list(asks.items()):
            part, stop = slice(stop, stop + len(offsets)), stop + len(offsets)
            try:
                asks[c] = cuts[c].send((sums[part], powers[part], bounds[c]))
            except StopIteration as done:
                widths[c] = done.value
                del asks[c]
    return tuple(widths)


def _cut(scenario: Scenario, axis: str, window: tuple) -> Generator[tuple, tuple, float]:
    """hpbw's steps on one cut's window (see hpbw), as a generator.

    It yields (axis, offsets) for the samples it needs evaluated, none of
    them evaluated yet, and is sent their coherent sums, their dBm and the
    cut's (curve, incoherent) interval bounds, which it reads from the first
    reply, the coarse samples'. It returns the width.
    """
    offsets, coarse, widths, j, a, b, since, until = window
    n, level = len(offsets), 10.0 ** (-_HALF_POWER_DB / 20.0)
    powers, sums = np.full(n, np.nan), np.zeros(n, dtype=complex)  # NaN: not evaluated
    # 1. coarse pass
    sums[coarse], powers[coarse], (curve, incoherent) = yield axis, offsets[coarse]
    # 2. the certificates, then the rounds that evaluate what the current peak needs
    amps = np.abs(sums[coarse])
    best = amps.max()
    slack = _CERTIFICATE_RTOL * (best + incoherent)  # per interval
    # U_j >= every sample's upper bound on interval j; the span runs from the first to the last
    # interval that may hold a sample not certified below the level (see Rounding)
    top = np.maximum(amps[:-1], amps[1:]) + widths * widths * curve / 8.0
    lit = (top >= level * best - slack).nonzero()[0]
    span = slice(coarse[lit[0]], coarse[lit[-1] + 1] + 1)
    with np.errstate(invalid="ignore"):  # inf * 0 at an end of an interval with no bound
        mid = np.abs(sums[a[span]] * until[span] + sums[b[span]] * since[span]) / widths[j[span]]
        err = 0.5 * since[span] * until[span] * curve[j[span]]
    upper, lower, slack = mid + err, mid - err, slack[j[span]]
    want = upper >= best - slack  # NaN compares False
    above = lower >= max(level * upper[want].max(initial=best), floor_amplitude(scenario)) + slack
    under = upper < level * best - slack
    pw = powers[span]  # a view that each reply fills in

    def peak() -> int:
        """The evaluated peak's span index, the first on ties."""
        return int((pw >= np.fmax.reduce(pw)).argmax())  # NaN compares False

    def crossings(k: int) -> tuple[int, int]:
        """On each side of peak k, the nearest sample below its -3 dB level, evaluated or
        certified so, as span indices; the span's end if there is none. Each end of the span is
        the window's edge or a sample below."""
        below = (pw < pw[k] - _HALF_POWER_DB) | under
        left, right = below[k::-1].argmax(), below[k:].argmax()  # 0 if none: k is not below
        return k - left if left else 0, k + right if right else len(pw) - 1

    def needed(k: int) -> np.ndarray:
        """Mask over the span of the samples peak k's crossings need, evaluated or not."""
        lo, hi = crossings(k)
        gaps = np.zeros(len(pw), dtype=bool)
        gaps[lo:hi + 1] = ~above[lo:hi + 1]
        gaps[lo + 1:k + 1] |= gaps[lo:k]  # and each one's neighbour toward the peak
        gaps[k:hi] |= gaps[k + 1:hi + 1]
        return gaps

    k = None  # the coarse peak, then the final one if it moved (step 2)
    while k != (k := peak()):
        if (idx := span.start + ((want | needed(k)) & np.isnan(pw)).nonzero()[0]).size:
            sums[idx], powers[idx], _ = yield axis, offsets[idx]
    ref, (lo, hi) = pw[k] - _HALF_POWER_DB, crossings(k)
    if not (pw[lo] < ref and pw[hi] < ref):  # NaN compares False
        raise BeamNotResolvedError(
            f"beam not resolved: no -3 dB crossing within +/-{_HPBW_WINDOW_DEG} deg "
            f"({axis} cut)"
        )

    def crossing(t: int, side: int) -> float:
        """Interpolated -3 dB offset between span samples t (at or above ref) and t + side."""
        frac = (pw[t] - ref) / (pw[t] - pw[t + side])
        return offsets[span][t] + side * (frac * _HPBW_STEP_DEG)

    return float(crossing(hi - 1, +1) - crossing(lo + 1, -1))


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
