"""Coherent per-element received-power model and thermal noise floor.

Received power at a user position b for surface elements at u_m with complex
reflection coefficients Gamma_m:

    P = P_tx * G_bs * G_ue * (d_y * d_z)^2 / (16 pi^2)
        * | sum_m Gamma_m * sqrt(F_m) * exp(-j 2 pi (|a-u_m|+|b-u_m|)/lambda)
            / (|a-u_m| * |b-u_m|) |^2

where a is the base-station position and F_m the combined normalized antenna
pattern of the four hops (BS toward element, element receive, element
re-radiate, UE toward element). Each pattern factor is a cos^q power pattern
normalized to 1 at boresight; the element factors are clamped to zero behind
the surface plane. Gains enter only through the prefactor, never through the
pattern factors.

Boresight conventions: the BS antenna points at the surface center, the UE
antenna points along +z, each element along the surface normal +x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError, ValidationError
from .geom import RisLayout, Vec3, read_only

SPEED_OF_LIGHT = 299792458.0  # m/s
BOLTZMANN = 1.380649e-23  # J/K

# Powers at or below -250 dBm are reported as -inf, the grid files' below-floor marker.
BELOW_FLOOR_DBM = -math.inf
_BELOW_FLOOR_MW = 10.0 ** (-250.0 / 10.0)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _wrap_phase_deg(phase: float) -> float:
    wrapped = (phase + 180.0) % 360.0 - 180.0
    return 180.0 if wrapped == -180.0 else wrapped


@dataclass(frozen=True)
class AntennaPattern:
    """Normalized cos^q power pattern with the antenna's dBi gain kept aside.

    exponent == 0 means isotropic. The pattern value is 1 at boresight and
    clamps to 0 beyond 90 degrees off boresight for exponent > 0.
    """

    gain_dbi: float
    exponent: float

    def __post_init__(self):
        if not (math.isfinite(self.exponent) and self.exponent >= 0.0):
            raise ValidationError(f"pattern exponent must be >= 0, got {self.exponent}")
        if not math.isfinite(self.gain_dbi):
            raise ValidationError("gain must be finite")

    def value_at(self, cos_angle):
        """Pattern value for the cosine of the off-boresight angle."""
        return np.clip(np.asarray(cos_angle, dtype=float), 0.0, None) ** self.exponent


@dataclass(frozen=True)
class ReflectionCoefficient:
    """Complex element response: magnitude and phase in degrees (-180, 180].

    Magnitude 0 (or -0) means the element is off; it is stored as 0 at phase 0.
    """

    magnitude: float
    phase_deg: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.magnitude) and self.magnitude >= 0.0):
            raise ValidationError(f"magnitude must be finite and >= 0, got {self.magnitude}")
        if not math.isfinite(self.phase_deg):
            raise ValidationError("phase must be finite")
        phase = 0.0 if self.magnitude == 0.0 else _wrap_phase_deg(self.phase_deg)
        object.__setattr__(self, "phase_deg", phase)
        object.__setattr__(self, "magnitude", self.magnitude + 0.0)  # -0.0 + 0.0 is 0.0

    @cached_property
    def fingerprint_text(self) -> str:
        """The coefficient's part of config_fingerprint, built once per alphabet state."""
        return f"{self.magnitude!r},{self.phase_deg!r}"


def complex_values(coefficients) -> np.ndarray:
    """Read-only complex values m * exp(j * phase) of a sequence of coefficients."""
    mag = np.array([c.magnitude for c in coefficients], dtype=float)
    return read_only(mag * np.exp(1j * np.radians([c.phase_deg for c in coefficients])))


@dataclass(frozen=True)
class RisConfig:
    """One reflection coefficient per element plus the alphabet it came from.

    alphabet_name is a label; membership is enforced where configs are built
    from a named alphabet (optimizers, file loaders), not on every use.
    """

    coefficients: tuple[ReflectionCoefficient, ...]
    alphabet_name: str

    def __len__(self) -> int:
        return len(self.coefficients)

    @cached_property
    def as_complex_array(self) -> np.ndarray:
        return complex_values(self.coefficients)


@dataclass(frozen=True)
class Scenario:
    """Full static experiment description.

    The element pattern is used twice per element (receive and re-radiate).
    Its gain_dbi field is unused: the element aperture enters the link budget
    through the (d_y * d_z)^2 prefactor.
    """

    frequency_hz: float
    tx_power_dbm: float
    bs_position: Vec3
    bs_pattern: AntennaPattern
    ue_pattern: AntennaPattern
    element_pattern: AntennaPattern
    layout: RisLayout

    def __post_init__(self):
        if not (math.isfinite(self.frequency_hz) and self.frequency_hz > 0.0):
            raise ValidationError(f"frequency must be > 0, got {self.frequency_hz}")
        if not math.isfinite(self.tx_power_dbm):
            raise ValidationError("tx power must be finite")
        if self.bs_position.x == 0.0:
            raise ValidationError("base station must not lie in the surface plane (x == 0)")
        try:
            prefactor = prefactor_mw(self)
        except OverflowError:
            prefactor = math.inf
        if not 0.0 < prefactor < math.inf:
            reason = "underflows to 0" if prefactor == 0.0 else "not finite"
            raise ValidationError(f"link-budget prefactor (tx power, gains, element size) {reason}")

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # a non-finite d1 fails the phasor checks
    def bs_side(self) -> tuple[np.ndarray, np.ndarray]:
        """(d1, amp): per-element BS distances and BS-side amplitudes.

        They do not depend on the user position, so they are computed once
        per scenario.
        """
        u = self.layout.positions
        a = self.bs_position.as_array()
        to_el = u - a[None, :]
        d1 = np.sqrt(np.sum(to_el * to_el, axis=-1))
        if np.any(d1 == 0.0):
            raise GeometryError("base station coincides with an element center")
        boresight = -a / np.linalg.norm(a)  # BS antenna aimed at the surface center
        cos_bs = (to_el @ boresight) / d1
        f_bs = self.bs_pattern.value_at(cos_bs)
        cos_in = (a[0] - u[:, 0]) / d1  # (a - u) . x_hat over |a - u|
        f_in = np.where(cos_in <= 0.0, 0.0, self.element_pattern.value_at(cos_in))
        return read_only(d1), read_only(np.sqrt(f_bs * f_in) / d1)


def wavelength(scenario: Scenario) -> float:
    return SPEED_OF_LIGHT / scenario.frequency_hz


def prefactor_mw(scenario: Scenario) -> float:
    """Link-budget prefactor in milliwatts: P_tx * G_bs * G_ue * (d_y d_z)^2 / (16 pi^2)."""
    return (
        db_to_linear(scenario.tx_power_dbm)
        * db_to_linear(scenario.bs_pattern.gain_dbi)
        * db_to_linear(scenario.ue_pattern.gain_dbi)
        * (scenario.layout.d_y * scenario.layout.d_z) ** 2
        / (16.0 * math.pi**2)
    )


def floor_amplitude(scenario: Scenario) -> float:
    """The coherent sum's amplitude |S| at the power floor, where dbm_from_sums reads -inf."""
    return math.sqrt(_BELOW_FLOOR_MW / prefactor_mw(scenario))


@np.errstate(over="ignore", invalid="ignore")  # checked in dbm_from_sums and optimize_config
def element_phasor_matrix(
    scenario: Scenario, positions: np.ndarray, elements: np.ndarray | None = None
) -> np.ndarray:
    """(N, M) complex phasors sqrt(F)*exp(-j2pi(d1+d2)/lambda)/(d1*d2).

    positions: (N, 3) user positions in meters. elements, an optional index
    array, selects the columns to compute, each with the full matrix's bits.
    Raises GeometryError when a position coincides with any element center.

    The element-to-user offsets are three (N, M) arrays, one per axis, summed
    in the order a reduction over a length-3 axis uses, and the phase is
    computed in real arithmetic with the reciprocal of lambda, the way numpy
    divides a complex array by a real one. Every phasor has the bits of the
    (N, M, 3) reference kernel in tests/helpers.py.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValidationError(f"positions must be (N, 3), got {pos.shape}")
    u = scenario.layout.positions
    d1, amp_bs = scenario.bs_side

    # element -> user offsets, per position and axis
    dx, dy, dz = (np.subtract.outer(pos[:, k], u[:, k]) for k in range(3))
    d2 = dx * dx
    d2 += np.multiply(dy, dy, out=dy)
    d2 += np.multiply(dz, dz, out=dy)
    np.sqrt(d2, out=d2)
    if not d2.all():
        n, m = np.argwhere(d2 == 0.0)[0]
        raise GeometryError(
            f"user position {tuple(pos[n].tolist())} coincides with element {m} center"
        )
    if elements is not None:
        dx, dz, d2 = (np.take(a, elements, axis=1) for a in (dx, dz, d2))
        d1, amp_bs = d1[elements], amp_bs[elements]

    cos_out = np.maximum(np.divide(dx, d2, out=dx), 0.0, out=dx)  # 0 behind the surface
    exponent = scenario.element_pattern.exponent
    taper = cos_out**exponent if exponent else np.sign(cos_out)  # exponent 0: a step
    if scenario.ue_pattern.exponent != 0.0:  # an isotropic UE multiplies by 1.0
        cos_ue = np.negative(np.divide(dz, d2, out=dz), out=dz)  # UE boresight is +z
        taper *= scenario.ue_pattern.value_at(cos_ue)

    amp = np.sqrt(taper, out=taper)
    amp *= amp_bs
    amp /= d2
    phase = np.add(d2, d1, out=d2)
    phase *= -2.0 * np.pi
    phase *= 1.0 / wavelength(scenario)
    phasors = np.zeros(phase.shape, dtype=complex)
    phasors.imag = phase
    np.exp(phasors, out=phasors)
    phasors.real *= amp
    phasors.imag *= amp
    return phasors


def apply_config(phasors: np.ndarray, config: RisConfig) -> np.ndarray:
    """Coherent sums sum_m Gamma_m g_m over the last axis of (..., M) element phasors.

    Every configuration is applied here, in one summation order, so a position
    gets the same bits however the positions around it are batched.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked in dbm_from_sums
        return np.sum(phasors * config.as_complex_array, axis=-1)


def allocate(shape: tuple, dtype, block: tuple) -> np.ndarray:
    """np.empty(shape, dtype) for an (R, N, M) phasor block, or a ValidationError naming it."""
    try:
        return np.empty(shape, dtype)
    except (ValueError, MemoryError):  # numpy: "array is too big" or a failed allocation
        raise ValidationError(
            "grid phasors of {} x {} cells x {} elements need {} bytes, more than can be "
            "allocated".format(*block, math.prod(block) * 16)
        ) from None


_block: tuple = (None, None, None)  # last block computed with all elements on: scenario, key, phasors
_sums: tuple = (None, None, None)  # last sums applied to the kept block: phasors, Gamma bytes, sums


def coherent_sums(scenario: Scenario, config: RisConfig, positions: np.ndarray) -> np.ndarray:
    """(...) complex element sums sum_m Gamma_m g_m at positions of shape (..., N, 3).

    Each row of N positions is one element_phasor_matrix call and one
    apply_config call, so no temporary is larger than one row's (N, M): a
    whole-grid temporary made grid sweeps about a third slower. The phasors
    of the last block evaluated with every element on are kept, keyed on the
    scenario's identity and the positions' shape and bytes, and reused for
    any configuration there. A miss with Gamma_m == 0 somewhere computes only
    the powered columns, one row at a time, and keeps nothing; the rest stay
    0, so apply_config gives the full kernel's bits, bar an exact zero's sign.

    The sums of the last configuration applied to the kept block are kept as
    well, read-only, keyed on the block's identity and the Gamma vector's
    bytes: a repeat returns a writable copy and skips apply_config, so a
    grid's sweep_power and emulate_measurement_grid apply each configuration
    once. One entry of 16 bytes per position (23 KB on the default grid)
    serves that pair; a larger one would hold configurations no caller repeats.
    """
    global _block, _sums
    if len(config) != len(scenario.layout):
        raise ValidationError(
            f"configuration has {len(config)} coefficients for {len(scenario.layout)} elements"
        )
    pos = np.asarray(positions, dtype=float)
    rows = pos.reshape((math.prod(pos.shape[:-2]), *pos.shape[-2:]))  # (R, N, 3); -1 fails at N = 0
    key = (pos.shape, pos.tobytes())
    if _block[0] is scenario and _block[1] == key:
        block = _block[2]
    elif (on := np.flatnonzero(config.as_complex_array)).size < len(config):
        block = _powered_rows(scenario, rows, on)
    else:
        if len(rows) == 1:  # the kernel's own output, not a copy
            block = element_phasor_matrix(scenario, rows[0])[None]
        else:
            shape = (*rows.shape[:-1], len(config))
            block = allocate(shape, complex, shape)
            for r, row in enumerate(rows):
                block[r] = element_phasor_matrix(scenario, row)
        _block = (scenario, key, read_only(block))
    gamma = config.as_complex_array.tobytes()
    if _sums[0] is block and _sums[1] == gamma:
        return _sums[2].reshape(pos.shape[:-1]).copy()
    sums = np.empty(rows.shape[:-1], dtype=complex)
    for r, phasors in enumerate(block):
        sums[r] = apply_config(phasors, config)
    if block is _block[2]:
        _sums = (block, gamma, read_only(sums.copy()))
    return sums.reshape(pos.shape[:-1])


def _powered_rows(scenario: Scenario, rows: np.ndarray, on: np.ndarray):
    """Each row's (N, M) phasors with the columns in on computed and the rest 0, one buffer."""
    phasors = np.zeros((*rows.shape[-2:-1], len(scenario.layout)), dtype=complex)
    for row in rows:
        phasors[:, on] = element_phasor_matrix(scenario, row, on)
        yield phasors


def dbm_from_sums(scenario: Scenario, sums: np.ndarray) -> np.ndarray:
    """Received power in dBm of coherent element sums; -inf at or below -250 dBm."""
    with np.errstate(over="ignore"):
        p_mw = prefactor_mw(scenario) * (sums.real**2 + sums.imag**2)
    if not np.isfinite(p_mw).all():  # max is NaN if any is, else inf
        raise GeometryError(f"received power {p_mw.max()} mW: a distance or magnitude overflows")
    with np.errstate(divide="ignore"):
        dbm = 10.0 * np.log10(p_mw)
    return np.where(p_mw <= _BELOW_FLOOR_MW, BELOW_FLOOR_DBM, dbm)


def received_power(scenario: Scenario, config: RisConfig, ue_position: Vec3) -> float:
    """Received power in dBm at a user position; deterministic, noise-free."""
    sums = coherent_sums(scenario, config, ue_position.as_array()[None, :])
    return float(dbm_from_sums(scenario, sums)[0])


def noise_floor(
    temperature_k: float, bandwidth_hz: float, averages: int, noise_figure_db: float
) -> float:
    """Thermal noise floor in dBm after coherent averaging.

    10*log10(k*T*B / (1 mW * Q)) + NF, with Q the number of averaged records.
    k*T*B/Q must be finite and > 0 as a float: an infinite bandwidth or a
    product that underflows to zero has no floor in dBm.
    """
    if not temperature_k > 0.0:
        raise ValidationError(f"temperature must be > 0, got {temperature_k}")
    if not bandwidth_hz > 0.0:
        raise ValidationError(f"bandwidth must be > 0, got {bandwidth_hz}")
    if averages < 1:
        raise ValidationError(f"averages must be >= 1, got {averages}")
    if not math.isfinite(noise_figure_db):
        raise ValidationError("noise figure must be finite")
    noise_mw = BOLTZMANN * temperature_k * bandwidth_hz / (1e-3 * averages)
    if not (math.isfinite(noise_mw) and noise_mw > 0.0):
        raise ValidationError(f"noise power k*T*B/Q must be finite and > 0, got {noise_mw} mW")
    return 10.0 * math.log10(noise_mw) + noise_figure_db


def config_fingerprint(config: RisConfig) -> str:
    """Short stable hash of a configuration (alphabet label + coefficients)."""
    import hashlib
    text = config.alphabet_name + "|" + ";".join(c.fingerprint_text for c in config.coefficients)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def scenario_fingerprint(scenario: Scenario) -> str:
    """Short stable hash of the physical scenario."""
    import hashlib
    parts = [
        repr(scenario.frequency_hz),
        repr(scenario.tx_power_dbm),
        repr((scenario.bs_position.x, scenario.bs_position.y, scenario.bs_position.z)),
        repr((scenario.bs_pattern.gain_dbi, scenario.bs_pattern.exponent)),
        repr((scenario.ue_pattern.gain_dbi, scenario.ue_pattern.exponent)),
        repr((scenario.element_pattern.gain_dbi, scenario.element_pattern.exponent)),
        repr((scenario.layout.d_y, scenario.layout.d_z)),
        ";".join(f"{e.x!r},{e.y!r},{e.z!r}" for e in scenario.layout.elements),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]
