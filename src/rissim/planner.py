"""Half-power focus region on the user plane and reconfiguration scheduling.

A focused beam illuminates an ellipse on the horizontal user plane: the
azimuth semi-axis comes from the horizontal beamwidth alpha,

    rho_a = |b| * tan(alpha / 2),

and the radial semi-axis from intersecting the vertical beamwidth beta with
the plane at depression angle theta below the surface center,

    rho_r = 1/2 * ( (h_s - h_u) / tan(theta - beta/2)
                  - (h_s - h_u) / tan(theta + beta/2) ).

A mobile user stays served while inside the current ellipse; plan_updates
walks a trajectory and emits a reconfiguration event whenever the user exits
it, re-measuring the beamwidths for every new configuration since they depend
on the chosen element states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ValidationError
from .geom import SphericalCoord, Vec3, cartesian_to_spherical, spherical_to_cartesian
from .linkbudget import RisConfig, Scenario, config_fingerprint
from .optimizer import ReflectionAlphabet, optimize_config
from .sweep import hpbw

_TIME_STEP_S = 1e-3
# Sampled instants tested per array evaluation; bounds memory on slow paths.
_BLOCK_STEPS = 1024


@dataclass(frozen=True)
class FocusEllipse:
    """Half-power footprint around a target point on the user plane.

    orientation is the horizontal unit vector from the surface origin's
    ground projection toward the center; rho_r is the semi-axis along it and
    rho_a the semi-axis across it. alpha_deg and beta_deg are the azimuth
    and elevation beamwidths the semi-axes were derived from.
    """

    center: Vec3
    rho_a: float
    rho_r: float
    orientation: Vec3
    alpha_deg: float
    beta_deg: float

    def __post_init__(self):
        if not (0.0 < self.rho_a < math.inf and 0.0 < self.rho_r < math.inf):
            raise ValidationError("ellipse semi-axes must be finite and > 0")

    def contains(self, point: np.ndarray) -> bool | np.ndarray:
        """Whether a (3,) point, or each row of an (N, 3) array of points, lies inside."""
        dx, dy = point[..., 0] - self.center.x, point[..., 1] - self.center.y
        ur_x, ur_y = self.orientation.x, self.orientation.y
        a = (-dx * ur_y + dy * ur_x) / self.rho_a
        r = (dx * ur_x + dy * ur_y) / self.rho_r
        return a * a + r * r <= 1.0


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear path on the user plane, traversed at constant speed."""

    waypoints: tuple[Vec3, ...]
    speed_mps: float

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValidationError("trajectory needs at least two waypoints")
        if not (math.isfinite(self.speed_mps) and self.speed_mps > 0.0):
            raise ValidationError("speed must be finite and > 0")
        z0 = self.waypoints[0].z
        if any(abs(w.z - z0) > 1e-9 for w in self.waypoints):
            raise ValidationError("waypoints must lie on one horizontal plane")


@dataclass(frozen=True)
class UpdateEvent:
    t_s: float
    position: Vec3
    config_hash: str
    rho_a: float
    rho_r: float


@dataclass(frozen=True)
class UpdateSchedule:
    """Reconfiguration events along a trajectory; first event at t = 0."""

    events: tuple[UpdateEvent, ...]

    @property
    def mean_interval_s(self) -> float | None:
        """Mean time between events; None when fewer than two were emitted."""
        if len(self.events) < 2:
            return None
        return (self.events[-1].t_s - self.events[0].t_s) / (len(self.events) - 1)


def _height(h_surface: float, h_user: float) -> float:
    """The surface's height above the user plane; it must be finite and > 0."""
    height = h_surface - h_user
    if not 0.0 < height < math.inf:
        raise GeometryError("surface must sit a finite height above the user plane")
    return height


def rho_radial(h_surface: float, h_user: float, theta_ue_deg: float, beta_deg: float) -> float:
    """Radial half-power semi-axis from the vertical beamwidth beta.

    Evaluated with the magnitude of the user's depression angle so both
    tangent arguments stay positive; they must lie inside (0, 90) degrees.
    """
    if not beta_deg > 0.0:
        raise GeometryError(f"beamwidth must be > 0, got {beta_deg}")
    height = _height(h_surface, h_user)
    theta = abs(theta_ue_deg)
    lo = theta - beta_deg / 2.0
    hi = theta + beta_deg / 2.0
    if not (lo > 0.0 and hi < 90.0):  # a NaN angle fails too
        raise GeometryError(
            f"half-power cone [{lo}, {hi}] deg does not intersect the plane cleanly"
        )
    return 0.5 * (height / math.tan(math.radians(lo)) - height / math.tan(math.radians(hi)))


def rho_azimuth(range_m: float, alpha_deg: float) -> float:
    """Azimuth half-power semi-axis: range * tan(alpha / 2)."""
    if not 0.0 < range_m < math.inf:
        raise GeometryError(f"range must be finite and > 0, got {range_m}")
    if not 0.0 < alpha_deg < 180.0:
        raise GeometryError(f"beamwidth {alpha_deg} outside (0, 180) deg")
    return range_m * math.tan(math.radians(alpha_deg / 2.0))


def update_interval(rho_m: float, speed_mps: float) -> float:
    """Time to traverse one half-power semi-axis at the given speed."""
    if not 0.0 < speed_mps < math.inf:
        raise ValidationError(f"speed must be finite and > 0, got {speed_mps}")
    if not 0.0 < rho_m < math.inf:
        raise ValidationError(f"ellipse semi-axes must be finite and > 0, got {rho_m}")
    return rho_m / speed_mps


def focus_ellipse(
    scenario: Scenario, config: RisConfig, target: SphericalCoord
) -> FocusEllipse:
    """Measure both beamwidths for the given configuration and build the ellipse.

    The target must lie below the surface, which is checked before the two
    cuts run; they run in lockstep (hpbw with both axes).
    """
    center = spherical_to_cartesian(target)
    horizontal = math.hypot(center.x, center.y)
    if horizontal == 0.0:
        raise GeometryError("target sits on the surface axis; no radial direction")
    _height(0.0, center.z)
    alpha, beta = hpbw(scenario, config, target, ("azimuth", "elevation"))
    orientation = Vec3(center.x / horizontal, center.y / horizontal, 0.0)
    return FocusEllipse(
        center=center,
        rho_a=rho_azimuth(target.r, alpha),
        rho_r=rho_radial(0.0, center.z, abs(target.elevation_deg), beta),
        orientation=orientation,
        alpha_deg=alpha,
        beta_deg=beta,
    )


def arc_waypoints(start: SphericalCoord, end: SphericalCoord) -> tuple[Vec3, ...]:
    """Azimuth arc at constant range and elevation, one waypoint per 0.5 degrees."""
    if abs(start.r - end.r) > 1e-6 or abs(start.elevation_deg - end.elevation_deg) > 1e-6:
        raise ValidationError("arc motion needs equal range and elevation at both ends")
    step = 0.5  # degrees; chord error well under a millimeter at these ranges
    n = max(1, int(math.ceil(abs(end.azimuth_deg - start.azimuth_deg) / step)))
    azimuths = np.linspace(start.azimuth_deg, end.azimuth_deg, n + 1)
    return tuple(
        spherical_to_cartesian(SphericalCoord(start.r, float(az), start.elevation_deg))
        for az in azimuths
    )


def radial_waypoints(start: SphericalCoord, distance: float) -> tuple[Vec3, ...]:
    """Straight horizontal ray moving the given distance away from the surface axis."""
    p = spherical_to_cartesian(start)
    horizontal = math.hypot(p.x, p.y)
    if horizontal == 0.0:
        raise GeometryError("radial motion undefined on the surface axis")
    ux, uy = p.x / horizontal, p.y / horizontal
    return (p, Vec3(p.x + distance * ux, p.y + distance * uy, p.z))


@np.errstate(over="ignore")  # an overflowing length is rejected as a trajectory time
def _polyline(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    pts = np.array([[w.x, w.y, w.z] for w in traj.waypoints])
    seg = np.diff(pts, axis=0)
    lengths = np.sqrt(np.sum(seg * seg, axis=-1))
    cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
    return pts, cumulative


def _positions_at(pts: np.ndarray, cumulative: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(N, 3) points at arc lengths s along the polyline, clamped to its ends."""
    s = np.clip(s, 0.0, cumulative[-1])
    k = np.minimum(np.searchsorted(cumulative, s, side="right") - 1, len(cumulative) - 2)
    seg_len = cumulative[k + 1] - cumulative[k]
    zero = seg_len == 0.0
    frac = (s - cumulative[k]) / np.where(zero, 1.0, seg_len)
    moved = pts[k] + frac[:, None] * (pts[k + 1] - pts[k])
    return np.where(zero[:, None], pts[k], moved)


def plan_updates(
    scenario: Scenario,
    trajectory: Trajectory,
    alphabet: ReflectionAlphabet,
    time_step_s: float = _TIME_STEP_S,
) -> UpdateSchedule:
    """Event-driven reconfiguration schedule for a moving user.

    At t = 0 the surface is optimized for the start point and its focus
    ellipse computed; a new event fires at the first sampled instant (1 ms
    resolution) the user leaves the current ellipse. Event positions lie on
    the trajectory polyline exactly. The 1 ms samples are evaluated in blocks
    of instants, positions and the inside test as arrays; after an exit the
    rest of the block is tested against the new ellipse, so the events are
    identical to testing one sample at a time.
    """
    if not (math.isfinite(time_step_s) and time_step_s > 0.0):
        raise ValidationError("time step must be finite and > 0")
    pts, cumulative = _polyline(trajectory)
    total_time = float(cumulative[-1]) / trajectory.speed_mps
    if not math.isfinite(total_time / time_step_s):
        raise ValidationError(f"trajectory time {total_time} s is not a finite number of steps")

    def reconfigure(t: float, position: Vec3) -> tuple[UpdateEvent, FocusEllipse]:
        config = optimize_config(scenario, position, alphabet)
        ellipse = focus_ellipse(scenario, config, cartesian_to_spherical(position))
        event = UpdateEvent(
            t_s=t,
            position=position,
            config_hash=config_fingerprint(config),
            rho_a=ellipse.rho_a,
            rho_r=ellipse.rho_r,
        )
        return event, ellipse

    start = Vec3.from_array(_positions_at(pts, cumulative, np.zeros(1))[0])
    event, ellipse = reconfigure(0.0, start)
    events = [event]

    steps = int(math.floor(total_time / time_step_s + 1e-9))
    for first in range(1, steps + 1, _BLOCK_STEPS):
        times = np.arange(first, min(first + _BLOCK_STEPS, steps + 1)) * time_step_s
        positions = _positions_at(pts, cumulative, times * trajectory.speed_mps)
        i = 0
        while True:
            outside = np.flatnonzero(~ellipse.contains(positions[i:]))
            if outside.size == 0:
                break
            i += int(outside[0])
            event, ellipse = reconfigure(float(times[i]), Vec3.from_array(positions[i]))
            events.append(event)
            i += 1
    return UpdateSchedule(tuple(events))
