import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import plan_updates_stepwise
from rissim import planner
from rissim.errors import BeamNotResolvedError, GeometryError, ValidationError
from rissim.geom import RisLayout, SphericalCoord, Vec3, spherical_to_cartesian
from rissim.linkbudget import AntennaPattern, ReflectionCoefficient, Scenario
from rissim.optimizer import ACTIVE, REFLECTIVE, uniform_config
from rissim.planner import (
    _BLOCK_STEPS,
    FocusEllipse,
    Trajectory,
    arc_waypoints,
    focus_ellipse,
    plan_updates,
    radial_waypoints,
    rho_azimuth,
    rho_radial,
    update_interval,
)


def _oracle_rho_radial(height, theta_deg, beta_deg):
    lo = math.radians(theta_deg - beta_deg / 2.0)
    hi = math.radians(theta_deg + beta_deg / 2.0)
    return 0.5 * (height / math.tan(lo) - height / math.tan(hi))


_HEIGHT = "^surface must sit a finite height above the user plane$"


class TestRhoRadial:
    def test_vanishes_with_the_beamwidth(self):
        assert rho_radial(0.0, -0.39, 16.0, 1e-9) == pytest.approx(0.0, abs=1e-9)

    def test_reference_geometry(self):
        got = rho_radial(0.0, -0.39, 16.0, 7.0)
        assert got == pytest.approx(0.329, abs=0.005)
        assert got == pytest.approx(_oracle_rho_radial(0.39, 16.0, 7.0), rel=1e-12)
        # same height difference expressed from the other side
        assert rho_radial(0.39, 0.0, 16.0, 7.0) == pytest.approx(got, rel=1e-12)

    def test_negative_elevation_uses_magnitude(self):
        assert rho_radial(0.0, -0.39, -16.0, 7.0) == pytest.approx(
            rho_radial(0.0, -0.39, 16.0, 7.0), rel=1e-15
        )

    def test_linear_in_height_difference(self):
        assert rho_radial(0.0, -0.78, 16.0, 7.0) == pytest.approx(
            2.0 * rho_radial(0.0, -0.39, 16.0, 7.0), rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(GeometryError):
            rho_radial(0.0, -0.39, 3.0, 7.0)  # lower edge at or below horizontal
        with pytest.raises(GeometryError):
            rho_radial(0.0, -0.39, 88.0, 7.0)  # upper edge past vertical
        with pytest.raises(GeometryError):
            rho_radial(0.0, 0.39, 16.0, 7.0)  # user plane above the surface
        for beta in (0.0, -7.0):
            with pytest.raises(GeometryError, match=f"^beamwidth must be > 0, got {beta}$"):
                rho_radial(0.0, -0.39, 16.0, beta)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.inf, -0.39, 16.0, 7.0), _HEIGHT),
            ((0.0, -math.inf, 16.0, 7.0), _HEIGHT),
            ((math.nan, -0.39, 16.0, 7.0), _HEIGHT),
            ((0.0, -0.39, math.nan, 7.0), "^half-power cone"),
            ((0.0, -0.39, 16.0, math.inf), "^half-power cone"),
        ],
        ids=["inf-surface", "inf-user", "nan-surface", "nan-elevation", "inf-beamwidth"],
    )
    def test_non_finite_inputs_rejected(self, args, message):
        with pytest.raises(GeometryError, match=message):
            rho_radial(*args)

    def test_monotone_in_beamwidth(self):
        widths = np.linspace(1.0, 20.0, 30)
        values = [rho_radial(0.0, -0.39, 16.0, float(b)) for b in widths]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestRhoAzimuth:
    def test_reference_geometry(self):
        got = rho_azimuth(1.4, 8.0)
        assert got == pytest.approx(0.098, abs=0.002)
        assert got == pytest.approx(1.4 * math.tan(math.radians(4.0)), rel=1e-12)

    def test_vanishes_with_the_beamwidth(self):
        assert rho_azimuth(1.4, 1e-9) == pytest.approx(0.0, abs=1e-9)

    def test_linear_in_range(self):
        assert rho_azimuth(2.8, 8.0) == pytest.approx(2.0 * rho_azimuth(1.4, 8.0), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(GeometryError):
            rho_azimuth(0.0, 8.0)
        with pytest.raises(GeometryError):
            rho_azimuth(1.4, 180.0)

    @pytest.mark.parametrize("range_m", [math.inf, math.nan])
    def test_non_finite_range_rejected(self, range_m):
        with pytest.raises(GeometryError, match=f"^range must be finite and > 0, got {range_m}$"):
            rho_azimuth(range_m, 8.0)

    def test_monotone_in_beamwidth(self):
        widths = np.linspace(0.5, 90.0, 40)
        values = [rho_azimuth(1.4, float(a)) for a in widths]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestUpdateInterval:
    def test_reference_values(self):
        assert update_interval(0.09, 1.0) == 0.09
        assert update_interval(0.40, 1.0) == 0.40

    def test_speed_halves_interval(self):
        assert update_interval(0.09, 2.0) == pytest.approx(0.045, rel=1e-15)

    @settings(max_examples=100)
    @given(rho=st.floats(1e-6, 10.0), speed=st.floats(1e-3, 20.0))
    def test_product_recovers_distance(self, rho, speed):
        assert update_interval(rho, speed) * speed == pytest.approx(rho, rel=1e-12)

    def test_rejects_bad_speed(self):
        with pytest.raises(ValidationError):
            update_interval(0.09, 0.0)

    @pytest.mark.parametrize("speed", [math.inf, math.nan, -1.0])
    def test_rejects_non_finite_speed(self, speed):
        with pytest.raises(ValidationError, match=f"^speed must be finite and > 0, got {speed}$"):
            update_interval(0.09, speed)

    @pytest.mark.parametrize("rho", [math.inf, math.nan, -0.09, 0.0])
    def test_rejects_bad_semi_axis(self, rho):
        with pytest.raises(
            ValidationError, match=f"^ellipse semi-axes must be finite and > 0, got {rho}$"
        ):
            update_interval(rho, 1.0)


class TestFocusEllipse:
    def test_reference_focus_region(self, scenario, active_p2, p2):
        ellipse = focus_ellipse(scenario, active_p2, p2)
        assert ellipse.rho_a == pytest.approx(0.09, abs=0.02)
        assert ellipse.rho_r == pytest.approx(0.33, abs=0.06)
        center = spherical_to_cartesian(p2)
        assert ellipse.center == center
        # orientation: horizontal unit vector pointing outward at the target
        assert math.hypot(ellipse.orientation.x, ellipse.orientation.y) == pytest.approx(1.0)
        assert ellipse.orientation.z == 0.0
        assert math.degrees(
            math.atan2(ellipse.orientation.y, ellipse.orientation.x)
        ) == pytest.approx(p2.azimuth_deg, abs=1e-9)

    def test_contains_its_center(self, scenario, active_p2, p2):
        ellipse = focus_ellipse(scenario, active_p2, p2)
        assert ellipse.contains(ellipse.center.as_array())
        # boundary behavior along both axes
        on_r = Vec3(
            ellipse.center.x + 0.999 * ellipse.rho_r * ellipse.orientation.x,
            ellipse.center.y + 0.999 * ellipse.rho_r * ellipse.orientation.y,
            ellipse.center.z,
        )
        out_r = Vec3(
            ellipse.center.x + 1.001 * ellipse.rho_r * ellipse.orientation.x,
            ellipse.center.y + 1.001 * ellipse.rho_r * ellipse.orientation.y,
            ellipse.center.z,
        )
        assert ellipse.contains(on_r.as_array())
        assert not ellipse.contains(out_r.as_array())

    def test_unresolved_beam_propagates(self):
        layout = RisLayout((Vec3(0.0, 0.0, 0.0),), d_y=6.6e-3, d_z=6.6e-3)
        scenario = Scenario(
            frequency_hz=23.8e9,
            tx_power_dbm=10.0,
            bs_position=Vec3(1.86, 0.0, 0.0),
            bs_pattern=AntennaPattern(19.0, 0.0),
            ue_pattern=AntennaPattern(3.2, 0.0),
            element_pattern=AntennaPattern(0.0, 0.0),
            layout=layout,
        )
        config = uniform_config(layout, ReflectionCoefficient(0.3, 0.0))
        with pytest.raises(BeamNotResolvedError):
            focus_ellipse(scenario, config, SphericalCoord(1.4, 10.0, -16.0))

    def test_target_on_the_surface_axis_rejected(self, scenario, active_p2):
        with pytest.raises(GeometryError, match="^target sits on the surface axis"):
            focus_ellipse(scenario, active_p2, SphericalCoord(0.0, 0.0, 0.0))

    def test_semi_axis_validation(self):
        with pytest.raises(ValidationError):
            FocusEllipse(Vec3(1, 0, 0), 0.0, 0.3, Vec3(1, 0, 0), 10.0, 10.0)

    @pytest.mark.parametrize(
        "rho_a, rho_r", [(math.inf, 0.3), (0.09, math.inf), (math.nan, 0.3), (0.09, math.nan)]
    )
    def test_non_finite_semi_axes_rejected(self, rho_a, rho_r):
        # an infinite ellipse contains every point, so the user would never leave it
        with pytest.raises(ValidationError, match="^ellipse semi-axes must be finite and > 0$"):
            FocusEllipse(Vec3(1, 0, 0), rho_a, rho_r, Vec3(1, 0, 0), 10.0, 10.0)


def _arc(doc, start_name, end_name):
    return arc_waypoints(doc.targets[start_name], doc.targets[end_name])


class TestPlanUpdates:
    def test_stationary_trajectory_single_event(self, scenario, doc, p2):
        start = spherical_to_cartesian(p2)
        schedule = plan_updates(scenario, Trajectory((start, start), 1.0), ACTIVE)
        assert len(schedule.events) == 1
        assert schedule.events[0].t_s == 0.0
        assert schedule.mean_interval_s is None

    def test_azimuth_arc_interval(self, scenario, doc):
        schedule = plan_updates(scenario, Trajectory(_arc(doc, "P2", "P1"), 1.0), ACTIVE)
        assert schedule.mean_interval_s == pytest.approx(0.090, abs=0.020)
        times = [e.t_s for e in schedule.events]
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_radial_motion_interval(self, scenario, doc, p2):
        start = spherical_to_cartesian(p2)
        horiz = math.hypot(start.x, start.y)
        ux, uy = start.x / horiz, start.y / horiz
        end = Vec3(start.x + 0.8 * ux, start.y + 0.8 * uy, start.z)
        schedule = plan_updates(scenario, Trajectory((start, end), 1.0), ACTIVE)
        assert len(schedule.events) >= 2
        assert 0.30 <= schedule.mean_interval_s <= 0.43

    def test_events_lie_on_the_path_and_cover_it(self, scenario, doc):
        waypoints = _arc(doc, "P2", "P1")
        schedule = plan_updates(scenario, Trajectory(waypoints, 1.0), ACTIVE)
        pts = np.array([[w.x, w.y, w.z] for w in waypoints])
        seg = np.diff(pts, axis=0)
        lengths = np.sqrt(np.sum(seg * seg, axis=-1))
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        for e in schedule.events:
            s = e.t_s * 1.0  # speed 1 m/s
            k = min(int(np.searchsorted(cum, s, side="right")) - 1, len(cum) - 2)
            frac = (s - cum[k]) / (cum[k + 1] - cum[k])
            expect = pts[k] + frac * (pts[k + 1] - pts[k])
            assert math.dist((e.position.x, e.position.y, e.position.z), tuple(expect)) < 1e-9

    def test_user_stays_inside_current_ellipse(self, scenario, doc):
        waypoints = _arc(doc, "P2", "P1")
        schedule = plan_updates(scenario, Trajectory(waypoints, 1.0), ACTIVE)
        pts = np.array([[w.x, w.y, w.z] for w in waypoints])
        seg = np.diff(pts, axis=0)
        lengths = np.sqrt(np.sum(seg * seg, axis=-1))
        cum = np.concatenate([[0.0], np.cumsum(lengths)])

        def pos_at(t):
            s = min(t, cum[-1])
            k = min(int(np.searchsorted(cum, s, side="right")) - 1, len(cum) - 2)
            frac = (s - cum[k]) / (cum[k + 1] - cum[k])
            p = pts[k] + frac * (pts[k + 1] - pts[k])
            return Vec3(float(p[0]), float(p[1]), float(p[2]))

        for a, b in zip(schedule.events, schedule.events[1:]):
            horiz = math.hypot(a.position.x, a.position.y)
            ellipse = FocusEllipse(
                a.position,
                a.rho_a,
                a.rho_r,
                Vec3(a.position.x / horiz, a.position.y / horiz, 0.0),
                alpha_deg=math.nan,  # not recorded in the schedule
                beta_deg=math.nan,
            )
            for t in np.linspace(a.t_s, b.t_s - 1e-3, 7):
                assert ellipse.contains(pos_at(float(t)).as_array())

    def test_trajectory_validation(self, scenario):
        p = Vec3(1.0, 0.5, -0.4)
        with pytest.raises(ValidationError):
            Trajectory((p,), 1.0)
        for speed in (0.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="^speed must be finite and > 0$"):
                Trajectory((p, p), speed)
        with pytest.raises(ValidationError):
            Trajectory((p, Vec3(1.0, 0.5, 0.4)), 1.0)
        for step in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(ValidationError, match="^time step must be finite and > 0$"):
                plan_updates(scenario, Trajectory((p, p), 1.0), ACTIVE, time_step_s=step)
        path = Trajectory((p, Vec3(1.0, 1.5, -0.4)), 1.0)
        with pytest.raises(ValidationError, match="^trajectory time 1.0 s is not a finite number"):
            plan_updates(scenario, path, ACTIVE, time_step_s=1e-320)


def _line(start: Vec3, toward: Vec3, length: float) -> tuple[Vec3, Vec3]:
    d = math.hypot(toward.x - start.x, toward.y - start.y)
    ux, uy = (toward.x - start.x) / d, (toward.y - start.y) / d
    return (start, Vec3(start.x + length * ux, start.y + length * uy, start.z))


def _oracle_paths(doc):
    """{name: (waypoints, speed)} of the paths the blocked planner is checked on."""
    p1, p2 = (spherical_to_cartesian(doc.targets[n]) for n in ("P1", "P2"))
    arc = _arc(doc, "P2", "P1")
    mid = arc[len(arc) // 2]
    arc_length = sum(math.dist(a.as_array(), b.as_array()) for a, b in zip(arc, arc[1:]))
    return {
        "arc": (arc, 1.0),
        "radial": (radial_waypoints(doc.targets["P2"], 0.8), 1.0),
        "line": (_line(p1, p2, 0.3), 1.0),
        "repeated_waypoints": ((p2, mid, mid, p1, p1), 1.0),
        # 0.25 m, exact in binary: the 250th sample lands on the end point
        "exact_multiple": ((Vec3(1.25, 0.25, -0.39), Vec3(1.25, 0.5, -0.39)), 1.0),
        # about 2.5 blocks of samples, so exits fall in several blocks
        "blocks": (arc, arc_length / (2.5 * _BLOCK_STEPS * 1e-3)),
    }


_ORACLE_PATH_NAMES = ["arc", "radial", "line", "repeated_waypoints", "exact_multiple", "blocks"]


class TestBlockedPlannerMatchesStepwise:
    @pytest.mark.parametrize("alphabet", [REFLECTIVE, ACTIVE], ids=lambda a: a.name)
    @pytest.mark.parametrize("name", _ORACLE_PATH_NAMES)
    def test_same_schedule(self, scenario, doc, alphabet, name):
        waypoints, speed = _oracle_paths(doc)[name]
        trajectory = Trajectory(waypoints, speed)
        schedule = plan_updates(scenario, trajectory, alphabet)
        assert schedule == plan_updates_stepwise(scenario, trajectory, alphabet)
        assert len(schedule.events) >= 2
        if name == "blocks":
            assert {round(e.t_s / 1e-3) // _BLOCK_STEPS for e in schedule.events} >= {0, 1, 2}

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_block_size_does_not_change_the_schedule(self, scenario, doc, monkeypatch, block):
        # small blocks put exits on the first and last sample of a block
        monkeypatch.setattr(planner, "_BLOCK_STEPS", block)
        for name in _ORACLE_PATH_NAMES[:4]:
            trajectory = Trajectory(*_oracle_paths(doc)[name])
            expected = plan_updates_stepwise(scenario, trajectory, ACTIVE)
            assert plan_updates(scenario, trajectory, ACTIVE) == expected

    def test_slow_user_many_blocks(self, scenario, doc):
        # 0.05 m at 1 mm/s: 50 000 samples, about 49 blocks
        trajectory = Trajectory(radial_waypoints(doc.targets["P2"], 0.05), 1e-3)
        assert plan_updates(scenario, trajectory, ACTIVE) == plan_updates_stepwise(
            scenario, trajectory, ACTIVE
        )
