import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rissim.errors import ValidationError
from rissim.geom import (
    SphericalCoord,
    Vec3,
    cartesian_to_spherical,
    hex_layout,
    spherical_to_cartesian,
)


def _oracle_cartesian(r, az_deg, el_deg):
    az, el = math.radians(az_deg), math.radians(el_deg)
    return (
        r * math.cos(el) * math.cos(az),
        r * math.cos(el) * math.sin(az),
        r * math.sin(el),
    )


class TestSphericalToCartesian:
    def test_boresight_axis(self):
        v = spherical_to_cartesian(SphericalCoord(1.0, 0.0, 0.0))
        assert (v.x, v.y, v.z) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)

    def test_user_point_geometry(self):
        v = spherical_to_cartesian(SphericalCoord(1.4, 40.0, -16.0))
        assert (v.x, v.y, v.z) == pytest.approx((1.031, 0.865, -0.386), abs=1e-3)
        assert v.z == pytest.approx(-0.39, abs=0.01)
        assert (v.x, v.y, v.z) == pytest.approx(_oracle_cartesian(1.4, 40.0, -16.0), rel=1e-12)

    def test_feed_location(self):
        v = spherical_to_cartesian(SphericalCoord(1.86, -36.0, 0.0))
        assert (v.x, v.y, v.z) == pytest.approx((1.505, -1.093, 0.0), abs=1e-3)


class TestCartesianToSpherical:
    def test_x_axis(self):
        s = cartesian_to_spherical(Vec3(1.0, 0.0, 0.0))
        assert (s.r, s.azimuth_deg, s.elevation_deg) == pytest.approx((1.0, 0.0, 0.0))

    def test_y_axis(self):
        s = cartesian_to_spherical(Vec3(0.0, 1.0, 0.0))
        assert (s.r, s.azimuth_deg, s.elevation_deg) == pytest.approx((1.0, 90.0, 0.0))

    def test_inverse_of_user_point(self):
        s = cartesian_to_spherical(Vec3(1.031, 0.865, -0.386))
        assert s.r == pytest.approx(1.4, abs=2e-3)
        assert s.azimuth_deg == pytest.approx(40.0, abs=0.05)
        assert s.elevation_deg == pytest.approx(-16.0, abs=0.05)

    def test_z_axis_azimuth_defined_zero(self):
        s = cartesian_to_spherical(Vec3(0.0, 0.0, 2.5))
        assert s.azimuth_deg == 0.0
        assert s.elevation_deg == pytest.approx(90.0)

    def test_negative_x_axis_maps_to_plus_180(self):
        s = cartesian_to_spherical(Vec3(-1.0, 0.0, 0.0))
        assert s.azimuth_deg == 180.0
        s = cartesian_to_spherical(Vec3(-1.0, -0.0, 0.0))
        assert s.azimuth_deg == 180.0


def test_round_trip_many_points():
    rng = np.random.default_rng(2024)
    n = 10_000
    r = rng.uniform(0.1, 10.0, n)
    az = rng.uniform(-179.999, 180.0, n)
    el = rng.uniform(-90.0, 90.0, n)
    worst = 0.0
    for k in range(n):
        v = spherical_to_cartesian(SphericalCoord(r[k], az[k], el[k]))
        back = spherical_to_cartesian(cartesian_to_spherical(v))
        err = math.dist((v.x, v.y, v.z), (back.x, back.y, back.z)) / r[k]
        worst = max(worst, err)
    assert worst < 1e-9


@settings(max_examples=200)
@given(
    r=st.floats(0.1, 10.0),
    az=st.floats(-179.99, 180.0),
    el=st.floats(-90.0, 90.0),
)
def test_round_trip_property(r, az, el):
    v = spherical_to_cartesian(SphericalCoord(r, az, el))
    back = spherical_to_cartesian(cartesian_to_spherical(v))
    assert math.dist((v.x, v.y, v.z), (back.x, back.y, back.z)) <= 1e-9 * r


def test_spherical_validation():
    with pytest.raises(ValidationError):
        SphericalCoord(-1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        SphericalCoord(1.0, -180.0, 0.0)
    with pytest.raises(ValidationError):
        SphericalCoord(1.0, 0.0, 91.0)
    with pytest.raises(ValidationError):
        Vec3(float("nan"), 0.0, 0.0)


class TestHexLayout:
    def test_single_element(self):
        layout = hex_layout(0, 8.7e-3, 6.6e-3, 6.6e-3)
        assert len(layout) == 1
        assert layout.elements[0] == Vec3(0.0, 0.0, 0.0)

    def test_one_ring(self):
        layout = hex_layout(1, 8.7e-3, 6.6e-3, 6.6e-3)
        assert len(layout) == 7
        dists = [math.hypot(e.y, e.z) for e in layout.elements[1:]]
        assert dists == pytest.approx([8.7e-3] * 6, rel=1e-12)

    @pytest.mark.parametrize("rings", range(9))
    def test_centered_hexagonal_count(self, rings):
        layout = hex_layout(rings, 8.7e-3, 6.6e-3, 6.6e-3)
        assert len(layout) == 3 * rings * (rings + 1) + 1

    def test_default_size_is_127(self):
        assert len(hex_layout(6, 8.7e-3, 6.6e-3, 6.6e-3)) == 127

    def test_min_pairwise_distance_equals_pitch(self):
        layout = hex_layout(6, 8.7e-3, 6.6e-3, 6.6e-3)
        pos = layout.positions
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        dist[np.diag_indices(len(layout))] = np.inf
        assert abs(dist.min() - 8.7e-3) < 1e-12

    def test_all_elements_in_plane(self):
        layout = hex_layout(5, 1e-2, 6.6e-3, 6.6e-3)
        assert all(e.x == 0.0 for e in layout.elements)

    def test_sixty_degree_rotation_closure(self):
        layout = hex_layout(4, 8.7e-3, 6.6e-3, 6.6e-3)
        pos = layout.positions[:, 1:]  # (y, z)
        c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
        rotated = pos @ np.array([[c, s], [-s, c]])
        for p in rotated:
            assert np.min(np.linalg.norm(pos - p[None, :], axis=1)) < 1e-9

    def test_ordering_center_then_ccw_from_plus_y(self):
        layout = hex_layout(2, 1.0, 6.6e-3, 6.6e-3)
        assert layout.elements[0] == Vec3(0.0, 0.0, 0.0)
        assert layout.elements[1].y == pytest.approx(1.0)
        assert layout.elements[1].z == pytest.approx(0.0)
        ring1 = layout.elements[1:7]
        angles = np.unwrap([math.atan2(e.z, e.y) for e in ring1])
        assert np.all(np.diff(angles) > 0)  # counterclockwise walk
        assert angles[0] == pytest.approx(0.0)
        # second ring starts on the +y axis as well
        assert layout.elements[7].y == pytest.approx(2.0)
        assert layout.elements[7].z == pytest.approx(0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            hex_layout(3, 0.0, 6.6e-3, 6.6e-3)
        with pytest.raises(ValidationError):
            hex_layout(-1, 1e-3, 6.6e-3, 6.6e-3)
        with pytest.raises(ValidationError):
            hex_layout(3, 1e-3, 0.0, 6.6e-3)
        inf = math.inf
        for args in ((inf, 6.6e-3, 6.6e-3), (8.7e-3, inf, 6.6e-3), (8.7e-3, 6.6e-3, inf)):
            with pytest.raises(ValidationError, match="must be finite and > 0"):
                hex_layout(6, *args)
