"""Coordinate conventions and hexagonal element layouts.

The reflecting surface lies in the yz-plane with its normal along +x and its
center element at the origin. Azimuth is measured in the xy-plane from +x
toward +y, elevation from the xy-plane toward +z; both are degrees in the
public API. Azimuth of a point on the z-axis is defined as 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

# Unit steps around a hexagon, counterclockwise from +y (y, z components).
# cos/sin of the 60-degree multiples, kept as exact symmetric constants so
# that rotating the lattice by 60 degrees maps element centers onto each
# other to float precision.
_HALF_SQRT3 = math.sqrt(3.0) / 2.0
_HEX_COS = (1.0, 0.5, -0.5, -1.0, -0.5, 0.5)
_HEX_SIN = (0.0, _HALF_SQRT3, _HALF_SQRT3, 0.0, -_HALF_SQRT3, -_HALF_SQRT3)


def read_only(array: np.ndarray) -> np.ndarray:
    """The array itself, made read-only because it is shared or cached."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Vec3:
    """Cartesian point/vector in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValidationError(f"non-finite coordinate: ({self.x}, {self.y}, {self.z})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @staticmethod
    def from_array(arr) -> "Vec3":
        return Vec3(float(arr[0]), float(arr[1]), float(arr[2]))

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


@dataclass(frozen=True)
class SphericalCoord:
    """Range r (m), azimuth in (-180, 180] and elevation in [-90, 90] degrees."""

    r: float
    azimuth_deg: float
    elevation_deg: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValidationError(f"range must be finite and >= 0, got {self.r}")
        if not -180.0 < self.azimuth_deg <= 180.0:
            raise ValidationError(f"azimuth {self.azimuth_deg} outside (-180, 180]")
        if not -90.0 <= self.elevation_deg <= 90.0:
            raise ValidationError(f"elevation {self.elevation_deg} outside [-90, 90]")


@dataclass(frozen=True)
class RisLayout:
    """Element center positions and the effective element dimensions d_y, d_z in meters."""

    elements: tuple[Vec3, ...]
    d_y: float
    d_z: float

    @cached_property
    def positions(self) -> np.ndarray:
        """(M, 3) array of element centers; read-only."""
        return read_only(np.array([[e.x, e.y, e.z] for e in self.elements]))

    def __len__(self) -> int:
        return len(self.elements)


def spherical_to_cartesian(s: SphericalCoord) -> Vec3:
    az = math.radians(s.azimuth_deg)
    el = math.radians(s.elevation_deg)
    return Vec3(
        s.r * math.cos(el) * math.cos(az),
        s.r * math.cos(el) * math.sin(az),
        s.r * math.sin(el),
    )


def cartesian_to_spherical(v: Vec3) -> SphericalCoord:
    r = v.norm()
    az = math.degrees(math.atan2(v.y, v.x))
    if az <= -180.0:  # atan2 returns -pi for (-x, -0.0); fold onto +180
        az = 180.0
    el = math.degrees(math.atan2(v.z, math.hypot(v.x, v.y)))
    return SphericalCoord(r, az, el)


def hex_layout(rings: int, pitch: float, d_y: float, d_z: float) -> RisLayout:
    """Centered hexagonal lattice in the yz-plane.

    Element count is 3*rings*(rings+1) + 1. Ordering: center first, then
    rings outward, each ring walked counterclockwise starting from its +y
    corner. One nearest-neighbor axis is aligned with +y so regenerated
    layouts index identically.
    """
    if rings < 0:
        raise ValidationError(f"rings must be >= 0, got {rings}")
    if not (math.isfinite(pitch) and pitch > 0.0):
        raise ValidationError(f"pitch must be finite and > 0, got {pitch}")
    if not all(math.isfinite(d) and d > 0.0 for d in (d_y, d_z)):
        raise ValidationError("element dimensions must be finite and > 0")

    steps = [(_HEX_COS[j] * pitch, _HEX_SIN[j] * pitch) for j in range(6)]
    pts: list[Vec3] = [Vec3(0.0, 0.0, 0.0)]
    for k in range(1, rings + 1):
        y, z = k * steps[0][0], k * steps[0][1]
        for j in range(6):
            dy, dz = steps[(j + 2) % 6]
            for _ in range(k):
                pts.append(Vec3(0.0, y, z))
                y, z = y + dy, z + dz
    return RisLayout(tuple(pts), d_y, d_z)
