"""Core spherical geometry: points, geodesic distance, caps, projections, sampling.

Points on the unit sphere are plain numpy arrays of shape (3,) with unit norm.
All areas are in steradians (total 4*pi); callers that want the normalized
convention divide by SPHERE_AREA.

Floating-point policy: double precision with explicit tolerances.
Construction/normalization is checked at 1e-12, geometric round-trips at
1e-10, and geometric predicates default to 1e-9.  arccos inputs are always
clamped to [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORMALIZATION_TOL = 1e-12
PREDICATE_TOL = 1e-9

TWO_PI = 2.0 * math.pi
SPHERE_AREA = 4.0 * math.pi

NORTH_POLE = np.array([0.0, 0.0, 1.0])


class OutOfHemisphereError(ValueError):
    """Point is not strictly inside the open hemisphere of a projection."""


class InfeasibleShrinkError(ValueError):
    """Requested shrink distance cannot be realized at this colatitude."""


def from_polar(theta: float, phi: float) -> np.ndarray:
    """Unit vector from colatitude theta in [0, pi] and azimuth phi."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def to_polar(v: np.ndarray) -> tuple[float, float]:
    """(theta, phi) with theta in [0, pi], phi in [0, 2*pi)."""
    theta = math.acos(max(-1.0, min(1.0, float(v[2]))))
    phi = math.atan2(float(v[1]), float(v[0])) % TWO_PI
    if phi >= TWO_PI:
        phi = 0.0
    return theta, phi


def geodesic_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Length of the smaller great-circle arc between u and v, in [0, pi].

    atan2 of |u x v| and u . v stays accurate near 0 and pi, where acos of
    the dot product loses half the digits (1e-9 off for near-antipodes).
    """
    (a, b, c), (d, e, f) = u.tolist(), v.tolist()
    return math.atan2(math.hypot(b * f - c * e, c * d - a * f, a * e - b * d),
                      a * d + b * e + c * f)


def cap_area(radius: float) -> float:
    """Area 2*pi*(1 - cos r) of a geodesic disc of the given radius."""
    if radius < 0.0:
        raise ValueError(f"cap radius must be nonnegative, got {radius}")
    return TWO_PI * (1.0 - math.cos(radius))


@dataclass(frozen=True)
class Cap:
    """Open geodesic disc {p : p . center > cos(radius)}: a unit center, radius in radians."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        norm = np.linalg.norm(self.center) if np.shape(self.center) == (3,) else math.nan
        if not abs(norm - 1.0) <= NORMALIZATION_TOL:  # NaN and inf fail too
            raise ValueError(f"cap center must be a finite unit 3-vector, got {self.center}")
        if not 0.0 < self.radius <= math.pi:
            raise ValueError(f"cap radius must be in (0, pi], got {self.radius}")


@dataclass(frozen=True)
class GeodesicSegment:
    """Minor great-circle arc between two non-antipodal endpoints."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if geodesic_distance(self.a, self.b) >= math.pi - NORMALIZATION_TOL:
            raise ValueError("antipodal endpoints do not define a unique segment")

    def length(self) -> float:
        return geodesic_distance(self.a, self.b)

    def point_at(self, t: float) -> np.ndarray:
        """Point at parameter t in [0, 1] along the arc (spherical interpolation)."""
        omega = self.length()
        if omega < NORMALIZATION_TOL:
            return self.a.copy()
        s = math.sin(omega)
        return (math.sin((1.0 - t) * omega) * self.a + math.sin(t * omega) * self.b) / s


def tangent_basis(center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent frame (e1, e2) at center with e1 x e2 = center."""
    helper = NORTH_POLE if abs(float(center[2])) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, center)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    return e1, e2


def gnomonic_project_batch(center: np.ndarray, points: np.ndarray,
                           basis: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Central projection of an (n, 3) array onto the tangent plane at center.

    Returns (n, 2).  Maps great-circle arcs through the open hemisphere to
    straight planar segments; every point must be within pi/2 of center.
    """
    d = points @ center
    if np.any(d <= NORMALIZATION_TOL):
        raise OutOfHemisphereError("some points are not strictly inside the open hemisphere")
    e1, e2 = tangent_basis(center) if basis is None else basis
    return np.stack([(points @ e1) / d, (points @ e2) / d], axis=1)


def gnomonic_unproject(center: np.ndarray, x: float, y: float,
                       basis: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    e1, e2 = tangent_basis(center) if basis is None else basis
    v = center + x * e1 + y * e2
    return v / np.linalg.norm(v)


def lune_half_angle(shrink: float, colatitude: float) -> float:
    """Azimuthal rotation needed so a meridian clears the original by >= shrink.

    By the spherical law of sines the rotation omega satisfies
    sin(omega) = sin(shrink) / sin(colatitude); every point of the rotated
    meridian at colatitude >= this one is then at distance >= shrink from the
    original meridian's great circle.
    """
    if not 0.0 < colatitude < math.pi:
        raise ValueError(f"colatitude must be in (0, pi), got {colatitude}")
    if shrink < 0.0:
        raise ValueError(f"shrink must be nonnegative, got {shrink}")
    s = math.sin(shrink)
    sc = math.sin(colatitude)
    if s > sc:
        raise InfeasibleShrinkError(
            f"sin(shrink)={s:.6g} exceeds sin(colatitude)={sc:.6g}")
    return math.asin(min(1.0, s / sc))


def _running_sum(x: np.ndarray) -> float:
    """Left-to-right sum, as a loop adds; np.sum's pairwise order changes the last bits."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rowwise x[k] @ y[k], each through the same BLAS dot as a 1-D x[k] @ y[k]."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def spherical_polygon_area(vertices) -> float:
    """Girard area of a convex geodesic polygon: sum of interior angles - (n-2)*pi.

    Vertices must be ordered consistently and lie within one open hemisphere.
    One array pass over the vertices, bit for bit the per-vertex loop: row
    dots from one BLAS dot each, norms as their square roots (what
    np.linalg.norm of a vector computes), math.acos per angle (np.arccos may
    differ in the last bit) and a left-to-right sum.
    """
    verts = np.asarray(vertices, dtype=float)
    n = len(verts)
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    centroid = verts.sum(axis=0)
    norm = np.linalg.norm(centroid)
    if norm < NORMALIZATION_TOL:
        raise ValueError("vertices do not determine a hemisphere (centroid is zero)")
    centroid = centroid / norm
    if np.any(verts @ centroid <= 0.0):
        raise ValueError("vertices do not fit in one open hemisphere")
    verts = np.ascontiguousarray(verts)
    a = np.roll(verts, 1, axis=0)                # previous vertex
    b = np.roll(verts, -1, axis=0)               # next vertex
    ta = a - _row_dots(a, verts)[:, None] * verts
    tb = b - _row_dots(b, verts)[:, None] * verts
    na, nb = np.sqrt(_row_dots(ta, ta)), np.sqrt(_row_dots(tb, tb))
    if np.any(na < NORMALIZATION_TOL) or np.any(nb < NORMALIZATION_TOL):
        raise ValueError("repeated or antipodal adjacent vertices")
    cosines = np.clip(_row_dots(ta, tb) / (na * nb), -1.0, 1.0)
    angles = np.array([math.acos(c) for c in cosines.tolist()])
    return _running_sum(angles) - (n - 2) * math.pi


def _unit_points(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(len(u), 3) unit vectors at heights u = cos(theta) and azimuths phi."""
    s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    return np.stack([s * np.cos(phi), s * np.sin(phi), u], axis=1)


def sample_uniform_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) array of points uniform on the sphere."""
    z = 1.0 - 2.0 * rng.random(n)
    return _unit_points(z, TWO_PI * rng.random(n))
