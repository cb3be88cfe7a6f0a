import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from opfsets.convexify import conv1, convex_polygon_from_points
from opfsets.density import (cap_oracle, cap_union_oracle, double_cap_oracle,
                             select_dense_cells)
from opfsets.search import double_cap_cellset
from opfsets.sphere import (Cap, GeodesicSegment, InfeasibleShrinkError,
                            OutOfHemisphereError, cap_area, from_polar,
                            geodesic_distance, gnomonic_project_batch,
                            gnomonic_unproject, lune_half_angle,
                            sample_uniform_batch, spherical_polygon_area,
                            tangent_basis, to_polar)

angles = st.floats(0.0, math.pi, allow_nan=False)
azimuths = st.floats(0.0, 2.0 * math.pi, exclude_max=True, allow_nan=False)


def is_unit(v) -> bool:
    return abs(float(v @ v) - 1.0) <= 3e-12


@given(angles, azimuths)
@settings(max_examples=200)
def test_polar_round_trip(theta, phi):
    v = from_polar(theta, phi)
    assert is_unit(v)
    t2, p2 = to_polar(v)
    # arccos conditioning near the poles limits theta recovery to ~sqrt(eps)
    assert abs(t2 - theta) < 1e-7
    assert np.allclose(v, from_polar(t2, p2), atol=1e-7)
    # phi is unrecoverable at the poles
    if 1e-9 < theta < math.pi - 1e-9:
        dphi = (p2 - phi) % (2.0 * math.pi)
        assert min(dphi, 2.0 * math.pi - dphi) < 1e-9


def test_geodesic_distance_basics():
    e1, e3 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    assert geodesic_distance(e1, e1) == 0.0
    assert abs(geodesic_distance(e1, e3) - math.pi / 2) < 1e-15
    assert abs(geodesic_distance(e1, -e1) - math.pi) < 1e-15
    # near 0 and pi, where acos of the dot product is ~1e-9 off
    assert geodesic_distance(e3, from_polar(1e-9, 0.3)) == pytest.approx(1e-9, rel=1e-12)
    assert abs(geodesic_distance(e3, from_polar(math.pi - 1e-9, 0.3))
               - (math.pi - 1e-9)) < 1e-15


@given(angles, azimuths, angles, azimuths)
@settings(max_examples=200)
@example(math.pi - 4e-16, 0.0, 1e-9, 0.0)  # near-antipodes broke the triangle with acos
def test_distance_symmetry_and_triangle(t1, p1, t2, p2):
    u, v = from_polar(t1, p1), from_polar(t2, p2)
    w = np.array([0.3, -0.2, 0.93]) / math.sqrt(0.3**2 + 0.2**2 + 0.93**2)
    duv = geodesic_distance(u, v)
    assert duv == geodesic_distance(v, u)
    assert duv <= geodesic_distance(u, w) + geodesic_distance(w, v) + 1e-12


def test_cap_area_values():
    assert cap_area(0.0) == 0.0
    assert abs(cap_area(math.pi) - 4.0 * math.pi) < 1e-14
    # a quarter-circle cap covers half the double-cap fraction 1 - 1/sqrt(2)
    assert abs(cap_area(math.pi / 4) / (4 * math.pi) - (1 - 0.5**0.5) / 2) < 1e-15
    with pytest.raises(ValueError):
        cap_area(-0.1)


def test_cap_checks_its_center():
    # a centre of norm 2 gave level-3 cell (2, 0) exact density 0 and Monte Carlo density 1
    with pytest.raises(ValueError, match="unit 3-vector"):
        cap_oracle(np.array([0.0, 0.0, 2.0]), 0.5)
    for center in ([0.0, 0.0, 1.0 + 1e-9], [math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0],
                   [0.0, 1.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="unit 3-vector"):
            Cap(np.array(center), 0.5)
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    assert Cap(axis, 0.5).center is axis and Cap(from_polar(0.3, 0.4), math.pi).radius == math.pi


def test_segment_interpolation_endpoints():
    a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    seg = GeodesicSegment(a, b)
    assert np.allclose(seg.point_at(0.0), a)
    assert np.allclose(seg.point_at(1.0), b)
    mid = seg.point_at(0.5)
    assert abs(geodesic_distance(a, mid) - seg.length() / 2) < 1e-12


def test_tangent_basis_orientation():
    for c in (np.array([0.0, 0.0, 1.0]), np.ones(3) / math.sqrt(3.0), np.array([0.0, -1.0, 0.0])):
        e1, e2 = tangent_basis(c)
        assert abs(e1 @ e2) < 1e-12
        assert abs(e1 @ c) < 1e-12
        assert np.allclose(np.cross(e1, e2), c)


@given(angles.filter(lambda t: t < 1.2), azimuths)
@settings(max_examples=200)
def test_gnomonic_round_trip(theta, phi):
    center = np.array([0.0, 0.0, 1.0])
    p = from_polar(theta, phi)
    x, y = gnomonic_project_batch(center, p[None])[0]
    q = gnomonic_unproject(center, x, y)
    # arccos resolution limits recovered distances to ~sqrt(eps)
    assert np.allclose(p, q, atol=1e-12)
    assert geodesic_distance(p, q) < 1e-7


def test_gnomonic_rejects_far_points():
    center = np.array([0.0, 0.0, 1.0])
    with pytest.raises(OutOfHemisphereError):
        gnomonic_project_batch(center, np.array([1.0, 0.0, 0.0])[None])
    with pytest.raises(OutOfHemisphereError):
        gnomonic_project_batch(center, np.array([[0.0, 0.0, -1.0]]))


def test_gnomonic_maps_arcs_to_lines():
    center = np.array([0.0, 0.0, 1.0])
    a, b = from_polar(0.8, 0.3), from_polar(0.6, 2.0)
    seg = GeodesicSegment(a, b)
    pa, pb = gnomonic_project_batch(center, np.stack([a, b]))
    for t in (0.25, 0.5, 0.75):
        pm = gnomonic_project_batch(center, seg.point_at(t)[None])[0]
        cross = (pb - pa)[0] * (pm - pa)[1] - (pb - pa)[1] * (pm - pa)[0]
        assert abs(cross) < 1e-9


def test_lune_half_angle():
    # at the equator the rotation equals the shrink itself
    assert abs(lune_half_angle(0.01, math.pi / 2) - math.asin(math.sin(0.01))) < 1e-15
    assert lune_half_angle(0.0, 1.0) == 0.0
    with pytest.raises(InfeasibleShrinkError):
        lune_half_angle(0.2, 0.1)
    with pytest.raises(ValueError):
        lune_half_angle(0.1, 0.0)


def test_octant_triangle_area():
    tri = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    assert abs(spherical_polygon_area(tri) - math.pi / 2) < 1e-12


def test_polygon_area_rejects_hemisphere_spill():
    quad = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
            np.array([-1.0, 0.001, 0.0]) / math.hypot(1.0, 0.001), np.array([0.0, -1.0, 0.0])]
    with pytest.raises(ValueError):
        spherical_polygon_area(quad)


def loop_polygon_area(vertices) -> float:
    """The per-vertex Girard loop spherical_polygon_area replaced, as it was."""
    verts = np.asarray(vertices, dtype=float)
    n = len(verts)
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    centroid = verts.sum(axis=0)
    norm = np.linalg.norm(centroid)
    if norm < 1e-12:
        raise ValueError("vertices do not determine a hemisphere (centroid is zero)")
    centroid = centroid / norm
    if np.any(verts @ centroid <= 0.0):
        raise ValueError("vertices do not fit in one open hemisphere")
    angle_sum = 0.0
    for i in range(n):
        v = verts[i]
        a = verts[(i - 1) % n]
        b = verts[(i + 1) % n]
        ta = a - (a @ v) * v
        tb = b - (b @ v) * v
        na, nb = np.linalg.norm(ta), np.linalg.norm(tb)
        if na < 1e-12 or nb < 1e-12:
            raise ValueError("repeated or antipodal adjacent vertices")
        angle_sum += math.acos(max(-1.0, min(1.0, float(ta @ tb) / (na * nb))))
    return angle_sum - (n - 2) * math.pi


def _conv1_polygons():
    """Hulls of the double cap at levels 2-6, the pipeline_demo level-4
    selection and the level-4 caps about (1, 2, 2) / 3 and its antipode."""
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    selections = [double_cap_cellset(level) for level in range(2, 7)]
    selections.append(select_dense_cells(double_cap_oracle(), 4, 0.01).selected)
    selections.append(select_dense_cells(
        cap_union_oracle([Cap(axis, math.pi / 4.0), Cap(-axis, math.pi / 4.0)]),
        4, 0.01).selected)
    return [poly for sel in selections for poly in conv1(sel).polygons]


def test_polygon_area_bit_equal_to_loop_on_conv1_polygons():
    polys = _conv1_polygons()
    assert len(polys) == 14 and max(len(p) for p in polys) == 4096
    for poly in polys:
        assert spherical_polygon_area(poly.vertices) == loop_polygon_area(poly.vertices)


@settings(max_examples=200, deadline=None)
@given(angles, azimuths, st.floats(0.01, 1.5),
       st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                min_size=3, max_size=60))
def test_polygon_area_bit_equal_to_loop_on_random_hulls(theta, phi, spread, xy):
    center = from_polar(theta, phi)
    e1, e2 = tangent_basis(center)
    planar = np.asarray(xy) * math.tan(spread)
    pts = center + planar[:, :1] * e1 + planar[:, 1:] * e2
    try:
        poly = convex_polygon_from_points(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    except ValueError:
        assume(False)
    for verts in (poly.vertices, poly.vertices[::-1], np.asfortranarray(poly.vertices)):
        assert _area_or_error(spherical_polygon_area, verts) \
            == _area_or_error(loop_polygon_area, verts)


def _area_or_error(area, verts):
    try:
        return area(verts)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("verts, message", [
    ([[1.0, 0, 0], [0, 1.0, 0]], "at least 3"),
    ([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]], "centroid is zero"),
    ([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0.001, 0], [0, -1.0, 0]], "open hemisphere"),
    ([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], "repeated"),
])
def test_polygon_area_errors_match_loop(verts, message):
    for area in (spherical_polygon_area, loop_polygon_area):
        with pytest.raises(ValueError, match=message):
            area(verts)


def test_uniform_sampling_moments():
    rng = np.random.default_rng(7)
    pts = sample_uniform_batch(rng, 200_000)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # all three coordinates have mean 0 and variance 1/3
    assert np.abs(pts.mean(axis=0)).max() < 0.01
    assert np.abs((pts**2).mean(axis=0) - 1.0 / 3.0).max() < 0.01
    single = sample_uniform_batch(rng, 1)[0]
    assert is_unit(single)

