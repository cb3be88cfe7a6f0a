import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from opfsets import convexify
from opfsets.convexify import (ConvexDecomposition, ConvexPolygon,
                               HullInfeasibleError, check_pasch,
                               check_triangle_lemma, connected_components, conv,
                               conv1, conv2, convex_hull,
                               convex_polygon_from_points, certify_opf_polygons,
                               hausdorff_distance, polygon_distance)
from opfsets.grid import (CellSet, DyadicCell, cell_area, cell_bounds, neighbors,
                          theta_bounds, write_json)
from opfsets.search import double_cap_cellset
from opfsets.sphere import PREDICATE_TOL, from_polar


def ring_polygon(axis: np.ndarray, alpha: float, n: int = 4,
                 offset: float = 0.0) -> ConvexPolygon:
    """Regular n-gon inscribed in the circle of angular radius alpha about axis."""
    return circle_polygon(axis, alpha, offset + 2.0 * math.pi * np.arange(n) / n)


def circle_polygon(axis: np.ndarray, alpha: float, angles: np.ndarray) -> ConvexPolygon:
    """Polygon of the points at increasing angles on the circle of radius alpha about axis."""
    axis = axis / np.linalg.norm(axis)
    # build about +z then rotate z onto the axis
    local = np.stack([math.sin(alpha) * np.cos(angles),
                      math.sin(alpha) * np.sin(angles),
                      np.full(len(angles), math.cos(alpha))], axis=1)
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(z, axis)
    s = np.linalg.norm(v)
    if s < 1e-15:
        rot = np.eye(3) if axis[2] > 0 else np.diag([1.0, -1.0, -1.0])
    else:
        vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
        rot = np.eye(3) + vx + vx @ vx * ((1 - axis @ z) / s**2)
    return ConvexPolygon(local @ rot.T, axis)


def test_polygon_validation():
    z = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        ConvexPolygon(np.eye(3)[:2], z)  # fewer than 3 vertices
    with pytest.raises(HullInfeasibleError):
        # a vertex at distance pi/2 from the witness center
        ConvexPolygon(np.array([[1.0, 0, 0], [0, 1.0, 0], [0.6, 0, 0.8]]), z)


def test_octant_hull():
    tri = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    poly = convex_polygon_from_points(tri)
    assert len(poly) == 3
    assert poly.area() == pytest.approx(math.pi / 2, abs=1e-12)
    center = tri.sum(axis=0) / math.sqrt(3)
    assert poly.contains_batch((center / np.linalg.norm(center))[None])[0]
    assert not poly.contains_batch((-center / np.linalg.norm(center))[None])[0]
    inside = poly.contains_batch(np.stack([center, -center]) / np.linalg.norm(center))
    assert inside.tolist() == [True, False]


def test_hull_rejects_sphere_spanning_points():
    with pytest.raises(HullInfeasibleError):
        convex_polygon_from_points(np.array([[1.0, 0, 0], [-1.0, 0, 0],
                                             [0, 1.0, 0], [0, -1.0, 0]]))


def test_polygon_distance_exact_two_rings():
    alpha = 0.3
    p1 = ring_polygon(np.array([0.0, 0.0, 1.0]), alpha)
    p2 = ring_polygon(np.array([1.0, 0.0, 0.0]), alpha)
    lo = polygon_distance(p1, p2)
    # the nearest pair lies on the common great circle through the axes
    assert lo == pytest.approx(math.pi / 2 - 2 * alpha, abs=1e-9)
    # symmetry
    assert lo == pytest.approx(polygon_distance(p2, p1), abs=1e-12)


def test_polygon_distance_zero_on_overlap():
    p1 = ring_polygon(np.array([0.0, 0.0, 1.0]), 0.4)
    p2 = ring_polygon(from_polar(0.2, 0.0), 0.4, offset=0.3)
    assert polygon_distance(p1, p2) == 0.0


def test_polygon_distance_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(8):
        a1 = from_polar(rng.uniform(0, 0.4), rng.uniform(0, 2 * math.pi))
        a2 = from_polar(rng.uniform(1.2, 2.2), rng.uniform(0, 2 * math.pi))
        p1 = ring_polygon(a1, rng.uniform(0.1, 0.3), n=5, offset=rng.uniform(0, 1))
        p2 = ring_polygon(a2, rng.uniform(0.1, 0.3), n=5, offset=rng.uniform(0, 1))
        lo = polygon_distance(p1, p2)
        b1 = p1.boundary_samples(per_edge=60)
        b2 = p2.boundary_samples(per_edge=60)
        d = np.arccos(np.clip(b1 @ b2.T, -1, 1))
        # the closed form must not exceed the sampled minimum and sit close
        assert lo <= d.min() + 1e-9
        assert lo >= d.min() - 2e-3


def test_connected_components():
    # two touching cells merge; an isolated cell stays separate
    sel = CellSet(3, [(3, 0), (3, 1), (6, 9)])
    comps = connected_components(sel)
    assert [len(c) for c in comps] == [2, 1]
    # azimuthal wraparound joins the first and last sectors
    wrap = CellSet(3, [(3, 0), (3, 15)])
    assert len(connected_components(wrap)) == 1
    # all top-band cells meet at the pole
    polar = CellSet(3, [(0, s) for s in range(0, 16, 2)])
    assert len(connected_components(polar)) == 1


def test_convex_hull_covers_component():
    comp = CellSet(3, [(2, 1), (2, 2), (3, 1), (3, 2)])
    poly = convex_hull(comp)
    assert poly.area() >= comp.measure() - 1e-6
    with pytest.raises(ValueError):
        convex_hull(CellSet(3, []))
    with pytest.raises(ValueError, match="arc_samples"):
        convex_hull(comp, arc_samples=0)


def test_conv_double_cap_level3():
    sel = double_cap_cellset(3)
    result = conv(sel)
    assert len(result.decomposition) == 2
    assert result.merge_count == 0
    assert result.opf_violations == ()
    assert result.decomposition.pairwise_min_distance > math.pi / 2
    # hulls are inner approximations but cover almost all of the union
    assert result.output_measure >= result.input_measure - 1e-3
    assert result.output_measure <= result.input_measure + 1e-9
    # idempotence of the merge stage
    again, merges = conv2(result.decomposition)
    assert merges == 0
    assert len(again) == 2


def test_conv_empty_selection(tmp_path):
    result = conv(CellSet(3, []))
    assert len(result.decomposition) == 0
    assert result.output_measure == 0.0
    assert result.opf_violations == ()
    # conv's general path writes the bytes its old empty-selection shortcut wrote
    write_json(tmp_path / "empty.json", conv(CellSet(3, [])).to_json())
    assert (tmp_path / "empty.json").read_text() == (
        '{"decomposition":{"pairwise_min_distance":Infinity,"polygons":[]},'
        '"input_measure_sr":0.0,"merge_count":0,"opf_violations":[],"output_measure_sr":0.0}\n')


def test_conv2_merges_touching_hulls():
    level = 3
    left = convex_hull(CellSet(level, [(2, 1)]))
    right = convex_hull(CellSet(level, [(2, 2)]))
    decomp = ConvexDecomposition((left, right), convexify._distance_matrix((left, right)))
    assert decomp.pairwise_min_distance == polygon_distance(left, right) <= 1e-9
    merged, merges = conv2(decomp)
    assert merges == 1
    assert len(merged) == 1
    both = convex_hull(CellSet(level, [(2, 1), (2, 2)]))
    assert merged.polygons[0].area() == pytest.approx(both.area(), abs=1e-9)


def test_conv_merges_hull_that_swallows_a_cell():
    # the hull of a level-4 U of cells covers the separate cell (1, 2): the
    # two stage-1 polygons meet, and counting both would count the overlap twice
    u_shape = [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (3, 3), (3, 4), (2, 4), (1, 4)]
    selection = CellSet(4, u_shape + [(1, 2)])
    assert conv1(selection).pairwise_min_distance == 0.0
    result = conv(selection)
    assert len(result.decomposition) == 1 and result.merge_count == 1
    assert result.opf_violations == ()
    assert result.output_measure == 0.1927493526300168


def test_certify_flags_equator_straddling_polygon():
    # a polygon spanning more than a quarter circle contains orthogonal pairs
    big = convex_polygon_from_points(np.stack([
        from_polar(t, p) for t in (0.1, 1.0, 1.8) for p in (0.0, 0.3, 0.6)]))
    violations = certify_opf_polygons([big])
    assert (0, 0) in violations
    # and together with a polar polygon it also conflicts across
    small = ring_polygon(np.array([0.0, 0.0, 1.0]), 0.2)
    violations = certify_opf_polygons([small, big])
    assert (1, 1) in violations
    # a clean pair certifies
    assert certify_opf_polygons(conv1(double_cap_cellset(2)).polygons) == ()


def test_conv2_computes_each_pair_once(monkeypatch):
    # a U of cells whose hull swallows a separate cell, plus a far cell
    level = 3
    u_shape = ([(b, 0) for b in range(2, 7)] + [(b, 4) for b in range(2, 7)]
               + [(2, s) for s in range(1, 4)])
    selection = CellSet(level, u_shape + [(5, 2), (12, 10)])
    assert len(connected_components(selection)) == 3
    calls = []
    seen = []  # holds every polygon passed, so no id is reused mid-test
    real = convexify.polygon_distance

    def recording(p1, p2):
        seen.extend((p1, p2))
        calls.append((id(p1), id(p2)))
        return real(p1, p2)

    monkeypatch.setattr(convexify, "polygon_distance", recording)
    result = conv(selection)
    # three pairs in conv1, then only the merged polygon against the far one
    assert len(calls) == 4
    # no pair is evaluated twice, in either order
    assert len(set(calls) | {(b, a) for a, b in calls}) == 2 * len(calls)
    # values computed when conv1 and conv2 each built the distance matrix
    assert result.merge_count == 1
    assert [p.area() for p in result.decomposition.polygons] == [1.4212240826144864,
                                                                 0.05101986354085852]
    assert result.decomposition.pairwise_min_distance == 1.9546690339994526
    assert result.opf_violations == ((0, 0),)


def test_certify_two_rings_closed_form():
    # aligned squares inscribed in circles of radius alpha, axes beta apart:
    # extreme vertex distances are beta +- 2 alpha along the common circle
    rng = np.random.default_rng(41)
    z = np.array([0.0, 0.0, 1.0])
    checked = 0
    while checked < 200:
        alpha = rng.uniform(0.05, 1.2)
        beta = rng.uniform(0.01, math.pi - 2 * alpha)
        across = abs(beta - math.pi / 2) - 2 * alpha
        self_ = 2 * alpha - math.pi / 2
        if min(abs(across), abs(self_)) < 1e-6:
            continue
        violations = certify_opf_polygons(
            [ring_polygon(z, alpha), ring_polygon(from_polar(beta, 0.0), alpha)])
        assert ((0, 1) in violations) == (across <= 0.0)
        assert ((0, 0) in violations) == (self_ >= 0.0) == ((1, 1) in violations)
        checked += 1


def _random_polygon(rng) -> ConvexPolygon:
    """Hull of 3-8 gnomonic-uniform points about a random centre."""
    c = rng.normal(size=3)
    c /= np.linalg.norm(c)
    e1 = np.cross(c, [0.3, 0.5, 0.8])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)
    xy = rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 9)), 2)) * rng.uniform(0.05, 1.2)
    pts = c + xy[:, :1] * e1 + xy[:, 1:] * e2
    return convex_polygon_from_points(pts / np.linalg.norm(pts, axis=1, keepdims=True), c)


def test_certify_random_triples_pinned():
    # pinned from the earlier certificate, which went through exact
    # (min, max) polygon distances instead of vertex dot-product signs
    expected = [
        ((0, 1), (1, 2)), ((0, 1), (0, 2), (1, 2)), ((0, 2), (1, 2), (2, 2)),
        ((0, 1), (0, 2), (1, 2)), (), ((0, 1), (0, 2)), ((1, 2),),
        ((0, 1), (0, 2)), ((0, 1),), ((0, 1), (0, 2), (1, 2)), ((0, 2), (1, 2)),
        ((0, 1), (0, 2)), ((0, 1), (0, 2)), ((0, 1), (0, 2), (1, 2)),
        ((0, 1), (0, 2)), ((1, 2),), (), ((0, 2), (1, 2)), ((0, 1), (0, 2)),
        ((0, 1), (1, 2)), (), ((0, 1),), ((0, 1), (1, 2)), ((0, 2), (1, 2)),
    ]
    rng = np.random.default_rng(31)
    got = [certify_opf_polygons([_random_polygon(rng) for _ in range(3)])
           for _ in range(len(expected))]
    assert got == expected


def test_hausdorff_metric_properties():
    rng = np.random.default_rng(23)
    polys = []
    for _ in range(6):
        pts = np.stack([from_polar(rng.uniform(0, 0.5), rng.uniform(0, 2 * math.pi))
                        for _ in range(6)])
        polys.append(convex_polygon_from_points(pts))
    for p in polys:
        assert hausdorff_distance(p, p) == 0.0
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            dij = hausdorff_distance(polys[i], polys[j])
            assert dij == hausdorff_distance(polys[j], polys[i])
            assert dij > 0.0
    for a, b, c in ((0, 1, 2), (3, 4, 5), (0, 2, 4), (1, 3, 5)):
        dab = hausdorff_distance(polys[a], polys[b])
        dbc = hausdorff_distance(polys[b], polys[c])
        dac = hausdorff_distance(polys[a], polys[c])
        assert dac <= dab + dbc + 1e-6


def test_triangle_lemma_and_pasch_hold():
    decomp = conv1(double_cap_cellset(3))
    report = check_triangle_lemma(decomp, trials=200, seed=1)
    assert report.ok and report.trials == 200
    pasch = check_pasch(decomp.polygons[0], trials=200, seed=2)
    assert pasch.ok


def test_polygon_json_and_samples():
    poly = ring_polygon(np.array([0.0, 0.0, 1.0]), 0.3)
    doc = poly.to_json()
    assert len(doc["vertices"]) == len(poly)
    samples = poly.boundary_samples(per_edge=4)
    assert samples.shape == (16, 3)
    assert np.allclose(np.linalg.norm(samples, axis=1), 1.0, atol=1e-12)


# --- dense references: polygon_distance, its point-to-arc pass and crossing
# test before the k-d trees and the bounding caps, kept to pin the new code.
# Every dot is dot3's row-wise formula, the one polygon_distance evaluates on
# its candidate pairs, so the two take the minimum over the same doubles.

def dot3(x, y):
    """x . y over the last axis as (x0 y0 + x1 y1) + x2 y2, broadcasting; not BLAS."""
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def dense_dots(x, y):
    """Every x[i] . y[j], an (n1, n2) table of dot3 values."""
    return dot3(x[:, None], y[None])


def dense_points_arcs_min(points, a, b, n, tile=512):
    out = np.empty(len(points))
    length = np.arccos(np.clip(dot3(a, b), -1.0, 1.0))
    for r0 in range(0, len(points), tile):
        p = points[r0:r0 + tile]
        near = np.minimum(np.arccos(np.clip(dense_dots(p, a), -1.0, 1.0)),
                          np.arccos(np.clip(dense_dots(p, b), -1.0, 1.0)))
        pmin = near.min(axis=1)
        s = dense_dots(p, n)
        circ = np.arcsin(np.minimum(1.0, np.abs(s)))
        ii, ee = np.nonzero((circ < pmin[:, None])
                            & (near <= circ + length + convexify.FOOT_SLACK))
        if len(ii):
            feet = p[ii] - s[ii, ee, None] * n[ee]
            fn = np.linalg.norm(feet, axis=1)
            feet = feet / np.maximum(fn, 1e-12)[:, None]
            on = (fn > 1e-12) & convexify._on_arcs(feet, a[ee], b[ee], n[ee])
            np.minimum.at(pmin, ii[on], circ[ii[on], ee[on]])
        out[r0:r0 + tile] = pmin
    return out


def dense_arcs_cross(arcs1, arcs2):
    a1, b1, n1 = arcs1
    a2, b2, n2 = arcs2
    l1 = np.arccos(np.clip(dot3(a1, b1), -1.0, 1.0))
    l2 = np.arccos(np.clip(dot3(a2, b2), -1.0, 1.0))
    minend = np.arccos(np.clip(np.maximum.reduce([dense_dots(x, y) for x in (a1, b1)
                                                  for y in (a2, b2)]), -1.0, 1.0))
    ii, jj = np.nonzero(minend <= l1[:, None] + l2[None, :] + PREDICATE_TOL)
    if len(ii) == 0:
        return False
    A1, B1, N1 = a1[ii], b1[ii], n1[ii]
    A2, B2, N2 = a2[jj], b2[jj], n2[jj]
    cr = np.cross(N1, N2)
    ncr = np.linalg.norm(cr, axis=1)
    generic = ncr > 1e-12
    cr = cr / np.maximum(ncr, 1e-12)[:, None]
    on = convexify._on_arcs
    return any((generic & on(x, A1, B1, N1) & on(x, A2, B2, N2)).any() for x in (cr, -cr))


def dense_edge_arrays(poly):
    a = poly.vertices
    b = np.roll(a, -1, axis=0)
    n = np.cross(a, b)
    return a, b, n / np.maximum(np.linalg.norm(n, axis=1, keepdims=True), 1e-12)


def dense_polygon_distance(p1, p2):
    dmin = float(np.arccos(np.clip(dense_dots(p1.vertices, p2.vertices), -1.0, 1.0).max()))
    e1 = dense_edge_arrays(p1)
    e2 = dense_edge_arrays(p2)
    for poly, other, arcs in ((p1, p2, e2), (p2, p1, e1)):
        if other.contains_batch(poly.vertices).any():
            return 0.0
        dmin = min(dmin, float(dense_points_arcs_min(poly.vertices, *arcs).min()))
    if dmin > 0.0 and dense_arcs_cross(e1, e2):
        return 0.0
    return dmin


def _random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _axis_at(rng, axis, angle):
    """A unit vector at the given angle from axis, in a random direction."""
    t = np.cross(axis, _random_axis(rng))
    t /= np.linalg.norm(t)
    return math.cos(angle) * axis + math.sin(angle) * t


def _distance_cases(seed, count):
    """Seeded polygon pairs: far rings, near-touching, overlapping, nested,
    crossing (same circle, turned) and random hulls."""
    rng = np.random.default_rng(seed)
    kinds = ("far", "touch", "overlap", "nested", "crossing", "hull")
    for k in range(count):
        kind = kinds[k % len(kinds)]
        if kind == "hull":
            yield kind, _random_polygon(rng), _random_polygon(rng)
            continue
        n1, n2 = (int(x) for x in rng.integers(3, 41, size=2))
        r1, r2 = rng.uniform(0.02, 0.7, size=2)
        o1, o2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        c1 = _random_axis(rng)
        if kind == "far":
            gap = rng.uniform(r1 + r2, math.pi - 0.01)
        elif kind == "touch":
            # circumcircles within 1e-3 of touching; inscribed edges may still meet
            gap = r1 * math.cos(math.pi / n1) + r2 + rng.uniform(-1e-3, 1e-3)
        elif kind == "overlap":
            gap = rng.uniform(0.0, r1 + r2)
        elif kind == "nested":
            gap, r2 = 0.0, r1 * rng.uniform(0.05, 0.6) * math.cos(math.pi / n1)
        else:
            gap, r2, n2 = 0.0, r1, n1
            o2 = o1 + math.pi / n1 * rng.uniform(0.2, 1.8)
        c2 = _axis_at(rng, c1, gap) if gap > 0.0 else c1
        yield kind, ring_polygon(c1, r1, n1, o1), ring_polygon(c2, r2, n2, o2)


def test_polygon_distance_bit_identical_to_dense():
    zeros = apart = 0
    seen = set()
    for kind, p1, p2 in _distance_cases(seed=2024, count=2100):
        got = polygon_distance(p1, p2)
        assert got == dense_polygon_distance(p1, p2), kind
        zeros += got == 0.0
        apart += convexify._caps_apart(p1, p2)
        seen.add((kind, got == 0.0))
    # both outcomes occur for the near-touching pairs, and both cap branches run
    assert {("touch", True), ("touch", False), ("crossing", True), ("nested", True),
            ("far", False)} <= seen
    assert 200 <= zeros and 300 <= apart <= 2100 - 300


def _rotated(v, axis, angle):
    """v turned by angle about the unit axis (counterclockwise seen from outside)."""
    c, s = math.cos(angle), math.sin(angle)
    return v * c + np.cross(axis, v) * s + (v @ axis) * (1.0 - c) * axis


def _counterclockwise(verts):
    """A triangle's vertices, counterclockwise seen from outside, with their centre."""
    if np.linalg.det(verts) < 0.0:
        verts = verts[::-1]
    return ConvexPolygon(verts, verts.sum(axis=0) / np.linalg.norm(verts.sum(axis=0)))


def _reach_cases(seed, count):
    """Seeded pairs at the ends of the chord radii: nearly antipodal small
    rings (within 1e-3 of pi apart, some within FOOT_SLACK, where the radius
    is infinite), a vertex within 1e-9 of the containment tolerance of an
    edge midpoint, a vertex 1e-9 to 1e-6 past a vertex (arccos rounds by
    ~1e-8 there), and a ring just outside the one long arc of a polygon
    whose other arcs are short.  At the ends of the foot radius: a vertex
    whose foot on the long arc is half a piece from the nearest midpoint,
    at 1e-9 to 1e-6 under the nearest vertex pair ("half-piece"); a vertex
    on the perpendicular through an edge midpoint, within 0.03 of pi/2 on
    either side, so the vertex minimum is on either side of pi/2
    ("right-angle"); and a polygon with two vertices 1e-9 to 1e-6 apart in
    their distance from the other's nearest vertex ("vertex-pair")."""
    rng = np.random.default_rng(seed)
    kinds = ("antipodal", "graze", "corner", "long-arc", "half-piece", "right-angle",
             "vertex-pair")
    for k in range(count):
        kind = kinds[k % len(kinds)]
        c1 = _random_axis(rng)
        n1, n2 = (int(x) for x in rng.integers(3, 41, size=2))
        o1, o2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        if kind == "antipodal":
            # half of them so small that d + FOOT_SLACK passes pi
            r1, r2, g = 10.0 ** rng.uniform(-9.0, (-3.5, -6.5)[k // len(kinds) % 2], size=3)
            yield kind, ring_polygon(c1, r1, n1, o1), \
                ring_polygon(_axis_at(rng, c1, math.pi - g), r2, n2, o2)
            continue
        if kind == "long-arc":
            # the closing arc spans an azimuth gap of 1-2.5 rad, the rest are short
            r1, gap = rng.uniform(0.3, 1.0), rng.uniform(1.0, 2.5)
            turn = np.sort(rng.uniform(0.0, 2.0 * math.pi - gap, size=int(rng.integers(20, 200))))
            p1 = circle_polygon(c1, r1, np.concatenate([[0.0], turn, [2.0 * math.pi - gap]]))
            a, b, n = (x[-1] for x in p1.edges)
            mid = (a + b) / np.linalg.norm(a + b)
            r2, past = rng.uniform(0.01, 0.3), rng.uniform(1e-4, 0.3)
            c2 = math.cos(past + r2) * mid - math.sin(past + r2) * n
            yield kind, p1, ring_polygon(c2, r2, n2, o2)
            continue
        if kind == "half-piece":
            # the closing arc a -> b spans 1-2.5 rad of azimuth and the others
            # are equal and short, so its pieces are the longest.  w is circ
            # out from a piece boundary, u circ + eps out from b, x farther
            # out: every point of the triangle is at least circ from the
            # arc's circle, so the foot of w is nearest and (u, b) is the
            # nearest vertex pair
            r1, gap = rng.uniform(0.3, 1.0), rng.uniform(1.0, 2.5)
            turn = np.linspace(0.0, 2.0 * math.pi - gap, int(rng.integers(20, 200)))
            p1 = circle_polygon(c1, r1, turn)
            a, b, n = (x[-1] for x in p1.edges)
            length, edge, piece, _ = p1.arc_tree
            pieces = int(np.count_nonzero(edge == len(p1) - 1))
            assert float(length[-1]) / pieces == piece
            t = piece * int(rng.integers(1, pieces))
            foot = math.cos(t) * a + math.sin(t) * np.cross(n, a)
            circ, eps = rng.uniform(0.02, 1.2), 10.0 ** rng.uniform(-9.0, -6.0)
            far = (foot + b) / np.linalg.norm(foot + b)
            verts = np.stack([math.cos(circ) * foot - math.sin(circ) * n,
                              math.cos(circ + eps) * b - math.sin(circ + eps) * n,
                              math.cos(circ + 0.3) * far - math.sin(circ + 0.3) * n])
            yield kind, p1, _counterclockwise(verts)
            continue
        r1, r2 = rng.uniform(0.02, 1.0, size=2)
        p1 = ring_polygon(c1, r1, n1, o1)
        a, b = p1.vertices[0], p1.vertices[1]
        if kind == "graze":
            # the vertex sits on the perpendicular through the edge midpoint,
            # where contains_batch's tolerance ends, give or take 1e-9
            foot = (a + b) / np.linalg.norm(a + b)
            edge_cross = np.linalg.norm(np.cross(a, b))
            past = PREDICATE_TOL / edge_cross + rng.uniform(-1e-9, 1e-9)
        elif kind == "right-angle":
            foot = (a + b) / np.linalg.norm(a + b)
            past = math.pi / 2.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -1.5)
        elif kind == "vertex-pair":
            # p2's vertex w is past out from a, and a second vertex of p1, at
            # azimuth phi from a, is past + delta from w:
            # cos d(w, a') = cos(past) - (1 - cos(phi)) sin(r1) sin(r1 + past)
            foot, past = a, rng.uniform(1e-3, 0.5)
            delta = 10.0 ** rng.uniform(-9.0, -6.0)
            half = 2.0 * math.sin(past + delta / 2.0) * math.sin(delta / 2.0)
            phi = 2.0 * math.asin(math.sqrt(half / (2.0 * math.sin(r1) * math.sin(r1 + past))))
            p1 = circle_polygon(c1, r1, o1 + np.concatenate(
                [[0.0, phi], 2.0 * math.pi * np.arange(1, n1) / n1]))
        else:
            foot, past = a, 10.0 ** rng.uniform(-9.0, -6.0)
        # w is past beyond foot on the circle from c1, and p2's vertex
        # nearest p1: its centre is r2 farther along
        out = (foot @ c1) * foot - c1
        out /= np.linalg.norm(out)
        w = math.cos(past) * foot + math.sin(past) * out
        c2 = math.cos(past + r2) * foot + math.sin(past + r2) * out
        verts = np.stack([_rotated(w, c2, 2.0 * math.pi * j / n2) for j in range(n2)])
        yield kind, p1, ConvexPolygon(verts, c2)


def test_polygon_distance_at_the_chord_radius_ends():
    seen = set()
    for kind, p1, p2 in _reach_cases(seed=7, count=700):
        got = polygon_distance(p1, p2)
        assert got == dense_polygon_distance(p1, p2) == polygon_distance(p2, p1), kind
        pairs = np.sort(np.arccos(np.clip(dense_dots(p1.vertices, p2.vertices),
                                          -1.0, 1.0)), axis=None)
        vertex_min = float(pairs[0])
        if kind == "half-piece":
            assert 5e-10 < vertex_min - got < 2e-6
        if kind == "vertex-pair":
            assert got == vertex_min and 5e-10 < pairs[1] - pairs[0] < 2e-6
        seen.add((kind, got == 0.0, got < vertex_min,
                  math.isinf(convexify._chord(got + convexify.FOOT_SLACK)),
                  kind == "right-angle" and vertex_min > math.pi / 2.0))
    # a finite and an infinite radius near pi, both sides of the containment
    # tolerance, feet on the long arc nearer than any vertex, and a vertex
    # minimum on both sides of pi/2, with a foot nearer below it
    assert {("antipodal", False, False, False, False), ("antipodal", False, False, True, False),
            ("graze", True, True, False, False), ("graze", False, True, False, False),
            ("corner", True, False, False, False), ("corner", False, False, False, False),
            ("long-arc", False, True, False, False), ("half-piece", False, True, False, False),
            ("right-angle", False, True, False, False), ("right-angle", False, False, False, True),
            ("vertex-pair", False, False, False, False)} <= seen


THREADS_SCRIPT = """
import sys
import numpy as np
from opfsets.convexify import ConvexPolygon, polygon_distance
pairs = np.load(sys.argv[1])
for k in range(len(pairs.files) // 4):
    p1 = ConvexPolygon(pairs[f"v1_{k}"], pairs[f"c1_{k}"])
    p2 = ConvexPolygon(pairs[f"v2_{k}"], pairs[f"c2_{k}"])
    print(polygon_distance(p1, p2).hex())
"""


def _nearest_last_but_two(poly, towards):
    """poly with its vertices turned so the one nearest towards is third from last."""
    k = len(poly) - 3 - int(np.argmax(poly.vertices @ towards))
    return ConvexPolygon(np.roll(poly.vertices, k, axis=0), poly.hemisphere_center)


def test_polygon_distance_bits_do_not_depend_on_blas_threads(tmp_path):
    # vertex counts off a multiple of 8, up to ~2 400, and the nearest
    # vertices in the last columns of a product, the gemm kernels' remainder:
    # there the products of the earlier code rounded some entries otherwise
    # with 2 OpenBLAS threads than with 1, and 2 of these distances moved
    rng = np.random.default_rng(88)
    arrays, expected = {}, []
    for k in range(120):
        n1, n2 = (int(x) for x in 8 * rng.integers(1, 300, size=2) + rng.integers(1, 8, size=2))
        r1, r2 = rng.uniform(0.05, 0.6, size=2)
        c1 = _random_axis(rng)
        gap = (r1 + r2 + rng.uniform(1e-6, 1.0),
               r1 * math.cos(math.pi / n1) + r2 + rng.uniform(-1e-3, 1e-3))[k % 2]
        p1 = ring_polygon(c1, r1, n1, rng.uniform(0, 1))
        p2 = ring_polygon(_axis_at(rng, c1, gap), r2, n2, rng.uniform(0, 1))
        p1 = _nearest_last_but_two(p1, p2.hemisphere_center)
        p2 = _nearest_last_but_two(p2, c1)
        arrays.update({f"v1_{k}": p1.vertices, f"c1_{k}": p1.hemisphere_center,
                       f"v2_{k}": p2.vertices, f"c2_{k}": p2.hemisphere_center})
        expected.append(polygon_distance(p1, p2).hex())
    np.savez(tmp_path / "pairs.npz", **arrays)
    src = str(Path(convexify.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", THREADS_SCRIPT, str(tmp_path / "pairs.npz")],
                             env=env, capture_output=True, text=True, check=True)
        assert run.stdout.split() == expected, threads
    assert sum(float.fromhex(d) > 0.0 for d in expected) >= 60


def test_double_cap_distance_bit_identical_to_dense():
    for level in (3, 4):
        p1, p2 = conv1(double_cap_cellset(level)).polygons
        assert convexify._caps_apart(p1, p2)
        assert polygon_distance(p1, p2) == dense_polygon_distance(p1, p2)


def test_points_arcs_min_bit_identical_to_dense():
    rng = np.random.default_rng(5)
    for _, p1, p2 in _distance_cases(seed=6, count=60):
        pts = np.vstack([p1.vertices, p1.boundary_samples(per_edge=int(rng.integers(1, 40)))])
        assert np.array_equal(convexify._points_arcs_min(pts, *p2.edges),
                              dense_points_arcs_min(pts, *dense_edge_arrays(p2)))
    big = conv1(double_cap_cellset(3)).polygons[0]   # 512 vertices, several tiles
    pts = big.boundary_samples(per_edge=3)
    assert np.array_equal(convexify._points_arcs_min(pts, *big.edges),
                          dense_points_arcs_min(pts, *dense_edge_arrays(big)))


def _axis_at_direction(p, towards, angle, turn):
    """The point angle away from p, heading turn radians off the way to towards."""
    t = towards - (towards @ p) * p
    t /= np.linalg.norm(t)
    u = np.cross(p, t)
    d = math.cos(turn) * t + math.sin(turn) * u
    return math.cos(angle) * p + math.sin(angle) * d


def test_reach_covers_widened_acute_vertex():
    # past the apex of a thin triangle, contains_batch admits points up to
    # tol / (|a x b| sin(theta/2)) away: farther than tol / min |a x b|
    apex, theta, side = from_polar(0.6, 0.0), 1e-3, 0.5
    north = np.array([0.0, 0.0, 1.0])
    base = [_axis_at_direction(apex, north, side, sign * theta / 2) for sign in (1, -1)]
    tri = convex_polygon_from_points(np.stack([apex, *base]))
    a, b, _ = tri.edges
    norms = np.linalg.norm(np.cross(a, b), axis=1)
    centre, radius = tri.bounding_cap
    assert radius == pytest.approx(math.acos(apex @ centre), abs=1e-12)
    apex_side = np.linalg.norm(np.cross(apex, base[0]))
    reach_past_apex = PREDICATE_TOL / (apex_side * math.sin(theta / 2))
    beyond = _axis_at_direction(apex, north, -0.9 * reach_past_apex, 0.0)
    assert tri.contains_batch(beyond[None])[0]
    past = math.acos(np.clip(beyond @ centre, -1.0, 1.0))
    assert past > radius + math.asin(PREDICATE_TOL / norms.min())
    assert past <= tri.reach


def full_gram_certify(polygons):
    polys = list(polygons)
    return tuple((i, j) for i in range(len(polys)) for j in range(i, len(polys))
                 if (polys[i].vertices @ polys[j].vertices.T).min() <= 0.0
                 <= (polys[i].vertices @ polys[j].vertices.T).max())


def test_certify_cap_shortcut_matches_full_gram():
    rng = np.random.default_rng(77)
    decided = 0
    for _ in range(300):
        # caps within 1e-3 of a decision limit: 2 R1 = pi/2 for the self pair,
        # delta -+ (R1 + R2) = pi/2 for the cross pair
        r1 = math.pi / 4 + rng.uniform(-5e-4, 5e-4)
        r2 = rng.uniform(0.05, 0.7)
        side = rng.choice([-1.0, 1.0])
        delta = math.pi / 2 + side * (r1 + r2) + rng.uniform(-1e-3, 1e-3)
        c1 = _random_axis(rng)
        polys = [ring_polygon(c1, r1, int(rng.integers(3, 41)), rng.uniform(0, 7)),
                 ring_polygon(_axis_at(rng, c1, delta), r2, int(rng.integers(3, 41)),
                              rng.uniform(0, 7)),
                 _random_polygon(rng)]
        assert certify_opf_polygons(polys) == full_gram_certify(polys)
        for i in range(3):
            for j in range(i, 3):
                if convexify._caps_decide_sign(polys[i], polys[j]):
                    decided += 1
                    gram = polys[i].vertices @ polys[j].vertices.T
                    assert gram.min() > 0.0 or gram.max() < 0.0
    assert 300 <= decided <= 6 * 300 - 300


def test_double_cap_certified_by_caps_alone():
    polys = conv1(double_cap_cellset(4)).polygons
    assert all(convexify._caps_decide_sign(polys[i], polys[j])
               for i, j in ((0, 0), (0, 1), (1, 1)))
    assert certify_opf_polygons(polys) == full_gram_certify(polys) == ()


def loop_boundary_points(component, arc_samples):
    pts = []
    for cell in (DyadicCell(component.level, b, s) for b, s in component):
        tlo, thi = theta_bounds(cell)
        _, (plo, phi) = cell_bounds(cell)
        for theta in (tlo, thi):
            if theta == 0.0 or theta == math.pi:
                pts.append(from_polar(theta, plo))
                continue
            for j in range(arc_samples + 1):
                pts.append(from_polar(theta, plo + (phi - plo) * j / arc_samples))
    return np.asarray(pts)


def loop_components(selection):
    remaining = set(selection)
    components = []
    while remaining:
        seed = min(remaining)
        stack, comp = [seed], [seed]
        remaining.discard(seed)
        while stack:
            b, s = stack.pop()
            for nb in neighbors(DyadicCell(selection.level, b, s)):
                key = (nb.band, nb.sector)
                if key in remaining:
                    remaining.discard(key)
                    comp.append(key)
                    stack.append(key)
        components.append(CellSet(selection.level, comp))
    return sorted(components, key=lambda c: next(iter(c)))


def _random_selections(seed, count):
    rng = np.random.default_rng(seed)
    for k in range(count):
        level = int(rng.integers(0, 5))
        n = 2 ** (level + 1)
        keep = rng.random((n, n)) < rng.uniform(0.05, 0.6)
        if k % 3 == 0:
            keep[[0, -1]] |= rng.random((2, n)) < 0.5     # populate the pole bands
        yield CellSet(level, [tuple(c) for c in np.argwhere(keep)])


def test_components_and_boundary_points_match_loops():
    cases = 0
    for sel in _random_selections(seed=9, count=120):
        comps = connected_components(sel)
        assert comps == loop_components(sel)
        for comp in comps:
            for samples in (1, 8, 32):
                # the stream convex_hull sums for the centre, tile by tile
                tiles = convexify._component_boundary_points(comp, samples)
                assert np.array_equal(np.concatenate([pts for pts, _ in tiles]),
                                      loop_boundary_points(comp, samples))
                cases += 1
    assert cases > 1000
    assert connected_components(CellSet(2, [])) == []
    # level 0: two bands, both at a pole
    assert len(connected_components(CellSet(0, [(0, 0), (1, 1)]))) == 1


def _hull_or_error(hull, *args):
    """(vertices, centre) of hull(*args), or the HullInfeasibleError it raises."""
    try:
        poly = hull(*args)
    except HullInfeasibleError as exc:
        return str(exc)
    return poly.vertices, poly.hemisphere_center


def test_convex_hull_is_the_hull_of_every_sample():
    # qhull gets no sample strictly inside an arc that two member cells
    # share, yet the polygon, down to qhull's first vertex, and the
    # exception are those of the full sample array
    cases = errors = stacked = at_pole = 0
    for sel in _random_selections(seed=23, count=150):
        n = 2 ** (sel.level + 1)
        for comp in connected_components(sel):
            cells = comp.array()
            stacked += len(comp) == 2 and cells[0, 1] == cells[1, 1]
            at_pole += bool(np.isin(cells[:, 0], (0, n - 1)).any())
            for samples in (1, 8, 32):
                got = _hull_or_error(convex_hull, comp, samples)
                want = _hull_or_error(convex_polygon_from_points,
                                      loop_boundary_points(comp, samples))
                if isinstance(want, str):
                    assert got == want
                    errors += 1
                else:
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
                cases += 1
    assert cases >= 1000 and 100 <= errors <= cases - 500
    assert stacked >= 20 and at_pole >= 50


# sha256 of the write_json bytes of conv(double_cap_cellset(level)).to_json(),
# computed with the dense polygon_distance and the loop hull inputs
CONV_SHA256 = {
    3: "77fd69acca8beec896370646d1d4a694681dc80e9773001e90d65dd9367a50af",
    4: "4b39301b2c85156028c2b40116e28fe22845b1337882f758ec5594060e45979b",
    5: "c690a4a2da74d2537843d7ff573e4a032c3ffb1cd35fd02642cb3c017f16f498",
}


def _conv_sha256(result) -> str:
    doc = json.dumps(result.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("level", sorted(CONV_SHA256))
def test_conv_double_cap_json_pinned(level):
    assert _conv_sha256(conv(double_cap_cellset(level))) == CONV_SHA256[level]


def test_conv_double_cap_level6_pinned():
    result = conv(double_cap_cellset(6))
    assert len(result.decomposition) == 2
    assert result.decomposition.pairwise_min_distance == 1.604005555607237
    assert result.merge_count == 0 and result.opf_violations == ()
    # taken with the full n1 x n2 Gram matrices and the per-vertex area loop
    assert _conv_sha256(result) == \
        "d7b77b72bc32869f5e8114890dc2a70b644a5a9549538f9b38514de3a704123c"


def test_conv_double_cap_level7_pinned_in_bounded_memory():
    # two 8 192-vertex polygons: the full Gram matrices took a ~1.05 GB peak
    selection = double_cap_cellset(7)
    tracemalloc.start()
    try:
        result = conv(selection)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2**20
    assert _conv_sha256(result) == \
        "95616971307276f5ef42f0e258efbbbacb120d7d8ff3025936577590de79f082"


def test_conv_double_cap_level8_pinned_in_bounded_memory():
    # two 16 384-vertex polygons; pinned, at a 184 MB traced peak, when
    # polygon_distance still walked the vertex Gram matrix in row tiles.
    # Hulled from tiles of cells, without the samples inside shared arcs,
    # conv peaks at ~25 MB
    selection = double_cap_cellset(8)
    tracemalloc.start()
    try:
        result = conv(selection)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60 * 2**20
    assert _conv_sha256(result) == \
        "21bdfafc354fed78ea5a6b92e4fd7eab52630de303eeb6aaf0b57a37b5c1691f"


def test_conv_double_cap_level9_pinned_in_bounded_memory():
    # two 32 768-vertex polygons; pinned when convex_hull still held every
    # sample of a cap in one array and sent it all to qhull, at a 744 MB
    # traced peak
    selection = double_cap_cellset(9)
    tracemalloc.start()
    try:
        result = conv(selection)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2**20
    assert _conv_sha256(result) == \
        "531c8ca8fcb58229c305675befa94986180866128fa2c34cd0b7299b61085b9a"


def old_polygon_json(poly) -> dict:
    """ConvexPolygon.to_json as it was, through a 17-digit round trip."""
    return {"vertices": [[float(f"{x:.17g}") for x in v] for v in poly.vertices],
            "hemisphere_center": [float(f"{x:.17g}") for x in poly.hemisphere_center]}


def test_polygon_json_matches_17_digit_form():
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2**64, size=(4096, 2), dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits).all(axis=1)]
    special = np.array([[-0.0, 0.0], [5e-324, -5e-324], [2.2250738585072014e-308, 1e308],
                        [-1e308, 1.7976931348623157e308], [0.1, 1 / 3]])
    xy = np.vstack([special, bits])
    # z = 1 keeps every vertex in the hemisphere of the +z witness
    weird = ConvexPolygon(np.column_stack([xy, np.ones(len(xy))]), np.array([0.0, -0.0, 1.0]))
    polys = [weird, *conv1(double_cap_cellset(4)).polygons,
             ring_polygon(from_polar(1.0, 2.0), 0.3, n=7)]
    for poly in polys:
        new, old = poly.to_json(), old_polygon_json(poly)
        assert json.dumps(new) == json.dumps(old)
        assert all(type(x) is float for v in new["vertices"] for x in v)


class _Area:
    def __init__(self, value):
        self.value = value

    def area(self):
        return self.value


def test_total_area_adds_left_to_right():
    # 1.0 + 1e-16 rounds back to 1.0 twice; the compensated sum of builtin
    # sum from Python 3.12 on (and math.fsum) gives 1.0000000000000002
    parts = tuple(_Area(x) for x in (1.0, 1e-16, 1e-16))
    assert ConvexDecomposition(parts, np.zeros((3, 3))).total_area() == 1.0
    assert math.fsum(p.area() for p in parts) > 1.0
    assert ConvexDecomposition((), convexify._distance_matrix(())).total_area() == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 191, 192, 383, 384, 385, 576, 1000])
def test_gram_tiles_cover_the_product(n):
    tiles = convexify._tiles(n)
    assert [r0 for r0, _ in tiles] == [k * convexify.GRAM_TILE for k in range(len(tiles))]
    assert tiles[-1][1] == n and all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
    assert len(tiles) == 1 or min(r1 - r0 for r0, r1 in tiles) >= convexify.GRAM_TILE
    # small integer entries: every product is exact, whatever path BLAS takes
    rng = np.random.default_rng(n)
    x = rng.integers(-9, 10, size=(n, 3)).astype(float)
    y = rng.integers(-9, 10, size=(37, 3)).astype(float)
    full = x @ y.T
    assert np.array_equal(np.vstack([g for _, g in convexify._gram_tiles(x, y)]), full)


def test_multi_tile_distances_match_dense():
    # rings of 256-1024 vertices, several row tiles of the tree queries,
    # placed far, all but touching, overlapping and crossing
    rng = np.random.default_rng(31)
    kinds = set()
    for k in range(12):
        n1, n2 = (int(x) for x in rng.choice([256, 512, 1024], size=2))
        r1, r2 = rng.uniform(0.05, 0.5, size=2)
        c1 = _random_axis(rng)
        gap = (r1 + r2 + rng.uniform(1e-6, 1.0), r1 + r2 + rng.uniform(1e-9, 1e-7),
               rng.uniform(0.0, r1 + r2), 0.0)[k % 4]
        p1 = ring_polygon(c1, r1, n1, rng.uniform(0, 1))
        p2 = ring_polygon(_axis_at(rng, c1, gap) if gap else c1,
                          r1 if gap == 0.0 else r2, n2, rng.uniform(0, 1))
        got = polygon_distance(p1, p2)
        assert got == dense_polygon_distance(p1, p2) == polygon_distance(p2, p1)
        kinds.add((got == 0.0, convexify._caps_apart(p1, p2)))
    assert kinds == {(True, False), (False, False), (False, True)}


def test_multi_tile_certify_matches_full_gram():
    rng = np.random.default_rng(41)
    outcomes = set()
    for k in range(8):
        c1 = _random_axis(rng)
        # as in test_certify_cap_shortcut_matches_full_gram: both pairs within
        # 1e-3 of a sign change, here with polygons of several Gram tiles
        r1 = math.pi / 4 + rng.uniform(-5e-4, 5e-4)
        delta = math.pi / 2 + (-1) ** k * (r1 + 0.3) + rng.uniform(-1e-3, 1e-3)
        polys = [ring_polygon(c1, r1, 512, rng.uniform(0, 1)),
                 ring_polygon(_axis_at(rng, c1, delta), 0.3, 1024, rng.uniform(0, 1))]
        got = certify_opf_polygons(polys)
        assert got == full_gram_certify(polys)
        outcomes.add(((0, 0) in got, (0, 1) in got))
    assert len(outcomes) == 4
