import math

import numpy as np
import pytest

from opfsets import convexify
from opfsets.convexify import (ConvexDecomposition, ConvexPolygon,
                               HullInfeasibleError, check_pasch,
                               check_triangle_lemma, connected_components, conv,
                               conv1, conv2, convex_hull,
                               convex_polygon_from_points, certify_opf_polygons,
                               hausdorff_distance, polygon_distance)
from opfsets.grid import CellSet, cell_area
from opfsets.search import double_cap_cellset
from opfsets.sphere import from_polar, unit_vector


def ring_polygon(axis: np.ndarray, alpha: float, n: int = 4,
                 offset: float = 0.0) -> ConvexPolygon:
    """Regular n-gon inscribed in the circle of angular radius alpha about axis."""
    axis = axis / np.linalg.norm(axis)
    # build about +z then rotate z onto the axis
    angles = offset + 2.0 * math.pi * np.arange(n) / n
    local = np.stack([math.sin(alpha) * np.cos(angles),
                      math.sin(alpha) * np.sin(angles),
                      np.full(n, math.cos(alpha))], axis=1)
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
    assert poly.contains(center / np.linalg.norm(center))
    assert not poly.contains(-center / np.linalg.norm(center))
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
    sel = CellSet.from_cells(3, [(3, 0), (3, 1), (6, 9)])
    comps = connected_components(sel)
    assert [len(c) for c in comps] == [2, 1]
    # azimuthal wraparound joins the first and last sectors
    wrap = CellSet.from_cells(3, [(3, 0), (3, 15)])
    assert len(connected_components(wrap)) == 1
    # all top-band cells meet at the pole
    polar = CellSet.from_cells(3, [(0, s) for s in range(0, 16, 2)])
    assert len(connected_components(polar)) == 1


def test_convex_hull_covers_component():
    comp = CellSet.from_cells(3, [(2, 1), (2, 2), (3, 1), (3, 2)])
    poly = convex_hull(comp)
    assert poly.area() >= comp.measure() - 1e-6
    with pytest.raises(ValueError):
        convex_hull(CellSet.from_cells(3, []))
    with pytest.raises(ValueError, match="arc_samples"):
        convex_hull(comp, arc_samples=0)
    # adaptive refinement never shrinks the hull area materially
    refined = convex_hull(comp, adaptive_tol=1e-9)
    assert refined.area() >= poly.area() - 1e-12


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


def test_conv_empty_selection():
    result = conv(CellSet.from_cells(3, []))
    assert len(result.decomposition) == 0
    assert result.output_measure == 0.0
    assert result.opf_violations == ()


def test_conv2_merges_touching_hulls():
    level = 3
    left = convex_hull(CellSet.from_cells(level, [(2, 1)]))
    right = convex_hull(CellSet.from_cells(level, [(2, 2)]))
    decomp = ConvexDecomposition((left, right), convexify._distance_matrix((left, right)))
    assert decomp.pairwise_min_distance == polygon_distance(left, right) <= 1e-9
    merged, merges = conv2(decomp)
    assert merges == 1
    assert len(merged) == 1
    both = convex_hull(CellSet.from_cells(level, [(2, 1), (2, 2)]))
    assert merged.polygons[0].area() == pytest.approx(both.area(), abs=1e-9)


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
    selection = CellSet.from_cells(level, u_shape + [(5, 2), (12, 10)])
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
    poly = ring_polygon(unit_vector(0, 0, 1), 0.3)
    doc = poly.to_json()
    assert len(doc["vertices"]) == len(poly)
    samples = poly.boundary_samples(per_edge=4)
    assert samples.shape == (16, 3)
    assert np.allclose(np.linalg.norm(samples, axis=1), 1.0, atol=1e-12)
