import csv
import json
import math

import numpy as np
import pytest

from opfsets.convexify import conv, convex_polygon_from_points
from opfsets.density import (CoveringReport, DensityReport, MembershipOracle,
                             THEOREM_BETA, analytic_cell_density, cap_oracle,
                             cap_union_oracle, cell_set_oracle, covering_report,
                             double_cap_oracle, estimate_cell_density,
                             polygon_set_oracle, sample_in_cell,
                             select_dense_cells, sieve_fractal_oracle)
from opfsets.grid import (CellSet, DyadicCell, all_cells, cell_area, cell_bounds,
                          locate_coords, locate_coords_batch, n_bands)
from opfsets.search import double_cap_cellset
from opfsets.sphere import (PREDICATE_TOL, SPHERE_AREA, Cap, GeodesicSegment, cap_area,
                            from_polar, sample_uniform_batch, to_polar)

SQ2 = math.sqrt(2.0) / 2.0


def test_oracle_kind_validation():
    with pytest.raises(ValueError):
        MembershipOracle("blob")
    with pytest.raises(ValueError):
        sieve_fractal_oracle(-1)


def test_double_cap_membership_and_measure():
    o = double_cap_oracle()
    assert o.contains(from_polar(0.1, 0.3))
    assert o.contains(from_polar(math.pi - 0.1, 0.3))
    assert not o.contains(from_polar(math.pi / 2, 0.0))
    assert not o.contains(from_polar(math.pi / 4, 0.0))  # open cap boundary
    assert abs(o.measure() - 2.0 * cap_area(math.pi / 4)) < 1e-15
    assert abs(o.measure() / SPHERE_AREA - (1.0 - SQ2)) < 1e-15


def test_contains_batch_matches_scalar():
    rng = np.random.default_rng(2)
    oracles = [double_cap_oracle(), cap_oracle([0.0, 1.0, 0.0], 0.5),
               cell_set_oracle(CellSet.from_cells(2, [(0, 0), (3, 5)])),
               sieve_fractal_oracle(2)]
    pts = np.stack([from_polar(rng.uniform(0, math.pi),
                               rng.uniform(0, 2 * math.pi)) for _ in range(30)])
    for o in oracles:
        batch = o.contains_batch(pts)
        assert all(bool(batch[i]) == o.contains(pts[i]) for i in range(len(pts)))


def scalar_polygon_member(poly, p):
    """The closed per-edge containment test, one point and one edge at a time."""
    if float(p @ poly.hemisphere_center) <= 0.0:
        return False
    v = poly.vertices
    return all(float(p @ np.cross(v[i], v[(i + 1) % len(v)])) >= -PREDICATE_TOL
               for i in range(len(v)))


def test_polygon_set_membership_matches_polygons():
    rng = np.random.default_rng(5)
    # two quads sharing the meridian edge phi = 0.6, and the level-3 double cap
    left, right = (convex_polygon_from_points(np.stack(
        [from_polar(t, f) for t in (0.5, 0.9) for f in (lo, lo + 0.6)])) for lo in (0.0, 0.6))
    polys = [left, right, *conv(double_cap_cellset(3)).decomposition.polygons]
    shared = GeodesicSegment(from_polar(0.5, 0.6), from_polar(0.9, 0.6))
    pts = np.concatenate([
        sample_uniform_batch(rng, 3000),   # about half outside each quad's hemisphere
        np.stack([shared.point_at(t) for t in rng.uniform(0.0, 1.0, 40)]),
        np.concatenate([p.vertices for p in polys]),
        np.stack([-p.hemisphere_center for p in polys])])
    got = polygon_set_oracle(polys).contains_batch(pts)
    assert got.tolist() == [any(p.contains(x) for p in polys) for x in pts]
    assert got.tolist() == [any(scalar_polygon_member(p, x) for p in polys) for x in pts]
    assert left.contains_batch(pts[3000:3040]).all() and right.contains_batch(pts[3000:3040]).all()
    assert (pts @ left.hemisphere_center <= 0.0).sum() > 1000
    assert 100 < got.sum() < len(pts) - 100


def scalar_sieve_member(p, depth):
    """Membership by the scalar chain: to_polar, then locate_coords per level."""
    theta, phi = to_polar(p)
    cells = (locate_coords(math.cos(theta), phi, lvl) for lvl in range(1, depth + 1))
    return all(c.band % 2 == 0 or c.sector % 2 == 0 for c in cells)


def points_at(u, phi):
    s = np.sqrt(1.0 - u * u)
    return np.stack([s * np.cos(phi), s * np.sin(phi), u], axis=1)


def test_vectorised_membership_matches_scalar_path():
    rng = np.random.default_rng(9)
    pts = np.concatenate([sample_uniform_batch(rng, 4000)]
                         + [sample_in_cell(c, 8, rng) for c in all_cells(3)])
    o = sieve_fractal_oracle(4)
    assert o.contains_batch(pts).tolist() == [scalar_sieve_member(p, 4) for p in pts]
    sel = CellSet.from_cells(3, [(b, s) for b, s in zip(rng.integers(0, 16, 60),
                                                        rng.integers(0, 16, 60))])
    located = [locate_coords(math.cos(t), f, 3) for t, f in map(to_polar, pts)]
    assert cell_set_oracle(sel).contains_batch(pts).tolist() == [
        (c.band, c.sector) in sel.members for c in located]
    assert not cell_set_oracle(CellSet.from_cells(3, [])).contains_batch(pts).any()


def test_vectorised_membership_band_edge_ties():
    depth = 3
    n = n_bands(depth)
    # u exactly on every level-3 band edge off the poles (these include the
    # coarser edges); azimuths at sector centres, far from any sector edge
    u = np.repeat(1.0 - np.arange(1, n) * 2.0 ** (-depth), n)
    phi = np.tile((np.arange(n) + 0.5) * (2.0 * math.pi / n), n - 1)
    pts = points_at(u, phi)
    assert np.array_equal(pts[:, 2], u)
    # the documented rule: a point on a band edge belongs to the lower band index
    want = [all(c.band % 2 == 0 or c.sector % 2 == 0
                for c in (locate_coords(a, f, lvl) for lvl in range(1, depth + 1)))
            for a, f in zip(u, phi)]
    assert sieve_fractal_oracle(depth).contains_batch(pts).tolist() == want
    band, _ = locate_coords_batch(u, phi, depth)
    assert band.tolist() == np.repeat(np.arange(n - 1), n).tolist()


def test_located_cells_contain_their_points():
    rng = np.random.default_rng(10)
    n = n_bands(4)
    u = np.concatenate([rng.uniform(-1.0, 1.0, 2000), 1.0 - np.arange(n + 1) / 16.0])
    phi = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 2000),
                          rng.uniform(0.0, 2.0 * math.pi, n + 1)])
    pts = points_at(u, phi)
    p_u, p_phi = np.clip(pts[:, 2], -1.0, 1.0), np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
    for level in range(5):
        for b, s, a, f in zip(*locate_coords_batch(p_u, p_phi, level), p_u, p_phi):
            (ulo, uhi), (plo, phi_hi) = cell_bounds(DyadicCell(level, int(b), int(s)))
            assert ulo - 1e-12 <= a <= uhi + 1e-12
            assert plo - 1e-12 <= f <= phi_hi + 1e-12


def test_double_cap_analytic_densities_level2():
    o = double_cap_oracle()
    # band 0: cos(theta) in [0.75, 1], fully inside the north cap
    assert analytic_cell_density(o, DyadicCell(2, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    # band 1: cos(theta) in [0.5, 0.75], partial overlap above sqrt(2)/2
    want = (0.75 - SQ2) / 0.25
    assert analytic_cell_density(o, DyadicCell(2, 1, 3)) == pytest.approx(want, abs=1e-12)
    # equatorial band: empty intersection
    assert analytic_cell_density(o, DyadicCell(2, 3, 0)) == 0.0
    # antipodal symmetry
    assert analytic_cell_density(o, DyadicCell(2, 6, 1)) == pytest.approx(want, abs=1e-12)


def test_offcenter_cap_analytic_matches_monte_carlo():
    center = np.array([1.0, 1.0, 0.5])
    o = cap_oracle(center / np.linalg.norm(center), 0.7)
    rng = np.random.default_rng(4)
    for _ in range(6):
        cell = DyadicCell(3, int(rng.integers(16)), int(rng.integers(16)))
        exact = analytic_cell_density(o, cell)
        mc, err = estimate_cell_density(o, cell, samples=4000, seed=1,
                                        method="monte_carlo")
        assert abs(mc - exact) < max(4.0 * err, 0.02)


def test_sieve_densities_and_measure():
    o = sieve_fractal_oracle(2)
    assert o.measure() == pytest.approx(SPHERE_AREA * 0.5625, abs=1e-12)
    # the odd/odd child is dropped at the first refinement
    assert analytic_cell_density(o, DyadicCell(1, 1, 1)) == 0.0
    # surviving level-1 cells keep 3/4 of their area at depth 2
    assert analytic_cell_density(o, DyadicCell(1, 0, 0)) == 0.75
    # at a level at or past the depth, densities are 0 or 1
    d = analytic_cell_density(o, DyadicCell(2, 3, 3))
    assert d in (0.0, 1.0)
    # densities integrate back to the measure at every level
    for level in (1, 2, 3):
        n = 2 ** (level + 1)
        total = sum(analytic_cell_density(o, DyadicCell(level, b, s))
                    for b in range(n) for s in range(n)) * cell_area(level)
        assert abs(total - o.measure()) < 1e-10


def test_cell_set_densities_across_levels():
    o = cell_set_oracle(CellSet.from_cells(2, [(0, 0)]))
    assert analytic_cell_density(o, DyadicCell(3, 0, 0)) == 1.0
    assert analytic_cell_density(o, DyadicCell(3, 0, 2)) == 0.0
    assert analytic_cell_density(o, DyadicCell(2, 0, 0)) == 1.0
    assert analytic_cell_density(o, DyadicCell(1, 0, 0)) == 0.25
    assert analytic_cell_density(o, DyadicCell(1, 1, 0)) == 0.0


def test_sample_in_cell_stays_inside():
    rng = np.random.default_rng(8)
    cell = DyadicCell(3, 5, 11)
    pts = sample_in_cell(cell, 500, rng)
    (ulo, uhi), (plo, phi) = cell_bounds(cell)
    u = pts[:, 2]
    p = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)
    assert np.all((ulo - 1e-12 <= u) & (u <= uhi + 1e-12))
    assert np.all((plo - 1e-12 <= p) & (p <= phi + 1e-12))
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_estimate_validation_and_determinism():
    o = double_cap_oracle()
    cell = DyadicCell(2, 1, 0)
    with pytest.raises(ValueError):
        estimate_cell_density(o, cell, samples=10)
    with pytest.raises(ValueError):
        estimate_cell_density(o, cell, method="psychic")
    # analytic path reports zero error
    d, e = estimate_cell_density(o, cell)
    assert e == 0.0
    # per-cell streams make repeated estimates identical
    a = estimate_cell_density(o, cell, samples=500, seed=3, method="monte_carlo")
    b = estimate_cell_density(o, cell, samples=500, seed=3, method="monte_carlo")
    assert a == b
    with pytest.raises(ValueError):
        estimate_cell_density(polygon_set_oracle(()), cell, method="analytic")


def test_select_dense_cells_double_cap():
    o = double_cap_oracle()
    with pytest.raises(ValueError):
        select_dense_cells(o, 2, 0.0)
    with pytest.raises(ValueError):
        select_dense_cells(o, 2, 1.0)
    report = select_dense_cells(o, 3, 0.01)
    # only the 64 fully inside cells clear the 0.99 threshold at level 3
    assert len(report.selected) == 64
    assert report.captured_measure == pytest.approx(64 * cell_area(3), abs=1e-9)
    assert report.within_theorem_range  # 0.01 < 1/64
    assert not select_dense_cells(o, 2, 0.05).within_theorem_range
    # every recorded density clears the threshold
    assert all(d >= 0.99 for _, _, d, _ in report.densities)


def test_density_report_serialization(tmp_path):
    report = select_dense_cells(double_cap_oracle(), 2, 0.01)
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    report.save(jpath)
    doc = json.loads(jpath.read_text())
    assert doc["level"] == 2 and doc["epsilon"] == 0.01
    assert doc["beta"] == THEOREM_BETA
    assert len(doc["cells"]) == len(report.selected)
    report.save_csv(cpath)
    rows = list(csv.reader(cpath.read_text().splitlines()))
    assert rows[0] == ["band", "sector", "density", "stderr"]
    assert len(rows) == len(report.selected) + 1


def test_covering_report_double_cap():
    o = double_cap_oracle()
    report = covering_report(o, select_dense_cells(o, 3, 0.01).selected,
                             samples=20_000)
    assert isinstance(report, CoveringReport)
    assert report.mu_m == pytest.approx(o.measure(), abs=1e-12)
    assert report.mu_m_stderr == 0.0
    # selected cells sit inside M, so intersection equals the union measure
    assert report.mu_intersection == pytest.approx(report.mu_union, abs=1e-9)
    assert report.excess_gap == pytest.approx(report.mu_union - report.mu_m, abs=1e-12)
    assert report.captured_gap <= 0.0


def test_cap_union_measure_additivity():
    o = cap_union_oracle([c for c in double_cap_oracle().caps])
    assert o.measure() == pytest.approx(2 * cap_area(math.pi / 4), abs=1e-15)


def test_overlapping_caps_rejected():
    z = np.array([0.0, 0.0, 1.0])
    # identical caps would count their common area twice in measure() and
    # in analytic_cell_density
    with pytest.raises(ValueError, match="overlap"):
        cap_union_oracle([Cap(z, 0.5), Cap(z, 0.5)])
    with pytest.raises(ValueError, match="overlap"):
        cap_union_oracle([Cap(z, 0.5), Cap(from_polar(0.9, 0.0), 0.5)])
    with pytest.raises(ValueError, match="overlap"):
        double_cap_oracle(2.0)
    # touching caps are allowed
    touching = cap_union_oracle([Cap(z, 0.5), Cap(from_polar(1.0, 0.0), 0.5)])
    assert touching.measure() == pytest.approx(2 * cap_area(0.5), abs=1e-15)
    assert double_cap_oracle(math.pi / 2).measure() == pytest.approx(SPHERE_AREA, abs=1e-12)
    axis = from_polar(0.3, 0.4)  # acos of its rounded antipodal dot is off by 1.5e-8
    assert cap_union_oracle([Cap(axis, math.pi / 2), Cap(-axis, math.pi / 2)]).kind == "cap"
