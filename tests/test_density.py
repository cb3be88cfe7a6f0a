import csv
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from opfsets import density
from opfsets.convexify import conv, convex_polygon_from_points
from opfsets.density import (DensityReport, MembershipOracle, THEOREM_BETA,
                             cap_oracle, cap_union_oracle, cell_densities,
                             cell_set_oracle, double_cap_oracle, polygon_set_oracle,
                             sample_in_cell, select_dense_cells, sieve_fractal_oracle)
from opfsets.grid import (CellSet, DyadicCell, all_cells, cell_area, cell_bounds,
                          cell_bounds_batch, locate_coords, locate_coords_batch, n_bands)
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
    assert o.contains_batch(from_polar(0.1, 0.3)[None])[0]
    assert o.contains_batch(from_polar(math.pi - 0.1, 0.3)[None])[0]
    assert not o.contains_batch(from_polar(math.pi / 2, 0.0)[None])[0]
    assert not o.contains_batch(from_polar(math.pi / 4, 0.0)[None])[0]  # open cap boundary
    assert abs(o.measure() - 2.0 * cap_area(math.pi / 4)) < 1e-15
    assert abs(o.measure() / SPHERE_AREA - (1.0 - SQ2)) < 1e-15


def test_contains_batch_matches_scalar():
    rng = np.random.default_rng(2)
    oracles = [double_cap_oracle(), cap_oracle([0.0, 1.0, 0.0], 0.5),
               cell_set_oracle(CellSet(2, [(0, 0), (3, 5)])),
               sieve_fractal_oracle(2)]
    pts = np.stack([from_polar(rng.uniform(0, math.pi),
                               rng.uniform(0, 2 * math.pi)) for _ in range(30)])
    for o in oracles:
        batch = o.contains_batch(pts)
        assert all(batch[i] == o.contains_batch(pts[i][None])[0] for i in range(len(pts)))


def edge_normals(poly):
    """np.cross of each edge's endpoints, in vertex order."""
    v = poly.vertices
    return [np.cross(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


def scalar_polygon_member(poly, normals, p):
    """The closed per-edge containment test, one point and one edge at a time."""
    if float(p @ poly.hemisphere_center) <= 0.0:
        return False
    return all(float(p @ nrm) >= -PREDICATE_TOL for nrm in normals)


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
    assert got.tolist() == [any(p.contains_batch(x[None])[0] for p in polys) for x in pts]
    normals = [edge_normals(p) for p in polys]
    assert got.tolist() == [any(scalar_polygon_member(p, nrm, x) for p, nrm in zip(polys, normals))
                            for x in pts]
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
    sel = CellSet(3, [(b, s) for b, s in zip(rng.integers(0, 16, 60),
                                                        rng.integers(0, 16, 60))])
    located = [locate_coords(math.cos(t), f, 3) for t, f in map(to_polar, pts)]
    assert cell_set_oracle(sel).contains_batch(pts).tolist() == [
        (c.band, c.sector) in sel for c in located]
    assert not cell_set_oracle(CellSet(3, [])).contains_batch(pts).any()


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


def all_band_sector(level):
    n = n_bands(level)
    return np.stack(np.divmod(np.arange(n * n), n), axis=1)


def test_double_cap_analytic_densities_level2():
    o = double_cap_oracle()
    # band 0: cos(theta) in [0.75, 1], fully inside the north cap; band 1:
    # [0.5, 0.75], partial overlap above sqrt(2)/2; band 3: equatorial, empty;
    # band 6: the antipode of band 1
    d, e = cell_densities(o, 2, [(0, 0), (1, 3), (3, 0), (6, 1)])
    want = (0.75 - SQ2) / 0.25
    assert d == pytest.approx([1.0, want, 0.0, want], abs=1e-12)
    assert d[2] == 0.0 and not e.any()


def test_offcenter_cap_analytic_matches_monte_carlo():
    center = np.array([1.0, 1.0, 0.5])
    o = cap_oracle(center / np.linalg.norm(center), 0.7)
    rng = np.random.default_rng(4)
    cells = [(int(rng.integers(16)), int(rng.integers(16))) for _ in range(6)]
    exact, _ = cell_densities(o, 3, cells)
    mc, err = cell_densities(o, 3, cells, samples=4000, seed=1, method="monte_carlo")
    assert np.all(np.abs(mc - exact) < np.maximum(4.0 * err, 0.02))


def reference_cap_densities(cap, level):
    """(n, n) densities of one cap by kink-aware quadrature of its width.

    w(u) is the cap's azimuthal half-width at height u.  The covered length of
    a cell's azimuth range has kinks where the cap's boundary crosses the
    cell's two meridians or the cap's own meridian plane (its extreme
    latitudes, also where it swallows a pole); each crossing is a root of the
    dot product along that meridian, bracketed by its maximum.
    """
    c, cr = cap.center, math.cos(cap.radius)
    uc, sc, phic = c[2], math.hypot(c[0], c[1]), math.atan2(c[1], c[0])

    def width(u):
        su = math.sqrt(max(0.0, 1.0 - u * u))
        if su * sc == 0.0:
            return math.pi if u * uc > cr else 0.0
        return math.acos(min(1.0, max(-1.0, (cr - u * uc) / (su * sc))))

    def crossings(phim):
        def g(t):
            return ((c[0] * math.cos(phim) + c[1] * math.sin(phim)) * math.sin(t)
                    + uc * math.cos(t) - cr)
        top = minimize_scalar(lambda t: -g(t), bounds=(0.0, math.pi), method="bounded",
                              options={"xatol": 1e-13}).x
        return [math.cos(brentq(g, a, b, xtol=1e-15, rtol=1e-15))
                for a, b in ((0.0, top), (top, math.pi)) if g(a) * g(b) < 0.0]

    n = n_bands(level)
    edges = [crossings(s * 2.0 * math.pi / n) for s in range(n + 1)]
    axial = crossings(phic) + crossings(phic + math.pi)
    out = np.zeros((n, n))
    for b in range(n):
        for s in range(n):
            (ulo, uhi), (plo, phi) = cell_bounds(DyadicCell(level, b, s))

            def covered(u):
                w = width(u)
                return sum(max(0.0, min(phic + w + k, phi) - max(phic - w + k, plo))
                           for k in (0.0, 2.0 * math.pi))

            kinks = sorted(u for u in edges[s] + edges[s + 1] + axial if ulo < u < uhi)
            value, _ = quad(covered, ulo, uhi, points=kinks or None, epsabs=1e-15,
                            epsrel=1e-13, limit=500)
            out[b, s] = value / ((uhi - ulo) * (phi - plo))
    return out


ROTATED_AXIS = np.array([1.0, 2.0, 2.0]) / 3.0


def reference_caps():
    caps = {
        "rotated": Cap(ROTATED_AXIS, math.pi / 4),
        "rotated_antipode": Cap(-ROTATED_AXIS, math.pi / 4),
        "axis122_r0.7": Cap(ROTATED_AXIS, 0.7),
        "north_pole": Cap(np.array([0.0, 0.0, 1.0]), 0.9),
        "south_pole_wide": Cap(np.array([0.0, 0.0, -1.0]), 2.2),
        "near_north_pole": Cap(from_polar(1e-3, 0.3), math.pi / 3),
        "near_south_pole": Cap(from_polar(math.pi - 1e-3, 2.0), 1.0),
        "equatorial": Cap(from_polar(math.pi / 2, 1.0), 0.6),
        "r0.01": Cap(from_polar(1.0, 2.0), 0.01),
        "r_half_pi": Cap(from_polar(0.7, 4.0), math.pi / 2),
        "equatorial_hemisphere": Cap(from_polar(math.pi / 2, 0.2), math.pi / 2),
        "r2.5": Cap(from_polar(2.0, 0.5), 2.5),
        "r_pi": Cap(from_polar(1.2, 1.2), math.pi)}
    rng = np.random.default_rng(11)
    for i, (v, r) in enumerate(zip(rng.normal(size=(4, 3)), rng.uniform(0.05, 3.0, 4))):
        caps[f"random{i}"] = Cap(v / np.linalg.norm(v), r)
    return caps


@pytest.mark.parametrize("name", reference_caps())
def test_cap_densities_match_kink_aware_reference(name):
    cap = reference_caps()[name]
    o = cap_oracle(cap.center, cap.radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for level in range(5):
            d, e = cell_densities(o, level, all_band_sector(level))
            ref = reference_cap_densities(cap, level).ravel()
            assert np.abs(d - ref).max() <= 1e-10, level
            assert not e.any()


def per_corner_cap_area(center, radius, ulo, uhi, plo, phi):
    """mu(cap ∩ cell) with the corner formula evaluated at each cell's four
    corners separately, three lens areas each: the lattice's reference."""
    x, y, z = (float(a) for a in center)
    sc, cr = math.hypot(x, y), math.cos(radius)
    if abs(z) >= 1.0 - 1e-14:
        if z > 0:
            return np.maximum(0.0, np.minimum(uhi, 1.0) - np.maximum(ulo, cr)) * (phi - plo)
        return np.maximum(0.0, np.minimum(uhi, -cr) - np.maximum(ulo, -1.0)) * (phi - plo)
    if radius > math.pi / 2.0:
        rest = per_corner_cap_area(-center, math.pi - radius, ulo, uhi, plo, phi)
        return (uhi - ulo) * (phi - plo) - rest
    theta_c, phi_c = math.atan2(sc, z), math.atan2(y, x)
    if theta_c + radius > math.pi:
        theta_c, z, ulo, uhi = math.pi - theta_c, -z, -uhi, -ulo

    def lens(v):
        return density._lens_area(theta_c, radius, v)

    def corner(v, t):
        turns = np.round(t / (2.0 * math.pi))
        t = t - 2.0 * math.pi * turns
        tau = np.abs(t)
        m = sc * np.cos(tau)
        r, beta = np.hypot(m, z), np.arctan2(m, z)
        alpha = np.arctan2(np.sqrt(np.maximum((r - cr) * (r + cr), 0.0)), cr)
        lo = np.maximum(v, np.cos(np.clip(beta + alpha, 0.0, math.pi)))
        hi = np.maximum(v, np.cos(np.clip(beta - alpha, 0.0, math.pi)))
        whole = lens(v)
        part = 0.5 * (whole - lens(lo) + lens(hi)) + tau * (hi - lo)
        return np.sign(t) * part + turns * whole

    tlo, thi = plo - phi_c, phi - phi_c
    return corner(ulo, thi) - corner(ulo, tlo) - corner(uhi, thi) + corner(uhi, tlo)


def per_corner_densities(caps, level, cells):
    band, sector = np.asarray(cells).T
    (ulo, uhi), (plo, phi) = cell_bounds_batch(level, band, sector)
    total, width = np.zeros(len(band)), (uhi - ulo) * (phi - plo)
    for cap in caps:
        total = total + per_corner_cap_area(cap.center, cap.radius, ulo, uhi, plo, phi) / width
    return np.clip(total, 0.0, 1.0)


def random_cell_subsets():
    """(level, 300 distinct (band, sector) rows) at levels 6 and 7, seeded by the level."""
    out = []
    for level in (6, 7):
        n = n_bands(level)
        picks = np.random.default_rng(level).choice(n * n, 300, replace=False)
        out.append((level, np.stack(np.divmod(picks, n), axis=1)))
    return out


def density_digest(oracle, requests):
    h = hashlib.sha256()
    for level, cells in requests:
        d, e = cell_densities(oracle, level, cells)
        h.update(d.tobytes() + e.tobytes())
    return h.hexdigest()


def rotcap_pair():
    return cap_union_oracle([Cap(ROTATED_AXIS, math.pi / 4), Cap(-ROTATED_AXIS, math.pi / 4)])


def test_lattice_densities_equal_per_corner_formula():
    oracles = {"rotcap_pair": rotcap_pair(),
               **{name: cap_oracle(c.center, c.radius) for name, c in reference_caps().items()}}
    requests = [(level, all_band_sector(level)) for level in range(7)] + random_cell_subsets()
    for name, o in oracles.items():
        for level, cells in requests:
            d, e = cell_densities(o, level, cells)
            assert np.array_equal(d, per_corner_densities(o.caps, level, cells)), (name, level)
            assert not e.any()


# sha256 of the density and stderr bytes of cell_densities, taken from the
# per-corner evaluation before cap densities moved to the corner lattice
ROTCAP_L6_DENSITY_SHA256 = "7591084da16a80534034b9f10f017d1eb62b27bb304e34dbc209cdb20b201590"
FULL_LEVELS_DENSITY_SHA256 = {  # levels 0..6, every cell, band-major
    "rotated": "0635b414199e45661a713ac9bd5acc74cbca2574996f7eb2987b934b7a687212",
    "rotated_antipode": "1275dc79805e42664b02aef0a7dd96b2f794c19c3a7e14001992fd3b02b57a28",
    "axis122_r0.7": "3eadaa8bcdff824bbb6f30d35c92c8c019a867900ace4ef9b609047eb49a760c",
    "north_pole": "b9fb6af9819f7b32a55bd24393721c6132ad02fb76ab8484f4cd08c21c8202b3",
    "south_pole_wide": "71199c4ae2789f7ef5a8f2b250bafa6624ff44805a73188ac1ba4cf6fd2ac37f",
    "near_north_pole": "ccde7ce9fdaace2a59983249a46270c050c72e16a8c11501ea36070b59e2eb6d",
    "near_south_pole": "25c233f52e3620bdd29658f1ffaedf3307f545261eb9ff76ba0a5654b51d3d3d",
    "equatorial": "be0b43f73d84364682090c560d27879b5976c044510323128529efcfd9718c8a",
    "r0.01": "8987c0fc07775aaa6a7e183bfb6cfaafa6c5ddc1f454182b0c1124ae8fc43116",
    "r_half_pi": "b17b01a316bff8a2abb1be4095b7f2435e6caaee4fb8b8f3b462998173b23610",
    "equatorial_hemisphere": "fa25b689ac3d4f8e41cd7329b925b6538e767badaafd53e9f1f69f7f7582f9c2",
    "r2.5": "00bdefa2bda4e95e7685a378f228626016a6e436381bb204a2502f3dca780012",
    "r_pi": "142694382c5ab3fefaf3dc575b7bade9ced4a9e11b2d5fb6bd9dd98f7426e91e",
    "random0": "a4372b9c480d9e30118c53af9a2f0cbded63d190d333fc67a28f2b8397c23683",
    "random1": "7bc13e8ff09f8e8a7dc40f3290b19e58c1e2012108f870b3876e7693dbf75f41",
    "random2": "9e3da972202c33e41b15336637b99f1c343f201032965b3af28588139e496012",
    "random3": "1124615936cf1dc87153cf6a6f9f3efdf5251e0a138bedbc2214ff58f9a83d69"}
SUBSET_DENSITY_SHA256 = {  # random_cell_subsets(), level 6 then 7
    "rotcap_pair": "223804947fad60fb67c9d2a33fa8eb56caaa949e1db664d615d0d2a7d07d0ca8",
    "rotated": "66ef744b3cd2d4446f7694653624990329b847fb03a57fded2c1de7674c6d1cb",
    "rotated_antipode": "f8fae5cbcf77a5571f7249ea2ca4a2caa5b07f916ea1a910af83212042ea257e",
    "axis122_r0.7": "cd5c00998f4f72d9836e4275b4cc4f761faa8c698a041b6c711eade144f9c5b6",
    "north_pole": "7611bb3923eab6970150cbfeaab04aa8b8a43bd5309de7d8dc12fa3562a8d6a3",
    "south_pole_wide": "093f320467e64a14dde2f99dc53262db1d5d320fd1c6300939193f71ba0ee85f",
    "near_north_pole": "083db1272181ebab3d7fcc85295b3be0706050ced9139e605259c870269a8f34",
    "near_south_pole": "aa4e80c9687a6861b40af973a10165afd74ddf15f364659e6e2172c4abee931d",
    "equatorial": "147d928a5413d858ba86b4a83ac9126e8a57660870c03f0621aa9c1db5260ad8",
    "r0.01": "e9a15a094703faaea3fdf53af7e04da21717008ab4bb228799712b2fced03c65",
    "r_half_pi": "c3b1eab69c1f9a21a12719343bb4105ba47ee58f67c49561223a129182eff00c",
    "equatorial_hemisphere": "e33bcb45c8931745df2dfdf3053a2415d29b2068651e1f9a726a4bc28f6b3b4e",
    "r2.5": "8512efedd67d160898605d423011765614a520098669d91b64d33e1ffae2e9fb",
    "r_pi": "055a01bfddbaef58d205968cadf98ab10bb45898d1ba0594420e4813281cead5",
    "random0": "4ac7cf5c4d12ec67a1c8f962a7b21b687130ff2f908a02960252f0879a60edc9",
    "random1": "69ca53a74dc070bf081d9e6525a12d9d6ba1de76496da7404782fb16c9a81fd6",
    "random2": "4898174ceb884f78b6f3244a406f36ad78aaf48adb20bf72439066537e99b5c1",
    "random3": "d03134fe26c45221b233b146027c7dc53f1ab68a3fa8ca24736a79556ebf4d28"}


def test_cap_densities_pinned():
    assert density_digest(rotcap_pair(), [(6, all_band_sector(6))]) == ROTCAP_L6_DENSITY_SHA256
    caps = reference_caps()
    full = [(level, all_band_sector(level)) for level in range(7)]
    assert {name: density_digest(cap_oracle(c.center, c.radius), full)
            for name, c in caps.items()} == FULL_LEVELS_DENSITY_SHA256
    oracles = {"rotcap_pair": rotcap_pair(),
               **{name: cap_oracle(c.center, c.radius) for name, c in caps.items()}}
    assert {name: density_digest(o, random_cell_subsets())
            for name, o in oracles.items()} == SUBSET_DENSITY_SHA256


def test_lens_areas_once_per_distinct_height_and_arc_end(monkeypatch):
    seen = []
    lens_area = density._lens_area

    def spy(theta_c, radius, v):
        seen.append(np.array(v))
        return lens_area(theta_c, radius, v)

    monkeypatch.setattr(density, "_lens_area", spy)
    sizes = []
    for level, cells in [(6, all_band_sector(6)), *random_cell_subsets()]:
        (u, row), (phi, column), _ = density._corner_lattice(level, *cells.T)
        heights, azimuths = len(np.unique(u[row])), len(np.unique(phi[column]))
        seen.clear()
        cell_densities(rotcap_pair(), level, cells)
        assert len(seen) == 2  # one call per cap
        # the meridian's arc at each distinct azimuth has two ends
        assert [len(values) for values in seen] == [heights + 2 * azimuths] * 2
        sizes.append(len(seen[0]))
    # level 6 in full: 3 * 129 lens areas a cap, not 3 for each of 16 641 corners
    assert sizes[0] == 387


def test_rotated_cap_cell_matches_high_precision_integral():
    # a 30-digit mpmath integral split at the kinks gives this value; one
    # quad per cell without the kinks returned 1.0
    o = cap_union_oracle([Cap(ROTATED_AXIS, math.pi / 4), Cap(-ROTATED_AXIS, math.pi / 4)])
    d, _ = cell_densities(o, 4, [(14, 7)])
    assert d[0] == pytest.approx(0.9999988436834502, abs=1e-12)


def test_rotated_cap_filter_raises_no_warning():
    o = cap_union_oracle([Cap(ROTATED_AXIS, math.pi / 4), Cap(-ROTATED_AXIS, math.pi / 4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = select_dense_cells(o, 6, 0.01)
    assert len(report.selected) == 4562


def test_double_cap_filter_artifacts_pinned(tmp_path):
    # sha256 of the `opfsets filter --oracle double-cap --level 4 --epsilon
    # 0.01` report and CSV, as one quad per cell and a running sum gave them
    report = select_dense_cells(double_cap_oracle(), 4, 0.01)
    report.save(tmp_path / "f.json")
    report.save_csv(tmp_path / "f.csv")
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("f.json", "f.csv")}
    assert digest == {
        "f.json": "ad9a851072d9e2f46ce6bce3bcdaa0215d26a244126e231ccfbba00297e7ddbf",
        "f.csv": "491e5fdd226c603636a402490ffacce757fdc0464c2b23df74d85c868a4bd8a2"}


# sha256 of the save and save_csv bytes of two level-5 reports, written from
# the (band, sector, density, stderr) records tuple the report used to keep
LEVEL5_REPORT_SHA256 = {
    "double cap": ("e486b06859b4c42c53e7f31cad8c4c969dfc338696ab6eda58353cd2890ed869",
                   "8cb6716dde948c68e129ebd24e211428adb9e608173e92d680fe80b8a35adecb"),
    "sieve, monte carlo": ("eb70578d1020e1ce7c8fe18e0512f40ae9fa232df622825d00a0edbed347698d",
                           "c3d4eab50eb2bb54259884a8d2639ba1ca67a566f3a05a17b909ad169cc6573e"),
}


def test_level5_report_artifacts_pinned(tmp_path):
    reports = {
        "double cap": select_dense_cells(double_cap_oracle(), 5, 0.01),
        "sieve, monte carlo": select_dense_cells(sieve_fractal_oracle(6), 5, 0.3, samples=100,
                                                 method="monte_carlo"),
    }
    for name, report in reports.items():
        report.save(tmp_path / "r.json")
        report.save_csv(tmp_path / "r.csv")
        digest = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                       for f in ("r.json", "r.csv"))
        assert digest == LEVEL5_REPORT_SHA256[name], name
        # the columns line up with the selection's rows
        assert len(report.density) == len(report.stderr) == len(report.selected)
        assert [r[:2] for r in report.densities] == list(report.selected)


def test_monte_carlo_densities_pinned_and_chunk_free(monkeypatch):
    o = sieve_fractal_oracle(3)
    d, e = cell_densities(o, 3, all_band_sector(3), samples=1000, seed=0,
                          method="monte_carlo")
    assert hashlib.sha256(d.tobytes() + e.tobytes()).hexdigest() == (
        "1f0f134f2c54ea9d071c2a43250d870c8de4b4825d1c1358aa86801d01f90997")
    # one cell per contains_batch call gives the same bits
    monkeypatch.setattr(density, "_CHUNK", 1)
    d1, e1 = cell_densities(o, 3, all_band_sector(3), samples=1000, seed=0,
                            method="monte_carlo")
    assert d1.tobytes() == d.tobytes() and e1.tobytes() == e.tobytes()


def test_monte_carlo_partial_last_chunk(monkeypatch):
    o, cells = sieve_fractal_oracle(3), all_band_sector(3)
    d, e = cell_densities(o, 3, cells, samples=1000, seed=0, method="monte_carlo")
    sizes = []
    contains = density.MembershipOracle.contains_batch

    def spy(self, points):
        sizes.append(len(points))
        return contains(self, points)

    monkeypatch.setattr(density.MembershipOracle, "contains_batch", spy)
    # 7 cells a chunk: 256 = 36 * 7 + 4, so the last chunk uses 4 rows of the buffer
    monkeypatch.setattr(density, "_CHUNK", 7 * 1000 + 999)
    d7, e7 = cell_densities(o, 3, cells, samples=1000, seed=0, method="monte_carlo")
    assert sizes == [7000] * 36 + [4000]
    assert d7.tobytes() == d.tobytes() and e7.tobytes() == e.tobytes()
    # a subset whose one chunk is smaller than the buffer a full chunk would take
    sizes.clear()
    d3, e3 = cell_densities(o, 3, cells[[5, 77, 200]], samples=1000, seed=0,
                            method="monte_carlo")
    assert sizes == [3000]
    assert d3.tolist() == d[[5, 77, 200]].tolist() and e3.tolist() == e[[5, 77, 200]].tolist()


def test_polygon_monte_carlo_densities_chunk_free(monkeypatch):
    # polygon sets test membership through BLAS Gram tiles of each chunk's
    # points; a quad off the cell edges gives partial cells
    quad = convex_polygon_from_points(np.stack(
        [from_polar(t, f) for t in (1.1, 1.4) for f in (0.3, 1.2)]))
    o = polygon_set_oracle([quad, *conv(double_cap_cellset(3)).decomposition.polygons])
    cells = all_band_sector(3)
    d, e = cell_densities(o, 3, cells, samples=200, seed=4)
    assert (d == 1.0).sum() >= 64 and (d == 0.0).sum() > 64 and ((d > 0.0) & (d < 1.0)).sum() > 4
    monkeypatch.setattr(density, "_CHUNK", 1)
    d1, e1 = cell_densities(o, 3, cells, samples=200, seed=4)
    assert d1.tobytes() == d.tobytes() and e1.tobytes() == e.tobytes()


def reference_polar(points):
    """_polar_batch's azimuths by float mod, as they were computed before."""
    phi = np.mod(np.arctan2(points[:, 1], points[:, 0]), 2.0 * math.pi)
    phi[phi >= 2.0 * math.pi] = 0.0
    return np.clip(points[:, 2], -1.0, 1.0), phi


def test_polar_batch_equals_float_mod():
    tiny = np.nextafter(0.0, 1.0)
    axis = [-1.0, -1e-300, -tiny, -0.0, 0.0, tiny, 1e-300, 1.0]
    signed = np.array([(x, y, z) for x in axis for y in axis for z in (-1.0, 0.0, 0.5)])
    edges = [np.arange(n_bands(level) + 1) * (2.0 * math.pi / n_bands(level))
             for level in range(8)]
    phi = np.concatenate(edges)
    # each sector edge, and the azimuths an ulp to either side
    phi = np.concatenate([phi, np.nextafter(phi, -1.0), np.nextafter(phi, 7.0),
                          np.random.default_rng(3).uniform(-7.0, 7.0, 2000)])
    pts = np.concatenate([signed, points_at(np.zeros(len(phi)), phi),
                          points_at(np.full(len(phi), 0.3), phi)])
    for got, want in zip(density._polar_batch(pts), reference_polar(pts)):
        assert got.tobytes() == want.tobytes()
    u, phi = density._polar_batch(pts)
    assert ((phi >= 0.0) & (phi < 2.0 * math.pi)).all() and not np.signbit(phi).any()
    for level in range(8):
        got = locate_coords_batch(u, phi, level)
        want = locate_coords_batch(*reference_polar(pts), level)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def scalar_sieve_density(depth, level, band, sector):
    """Walk the refinement steps 1..min(level, depth) one binary digit at a time."""
    for j in range(1, min(level, depth) + 1):
        if (band >> (level - j)) & 1 and (sector >> (level - j)) & 1:
            return 0.0
    return 0.75 ** max(0, depth - level)


def test_sieve_densities_and_measure():
    o = sieve_fractal_oracle(2)
    assert o.measure() == pytest.approx(SPHERE_AREA * 0.5625, abs=1e-12)
    # the odd/odd child is dropped at the first refinement; surviving level-1
    # cells keep 3/4 of their area at depth 2
    assert cell_densities(o, 1, [(1, 1), (0, 0)])[0].tolist() == [0.0, 0.75]
    # at a level at or past the depth, densities are 0 or 1
    assert cell_densities(o, 2, [(3, 3)])[0][0] in (0.0, 1.0)
    # densities integrate back to the measure at every level
    for level in (1, 2, 3):
        d, _ = cell_densities(o, level, all_band_sector(level))
        assert abs(d.sum() * cell_area(level) - o.measure()) < 1e-10
    for depth in range(5):
        for level in range(6):
            d, _ = cell_densities(sieve_fractal_oracle(depth), level, all_band_sector(level))
            assert d.tolist() == [scalar_sieve_density(depth, level, b, s)
                                  for b, s in all_band_sector(level).tolist()]


def test_cell_set_densities_across_levels():
    o = cell_set_oracle(CellSet(2, [(0, 0)]))
    assert cell_densities(o, 3, [(0, 0), (0, 2)])[0].tolist() == [1.0, 0.0]
    assert cell_densities(o, 2, [(0, 0)])[0].tolist() == [1.0]
    assert cell_densities(o, 1, [(0, 0), (1, 0)])[0].tolist() == [0.25, 0.0]
    rng = np.random.default_rng(12)
    sel = CellSet(3, rng.integers(0, 16, size=(40, 2)).tolist())
    members = set(sel)
    for level in range(6):
        d, _ = cell_densities(cell_set_oracle(sel), level, all_band_sector(level))
        if level >= 3:
            want = [float((b >> (level - 3), s >> (level - 3)) in members)
                    for b, s in all_band_sector(level).tolist()]
        else:
            shift = 3 - level
            want = [sum(bb >> shift == b and ss >> shift == s for bb, ss in members)
                    / 4.0 ** shift for b, s in all_band_sector(level).tolist()]
        assert d.tolist() == want


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
    with pytest.raises(ValueError):
        cell_densities(o, 2, [(1, 0)], samples=10)
    with pytest.raises(ValueError):
        cell_densities(o, 2, [(1, 0)], method="psychic")
    with pytest.raises(ValueError):
        cell_densities(o, 2, [(8, 0)])
    # analytic path reports zero error
    d, e = cell_densities(o, 2, [(1, 0)])
    assert e[0] == 0.0
    # per-cell streams: an estimate does not depend on the other cells asked for
    a, ae = cell_densities(o, 2, [(1, 0)], samples=500, seed=3, method="monte_carlo")
    b, be = cell_densities(o, 2, [(0, 0), (1, 0)], samples=500, seed=3, method="monte_carlo")
    assert (a[0], ae[0]) == (b[1], be[1])
    with pytest.raises(ValueError, match="unknown method 'analytic'"):
        cell_densities(polygon_set_oracle(()), 2, [(1, 0)], method="analytic")
    assert cell_densities(o, 2, [])[0].shape == (0,)


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


def test_cap_union_measure_additivity():
    o = cap_union_oracle([c for c in double_cap_oracle().caps])
    assert o.measure() == pytest.approx(2 * cap_area(math.pi / 4), abs=1e-15)


def test_measures_add_left_to_right():
    # cap_area(1.5e-8) is below half an ulp of cap_area(3): added one at a
    # time, as on every Python, the two small caps vanish; a compensated sum
    # (builtin sum from Python 3.12 on) would round up to the next double
    big, small = cap_area(3.0), cap_area(1.5e-8)
    caps = [Cap(np.array([0.0, 0.0, 1.0]), 3.0), Cap(from_polar(math.pi, 0.0), 1.5e-8),
            Cap(from_polar(math.pi - 0.05, 0.0), 1.5e-8)]
    assert math.fsum([big, small, small]) > big
    assert cap_union_oracle(caps).measure() == big
    polys = conv(double_cap_cellset(2)).decomposition.polygons
    total = 0.0
    for poly in polys:
        total += poly.area()
    assert polygon_set_oracle(polys).measure() == total


def test_overlapping_caps_rejected():
    z = np.array([0.0, 0.0, 1.0])
    # identical caps would count their common area twice in measure() and
    # in cell_densities
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
