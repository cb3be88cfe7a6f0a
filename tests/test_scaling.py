import json
import math

import numpy as np
import pytest

from opfsets.conflicts import _pair_scan
from opfsets.density import cap_union_oracle, select_dense_cells
from opfsets.grid import (CellSet, DyadicCell, all_cells, cell_area, cell_bounds,
                          theta_bounds)
from opfsets.scaling import (InfeasibleEpsilonError, N_ROOT, ScaleConstants,
                             ScaledRegion, ScaledRegions, ScaleSummary, choose_constants,
                             is_feasible, largest_feasible_epsilon, remove_polar_caps,
                             _band_shrink, _shrink_cells, scale_set, scaled_measure_lower_bound,
                             shrink_cell, verify_scaled_opf)
from opfsets.search import double_cap_cellset
from opfsets.sphere import (TWO_PI, Cap, InfeasibleShrinkError, geodesic_distance,
                            lune_half_angle)

MU_DC = math.pi  # level-3 double-cap selection measure (fraction 1/4)


def test_feasibility_threshold():
    thresh = largest_feasible_epsilon(MU_DC)
    assert thresh is not None and 0.0 < thresh < 0.1
    assert is_feasible(0.9 * thresh, MU_DC)
    assert not is_feasible(1.5 * thresh, MU_DC)
    # monotone transition right at the bisection output
    assert not is_feasible(thresh * (1.0 + 1e-6), MU_DC)


def test_choose_constants_valid_and_invalid():
    thresh = largest_feasible_epsilon(MU_DC)
    c = choose_constants(0.9 * thresh, MU_DC)
    assert isinstance(c, ScaleConstants)
    assert c.epsilon1 == pytest.approx(c.epsilon**6, rel=1e-15)
    assert c.n_root == N_ROOT
    assert c.delta == pytest.approx(math.sqrt(c.epsilon * MU_DC / (4 * math.pi)))
    lhs1, rhs1 = c.inequality1
    lhs2, rhs2 = c.inequality2
    assert lhs1 >= rhs1 and lhs2 > rhs2
    with pytest.raises(InfeasibleEpsilonError) as exc:
        choose_constants(2.0 * thresh, MU_DC)
    assert exc.value.suggestion == pytest.approx(thresh, rel=1e-3)
    with pytest.raises(ValueError):
        choose_constants(0.0, MU_DC)
    with pytest.raises(ValueError):
        choose_constants(0.02, -1.0)


def test_shrink_cell_geometry():
    cell = DyadicCell(3, 4, 7)
    with pytest.raises(ValueError):
        shrink_cell(cell, -0.1)
    full = shrink_cell(cell, 0.0)
    assert not full.empty
    assert full.measure() == pytest.approx(cell_area(3), abs=1e-12)
    region = shrink_cell(cell, 0.01)
    assert not region.empty
    assert region.measure() < cell_area(3)
    # a huge shrink inverts the bounds
    assert shrink_cell(cell, 1.0).empty
    assert shrink_cell(cell, 1.0).measure() == 0.0


def test_shrink_must_be_finite():
    # a NaN shrink gave NaN bounds marked empty and an infinite one emptied every
    # region; verify_scaled_opf skips empty regions, so either passed vacuously
    for shrink in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            shrink_cell(DyadicCell(3, 2, 1), shrink)
        with pytest.raises(ValueError, match="finite"):
            _shrink_cells(3, np.array([[2, 1], [5, 0]]), shrink)
    # a positive shrink below ulp(pi)/2 rounds a bottom-band colatitude to pi,
    # where no rotation clears the meridians; choose_constants(1e-8, ...) gives such shrinks
    tiny = choose_constants(1e-8, MU_DC).shrink(3)
    assert 0.0 < tiny < math.ulp(math.pi) / 2.0
    for shrink in (1e-17, tiny):
        assert _band_shrink(3, 15, shrink)[2] == math.inf
        assert shrink_cell(DyadicCell(3, 15, 4), shrink).empty


def test_shrunk_points_keep_clearance_from_parent_boundary():
    rng = np.random.default_rng(6)
    shrink = 0.004
    for _ in range(10):
        level = int(rng.integers(2, 5))
        n = 2 ** (level + 1)
        cell = DyadicCell(level, int(rng.integers(n)), int(rng.integers(n)))
        region = shrink_cell(cell, shrink)
        if region.empty:
            continue
        pts = region.sample(200, rng)
        (ulo, uhi), (plo, phi) = cell_bounds(cell)
        u = pts[:, 2]
        p = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)
        assert np.all((ulo <= u) & (u <= uhi))
        assert np.all((plo <= p) & (p <= phi))
        # clearance from the theta boundaries is immediate
        theta = np.arccos(np.clip(u, -1, 1))
        assert np.all(theta >= math.acos(uhi) + shrink - 1e-9)
        assert np.all(theta <= math.acos(ulo) - shrink + 1e-9)
        # clearance from the meridian boundaries via dense boundary sampling
        tb = np.linspace(math.acos(uhi), math.acos(ulo), 200)
        for edge_phi in (plo, phi):
            edge = np.stack([np.sin(tb) * math.cos(edge_phi),
                             np.sin(tb) * math.sin(edge_phi), np.cos(tb)], axis=1)
            dots = pts @ edge.T
            dmin = np.arccos(np.clip(dots.max(), -1, 1))
            assert dmin >= shrink - 1e-6


def test_remove_polar_caps():
    sel = CellSet(2, all_cells(2))
    with pytest.raises(ValueError):
        remove_polar_caps(sel, -0.1)
    assert remove_polar_caps(sel, 0.0) == sel
    trimmed = remove_polar_caps(sel, 0.05)
    # exactly the two polar bands go
    assert len(trimmed) == len(sel) - 16
    assert all(band not in (0, 7) for band, _ in trimmed)
    # a large delta empties the selection
    assert len(remove_polar_caps(sel, math.pi / 2)) == 0


def test_lower_bound_holds_for_real_regions():
    c = choose_constants(0.01, MU_DC)
    rng = np.random.default_rng(3)
    for level in (5, 6, 7):
        shrink = c.shrink(level)
        n = 2 ** (level + 1)
        for _ in range(20):
            cell = DyadicCell(level, int(rng.integers(1, n - 1)), int(rng.integers(n)))
            region = shrink_cell(cell, shrink)
            bound = scaled_measure_lower_bound(cell, c)
            assert region.measure() >= bound - 1e-12


def test_scale_set_accounting_and_determinism():
    sel = double_cap_cellset(3)
    c = choose_constants(0.01, sel.measure())
    summary = scale_set(sel, c)
    assert summary.removed_cells == len(sel) - len(summary.kept)
    assert summary.removed_measure == pytest.approx(
        summary.removed_cells * cell_area(3), abs=1e-12)
    assert summary.total_region_measure == pytest.approx(
        sum(r.measure() for r in summary.regions), abs=1e-12)
    assert summary.target_measure == pytest.approx(0.99 * sel.measure(), abs=1e-12)
    assert summary.lower_bound_total <= summary.total_region_measure + 1e-12
    again = scale_set(sel, c)
    assert summary.to_json() == again.to_json()


def test_scale_summary_json_round_trip(tmp_path):
    sel = double_cap_cellset(2)
    summary = scale_set(sel, choose_constants(0.01, sel.measure()))
    path = tmp_path / "scale.json"
    summary.save(path)
    doc = json.loads(path.read_text())
    assert doc["summary"]["kept_cells"] == len(summary.kept)
    assert len(doc["regions"]) == len(summary.regions)


def test_verify_scaled_opf_clean_double_cap():
    sel = double_cap_cellset(3)
    summary = scale_set(sel, choose_constants(0.01, sel.measure()))
    cert = verify_scaled_opf(summary.regions)
    assert cert.ok
    assert cert.n_regions == len(summary.regions)


def test_verify_scaled_opf_flags_full_sphere():
    sel = CellSet(2, all_cells(2))
    summary = scale_set(sel, choose_constants(0.005, sel.measure()))
    cert = verify_scaled_opf(summary.regions)
    assert not cert.ok
    # violations are region-index pairs with i <= j
    assert all(i <= j for i, j in cert.violations)
    # a nonzero margin can only add violations
    wide = verify_scaled_opf(summary.regions, margin=0.05)
    assert len(wide.violations) >= len(cert.violations)


def test_scaled_regions_are_arrays_with_objects_on_access():
    sel = CellSet(2, all_cells(2))
    summary = scale_set(sel, choose_constants(0.005, sel.measure()))
    regions = summary.regions
    assert isinstance(regions, ScaledRegions)
    before = dict(vars(regions))
    objects = tuple(regions)
    assert regions[0] == objects[0] and tuple(regions) == objects  # built on each access
    assert len(regions) == len(summary.kept) and regions[-1] == objects[-1]
    assert vars(regions).keys() == before.keys()  # reading stored nothing
    assert regions.empty.tolist() == [r.empty for r in objects]
    for a in (regions.cells, *regions.theta, *regions.phi, *regions.cos):
        with pytest.raises(ValueError):  # read-only: the objects cannot go stale
            a[0] = 0
    assert [(r.parent.band, r.parent.sector) for r in objects] == list(summary.kept)
    # the arrays the certificate reads are the objects' bounds
    assert regions.theta[0].tolist() == [r.theta_lo for r in objects]
    assert regions.theta[1].tolist() == [r.theta_hi for r in objects]
    assert regions.phi[0].tolist() == [r.phi_lo for r in objects]
    assert regions.phi[1].tolist() == [r.phi_hi for r in objects]
    assert regions.cos[0].tolist() == [math.cos(r.theta_lo) for r in objects]
    assert regions.cos[1].tolist() == [math.cos(r.theta_hi) for r in objects]
    # equal to the same regions built again, and to nothing that is not a ScaledRegions
    assert summary == scale_set(sel, summary.constants)
    shrink = summary.constants.shrink(2)
    assert _shrink_cells(2, summary.kept.array(), shrink)[0] == regions
    assert _shrink_cells(2, summary.kept.array()[:-1], shrink)[0] != regions
    assert regions != objects and objects != regions
    with pytest.raises(TypeError):
        hash(regions)
    # a polar cell is empty under any positive shrink: it is skipped but keeps its index
    padded, _ = _shrink_cells(2, np.vstack([[[0, 3]], summary.kept.array()]), shrink)
    assert padded.empty.tolist() == [True] + [False] * len(objects)
    for margin in (0.0, 0.05):
        cert = verify_scaled_opf(regions, margin)
        assert cert.violations and cert.n_regions == len(objects)
        shifted = verify_scaled_opf(padded, margin)
        assert shifted.violations == tuple((i + 1, j + 1) for i, j in cert.violations)
        assert shifted.pairs_evaluated == cert.pairs_evaluated
        assert shifted.n_regions == len(objects) + 1


def test_verify_scaled_opf_same_on_plain_regions():
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    rotcap = select_dense_cells(cap_union_oracle(
        [Cap(axis, math.pi / 4.0), Cap(-axis, math.pi / 4.0)]), 6, 0.01).selected
    summary = scale_set(rotcap, choose_constants(0.01, rotcap.measure()))
    cert = verify_scaled_opf(summary.regions)
    assert len(cert.violations) == 20
    # the same pairs from the ScaledRegion objects' own bounds
    live = [(i, r) for i, r in enumerate(summary.regions) if not r.empty]
    boxes = tuple(np.array(v) for v in zip(*[
        (math.cos(r.theta_hi), math.cos(r.theta_lo), r.phi_lo / TWO_PI, r.phi_hi / TWO_PI)
        for _, r in live]))
    pairs, evaluated = _pair_scan(boxes, 0.0)
    plain = sorted((live[i][0], live[j][0]) for i, j in pairs.tolist())
    assert tuple(plain) == cert.violations
    assert evaluated == cert.pairs_evaluated


def test_verify_scaled_opf_skips_empty_regions():
    # a polar cell and an equatorial cell meet at distance pi/2 (pole to equator);
    # any shrink empties the polar cell, and the certificate then skips it
    cells = np.array([[0, 3], [3, 0]])
    whole, _ = _shrink_cells(2, cells, 0.0)
    assert not whole.empty.any() and verify_scaled_opf(whole).violations == ((0, 1),)
    regions, measures = _shrink_cells(2, cells, 1e-5)
    assert regions.empty.tolist() == [True, False] and measures[0] == 0.0
    cert = verify_scaled_opf(regions)
    assert cert.ok and cert.n_regions == 2
    both, _ = _shrink_cells(2, np.array([[2, 3], [2, 3]]), 1.0)
    assert both.empty.all() and verify_scaled_opf(both).ok


def test_region_sampling_requires_nonempty():
    region = shrink_cell(DyadicCell(2, 3, 0), 1.0)
    with pytest.raises(ValueError):
        region.sample(10, np.random.default_rng(0))


def test_region_measure_matches_monte_carlo():
    region = shrink_cell(DyadicCell(3, 6, 2), 0.01)
    rng = np.random.default_rng(12)
    pts = region.sample(2000, rng)
    # points are unit and the exact box measure is positive
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert region.measure() > 0.0
    # spot-check one pairwise geodesic distance is finite and sane
    assert 0.0 <= geodesic_distance(pts[0], pts[1]) < math.pi


# Scalar reference: the per-cell loop scale_set ran before it worked per band.
def reference_shrink_cell(cell, shrink):
    """(ScaledRegion, name of the branch of the shrink rule that decided it)."""
    empty = (1.0, 0.0)
    tlo, thi = theta_bounds(cell)
    ntlo, nthi = tlo + shrink, thi - shrink
    (_, __), (plo, phi) = cell_bounds(cell)
    if ntlo >= nthi:
        return ScaledRegion(cell, shrink, *empty, plo, phi), "theta inverted"
    if shrink == 0.0:
        return ScaledRegion(cell, 0.0, tlo, thi, plo, phi), "no shrink"
    theta_worst = ntlo if math.sin(ntlo) <= math.sin(nthi) else nthi
    if not 0.0 < theta_worst < math.pi:
        return ScaledRegion(cell, shrink, ntlo, nthi, *empty), "pole"
    try:
        omega = lune_half_angle(shrink, theta_worst)
    except InfeasibleShrinkError:
        return ScaledRegion(cell, shrink, ntlo, nthi, *empty), "infeasible shrink"
    nplo, nphi = plo + omega, phi - omega
    if nplo >= nphi:
        return ScaledRegion(cell, shrink, ntlo, nthi, *empty), "phi inverted"
    return ScaledRegion(cell, shrink, ntlo, nthi, nplo, nphi), "shrunk"


class ReferenceRegions(tuple):
    """The reference ScaledRegion objects, serialised one region.to_json() at a time."""

    def to_json(self):
        return [r.to_json() for r in self]


def reference_scale_set(selection, constants):
    """(ScaleSummary, branch names hit) from the per-cell loop."""
    kept = []
    cd = math.cos(constants.delta)
    for band, sector in selection:
        (ulo, uhi), _ = cell_bounds(DyadicCell(selection.level, band, sector))
        if constants.delta == 0.0 or not (uhi > cd or ulo < -cd):
            kept.append((band, sector))
    shrink = constants.shrink(selection.level)
    shrunk = [reference_shrink_cell(DyadicCell(selection.level, b, s), shrink)
              for b, s in kept]
    regions = ReferenceRegions(r for r, _ in shrunk)
    # left to right, as sum() adds floats before Python 3.12
    total = bound_total = 0.0
    for b, s in kept:
        bound_total += scaled_measure_lower_bound(DyadicCell(selection.level, b, s), constants)
    for r in regions:
        total += r.measure()
    removed = len(selection) - len(kept)
    target = (1.0 - constants.epsilon) * selection.measure()
    summary = ScaleSummary(constants, regions, CellSet(selection.level, tuple(kept)), removed,
                           removed * cell_area(selection.level), total, bound_total,
                           target, total >= target)
    return summary, {name for _, name in shrunk}


def hand_made_constants(epsilon1, delta):
    return ScaleConstants(0.01, epsilon1, N_ROOT, delta, 1.0, (1.0, 0.0), (1.0, 0.0))


def scale_set_cases():
    rng = np.random.default_rng(10)
    rotated = np.array([1.0, 2.0, 2.0]) / 3.0
    rotcap = select_dense_cells(cap_union_oracle(
        [Cap(rotated, math.pi / 4.0), Cap(-rotated, math.pi / 4.0)]), 6, 0.01).selected
    cases = [("rotcap-l6", rotcap, choose_constants(0.01, rotcap.measure()))]
    for level in (4, 7):
        sel = double_cap_cellset(level)
        cases.append((f"double-cap-l{level}", sel, choose_constants(0.01, sel.measure())))
    for level in (3, 4, 5):
        n = 2 ** (level + 1)
        # every band, polar ones included, plus random cells
        cells = np.concatenate([np.stack([np.arange(n), rng.integers(0, n, n)], axis=1),
                                rng.integers(0, n, (n * n // 4, 2))])
        sel = CellSet(level, cells)
        cases.append((f"random-l{level}", sel, choose_constants(0.01, sel.measure())))
        # shrink 0; level 4 at epsilon1 0.05 hits every other branch
        for epsilon1 in (0.0, 1e-6, 0.05, 1.0):
            for delta in (1e-9, 0.2):  # cos(1e-9) == 1: polar cells stay
                cases.append((f"random-l{level}-e1={epsilon1}-delta={delta}", sel,
                              hand_made_constants(epsilon1, delta)))
    return cases


def test_scale_set_matches_scalar_reference():
    hit = set()
    for name, sel, constants in scale_set_cases():
        summary = scale_set(sel, constants)
        expected, branches = reference_scale_set(sel, constants)
        hit |= branches
        # booleans, not ==, under assert: pytest's diff of thousands of regions stalls
        differ = [i for i, (r, e) in enumerate(zip(summary.regions, expected.regions))
                  if r != e]
        assert not differ and len(summary.regions) == len(expected.regions), \
            (name, [(summary.regions[i], expected.regions[i]) for i in differ[:2]])
        same_json = json.dumps(summary.to_json()) == json.dumps(expected.to_json())
        assert same_json, name
        assert summary.total_region_measure == expected.total_region_measure, name
        assert summary.lower_bound_total == expected.lower_bound_total, name
        assert summary.kept == expected.kept, name
    # the pole branch needs a NaN shrink; every reachable branch is covered
    assert hit == {"theta inverted", "no shrink", "infeasible shrink", "phi inverted",
                   "shrunk"}


def test_shrink_cell_matches_scalar_reference():
    rng = np.random.default_rng(11)
    for level in (2, 3, 4):
        n = 2 ** (level + 1)
        for shrink in (0.0, 1e-4, 0.01, 0.05, 0.2, 1.0, 2.0):
            for band in range(n):
                cell = DyadicCell(level, band, int(rng.integers(n)))
                expected, _ = reference_shrink_cell(cell, shrink)
                assert shrink_cell(cell, shrink) == expected, (cell, shrink)
