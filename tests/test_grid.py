import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfsets.grid import (CellSet, DyadicCell, all_cells, antipodal_cell,
                          cell_area, cell_bounds, cell_count, locate_coords,
                          locate_coords_batch, locate_point, n_bands, neighbors,
                          parent, theta_bounds, write_json)
from opfsets.sphere import from_polar

levels = st.integers(0, 6)


@st.composite
def cells(draw, max_level=6):
    level = draw(st.integers(0, max_level))
    n = n_bands(level)
    return DyadicCell(level, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))


def test_counts_and_areas():
    for k in range(8):
        assert cell_count(k) == 4 * 4**k
        assert abs(cell_count(k) * cell_area(k) - 4.0 * math.pi) < 1e-12 * 4 * math.pi


def test_cell_validation():
    with pytest.raises(ValueError):
        DyadicCell(1, 4, 0)
    with pytest.raises(ValueError):
        DyadicCell(0, 0, -1)
    with pytest.raises(ValueError):
        n_bands(-1)


def test_documented_bounds():
    (clo, chi), (plo, phi) = cell_bounds(DyadicCell(0, 0, 0))
    assert (clo, chi) == (0.0, 1.0)
    assert (plo, phi) == (0.0, math.pi)
    (clo, chi), (plo, phi) = cell_bounds(DyadicCell(1, 1, 2))
    assert (clo, chi) == (0.0, 0.5)
    assert abs(plo - math.pi) < 1e-15 and abs(phi - 1.5 * math.pi) < 1e-15
    (clo, chi), _ = cell_bounds(DyadicCell(2, 0, 7))
    assert (clo, chi) == (0.75, 1.0)


@given(cells())
@settings(max_examples=200)
def test_bounds_width(cell):
    (clo, chi), (plo, phi) = cell_bounds(cell)
    assert abs((chi - clo) - 2.0 ** (-cell.level)) < 1e-15
    assert abs((phi - plo) - 2.0 * math.pi / n_bands(cell.level)) < 1e-12
    # exact area: width in cos(theta) times azimuthal width
    assert abs((chi - clo) * (phi - plo) - cell_area(cell.level)) < 1e-14


def test_locate_ties_go_low():
    # cos(theta) = 0.5 is the boundary between bands 0 and 1 at level 1
    assert locate_coords(0.5, 0.1, 1) == DyadicCell(1, 0, 0)
    assert locate_coords(1.0, 0.0, 1) == DyadicCell(1, 0, 0)
    assert locate_coords(-1.0, 0.0, 1) == DyadicCell(1, 3, 0)
    # phi boundary at pi/2 belongs to the lower sector
    assert locate_coords(0.9, math.pi / 2.0, 1).sector in (0, 1)
    assert locate_coords(0.9, 0.0, 1).sector == 0


def test_locate_coords_batch_matches_scalar():
    rng = np.random.default_rng(5)
    for level in range(6):
        n = n_bands(level)
        w = 2.0 ** (-level)
        edges_u = 1.0 - np.arange(n + 1) * w
        edges_phi = np.arange(n + 1) * (2.0 * math.pi / n)
        u = np.concatenate([rng.uniform(-1.0, 1.0, 500), edges_u, rng.choice(edges_u, 50)])
        phi = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 500),
                              rng.choice(edges_phi, n + 1), rng.choice(edges_phi, 50)])
        band, sector = locate_coords_batch(u, phi, level)
        assert [(int(b), int(s)) for b, s in zip(band, sector)] == [
            (c.band, c.sector) for c in (locate_coords(a, p, level) for a, p in zip(u, phi))]
        # a u on a band edge goes to the band above it (the lower index)
        on_edge, _ = locate_coords_batch(edges_u, np.full(n + 1, 0.1), level)
        assert on_edge.tolist() == [0] + list(range(n))


def test_locate_coords_batch_reduces_azimuths_outside_one_turn():
    # np.mod runs only when some azimuth lies outside [0, 2 pi): each batch
    # below mixes reduced azimuths with ones below 0, at or past 2 pi, or -0.0
    rng = np.random.default_rng(6)
    two_pi = 2.0 * math.pi
    for level in range(6):
        n = n_bands(level)
        edges = np.arange(n + 1) * (two_pi / n)
        inside = np.concatenate([rng.uniform(0.0, two_pi, 200), edges[:-1]])
        for extra in (-edges[1:], edges + two_pi, -rng.uniform(0.0, 20.0, 50),
                      rng.uniform(two_pi, 20.0, 50), [-0.0, 0.0, two_pi, -two_pi]):
            phi = np.concatenate([inside, extra])
            u = rng.uniform(-1.0, 1.0, len(phi))
            band, sector = locate_coords_batch(u, phi, level)
            assert [(int(b), int(s)) for b, s in zip(band, sector)] == [
                (c.band, c.sector) for c in (locate_coords(a, p, level) for a, p in zip(u, phi))]
        # a batch of -0.0 alone needs no reduction and still lands in sector 0
        assert locate_coords_batch([0.5], [-0.0], level)[1].tolist() == [0]
        assert locate_coords(0.5, -0.0, level).sector == 0


def test_parent_of_root_fails():
    with pytest.raises(ValueError):
        parent(DyadicCell(0, 1, 1))


@given(st.integers(0, 5), st.floats(-1, 1), st.floats(0, 2 * math.pi, exclude_max=True))
@settings(max_examples=300)
def test_locate_refinement_consistency(level, cos_theta, phi):
    coarse = locate_coords(cos_theta, phi, level)
    fine = locate_coords(cos_theta, phi, level + 1)
    # the tie-break can legitimately differ on shared boundaries
    x = (1.0 - cos_theta) * 2.0**level
    y = phi / (2.0 * math.pi / n_bands(level))
    on_boundary = x == int(x) or y == int(y) \
        or 2 * x == int(2 * x) or 2 * y == int(2 * y)
    if not on_boundary:
        assert parent(fine) == coarse


def test_locate_point_matches_bounds():
    rng = np.random.default_rng(11)
    for _ in range(200):
        z = 1.0 - 2.0 * rng.random()
        phi = 2.0 * math.pi * rng.random()
        theta = math.acos(z)
        cell = locate_point(from_polar(theta, phi), 3)
        (clo, chi), (plo, phi_hi) = cell_bounds(cell)
        assert clo - 1e-12 <= z <= chi + 1e-12
        assert plo - 1e-12 <= phi <= phi_hi + 1e-12


def test_neighbors_polar_and_wraparound():
    # all top-band cells meet at the pole
    top = neighbors(DyadicCell(2, 0, 0))
    assert all(DyadicCell(2, 0, s) in top for s in range(1, 8))
    # azimuthal wraparound
    assert DyadicCell(2, 1, 7) in neighbors(DyadicCell(2, 1, 0))
    mid = neighbors(DyadicCell(2, 3, 3))
    assert len(mid) == 8


@given(cells())
@settings(max_examples=200)
def test_neighbors_symmetric(cell):
    for nb in neighbors(cell):
        assert cell in neighbors(nb)


@given(cells())
@settings(max_examples=200)
def test_antipodal_involution(cell):
    img = antipodal_cell(cell)
    assert antipodal_cell(img) == cell
    (clo, chi), _ = cell_bounds(cell)
    (iclo, ichi), _ = cell_bounds(img)
    assert abs(iclo + chi) < 1e-15 and abs(ichi + clo) < 1e-15


def test_cellset_canonicalization_and_json(tmp_path):
    s = CellSet(2, [(3, 1), (0, 0), (3, 1)])
    assert list(s) == [(0, 0), (3, 1)]
    assert len(s) == 2
    assert DyadicCell(2, 3, 1) in s
    assert abs(s.measure() - 2 * cell_area(2)) < 1e-15
    assert s.fraction() == 2 / 64
    path = tmp_path / "s.json"
    s.save(path)
    doc = json.loads(path.read_text())
    assert doc == {"cells": [[0, 0], [3, 1]], "level": 2}
    assert CellSet.load(path) == s


def test_cellset_reads_filter_and_search_documents():
    s = CellSet(2, [(3, 1), (0, 0)])
    assert CellSet.from_json({"selected": s.to_json(), "cells": []}) == s
    assert CellSet.from_json({"selection": s.to_json(), "method": "baseline"}) == s
    with pytest.raises(ValueError, match='"selection"'):
        CellSet.from_json({"selection": [[0, 0]]})


def test_cellset_rejects_level_mismatch():
    with pytest.raises(ValueError):
        CellSet(2, [DyadicCell(3, 0, 0)])
    with pytest.raises(ValueError):
        CellSet(1, [(5, 0)])


def test_cellset_from_cells_accepts_every_cell_form():
    pairs = [(3, 1), (0, 7), (3, 0), (7, 7)]
    expected = CellSet(2, ((0, 7), (3, 0), (3, 1), (7, 7)))
    forms = {
        "pairs": pairs,
        "lists": [list(p) for p in pairs],
        "numpy scalars": [(np.int64(b), np.int32(s)) for b, s in pairs],
        "array": np.array(pairs),
        "int32 array": np.array(pairs, dtype=np.int32),
        "DyadicCells": (DyadicCell(2, b, s) for b, s in pairs),
        "duplicates": pairs + pairs[::-1] + [pairs[0]],
    }
    for name, cells in forms.items():
        s = CellSet(2, cells)
        assert s == expected, name
        assert all(type(x) is int for m in s for x in m), name
    for empty in ([], np.empty((0, 2), dtype=np.int64), np.array([]), iter(())):
        assert CellSet(2, empty) == CellSet(2, ())
    assert expected.array().tolist() == [list(m) for m in expected]
    assert expected.array().dtype == np.int64
    assert CellSet(2, ()).array().shape == (0, 2)
    assert CellSet(2, expected.array()) == expected
    # the set keeps one array; a write to array() raises
    built = CellSet(2, pairs)
    with pytest.raises(ValueError, match="read-only"):
        built.array()[0] = (7, 7)
    assert built.array().tolist() == expected.array().tolist()
    assert built == expected and hash(built) == hash(expected) and repr(built) == repr(expected)


def test_cellset_constructor_validates_as_from_cells():
    # the dataclass constructor is the one path: it canonicalizes and checks
    assert CellSet(2, [(3, 1), (0, 0), (3, 1)]) == CellSet(2, [(0, 0), (3, 1)])
    with pytest.raises(ValueError) as expected:
        DyadicCell(2, 9, 0)
    with pytest.raises(ValueError) as got:
        CellSet(2, [(9, 0)])
    assert str(got.value) == str(expected.value)
    s = CellSet(2, [(3, 1), (0, 0)])
    with pytest.raises(ValueError):
        s.array()[0, 0] = 1
    with pytest.raises(ValueError):
        s.array().setflags(write=True)
    assert s.array().tolist() == [[0, 0], [3, 1]]
    equal = CellSet(2, np.array([[3, 1], [0, 0], [0, 0]], dtype=np.int32))
    assert equal == s and hash(equal) == hash(s)
    assert CellSet(3, [(0, 0), (3, 1)]) != s and CellSet(2, [(0, 0)]) != s


def test_cellset_from_cells_errors_name_the_first_bad_cell():
    for cells in ([(0, 0), (8, 1), (9, 9)], [(1, 1), (0, -1), (-1, 0)],
                  np.array([[1, 2], [2, 8], [8, 2]]), [(np.int64(2), np.int64(9))],
                  [(1, 1), (3, 2**70), (-1, 0)]):
        first = next((int(b), int(s)) for b, s in cells if not (0 <= b < 8 and 0 <= s < 8))
        with pytest.raises(ValueError) as expected:
            DyadicCell(2, *first)
        with pytest.raises(ValueError) as got:
            CellSet(2, cells)
        assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError, match="does not match set level 2"):
        CellSet(2, [DyadicCell(2, 0, 0), DyadicCell(3, 0, 0)])
    with pytest.raises(ValueError, match="pairs"):
        CellSet(2, [(1, 2, 3), (4, 5, 6)])
    with pytest.raises(ValueError, match="int64"):
        CellSet(31, [(2**32 - 1, 2**32 - 1), (0, 0)])
    assert list(CellSet(30, [(2**31 - 1, 2**31 - 1), (0, 0)]))[-1] == (
        2**31 - 1, 2**31 - 1)


def test_cellset_refuses_non_integer_level_and_indices():
    # each was truncated: (1.7, 2) held the cell (1, 2), a level of 2.5 built float rows
    for level, cells in ((2, [(1.7, 2)]), (2.5, [(1, 2)]), ("2", [(1, 2)]), (True, [(1, 1)]),
                         (2, [(True, 2)]), (2, [(np.True_, 2)]), (2, [("1", 2)]),
                         (2, [DyadicCell(2, 1.0, 2)]), (2, np.array([[1.0, 2.0]])),
                         (2, np.array([[True, False]])), (np.float64(2.0), np.array([[1, 2]]))):
        with pytest.raises(ValueError, match="must be integers"):
            CellSet(level, cells)
    for doc in ({"level": "3", "cells": [[1, 1]]}, {"level": True, "cells": [[1, 1]]},
                {"level": 3, "cells": [[1, 1.0]]}):
        with pytest.raises(ValueError, match="must be integers"):
            CellSet.from_json(doc)
    # integers of any kind keep their rows, and empty arrays of any dtype hold no cells
    expected = CellSet(2, [(1, 2), (3, 0)])
    for level, cells in ((np.int64(2), [(1, 2), (3, 0)]),
                         (2, np.array([[3, 0], [1, 2]], np.uint8)),
                         (2, [(np.int16(3), 0), (1, np.uint64(2))])):
        assert CellSet(level, cells) == expected
    assert CellSet(2, np.zeros((0, 2))) == CellSet(2, [])
    assert CellSet.from_json({"level": 2, "cells": [[3, 0], [1, 2]]}) == expected


def test_cellset_stores_an_int_level(tmp_path):
    # a numpy integer level was kept as given, so save failed in json.dumps
    cells = CellSet(np.int64(2), [(1, 2)])
    assert type(cells.level) is int and type(cells.to_json()["level"]) is int
    cells.save(tmp_path / "cells.json")
    assert CellSet.load(tmp_path / "cells.json") == cells
    # int() takes these too: the type check comes first
    for level in (np.True_, np.float32(2.0)):
        with pytest.raises(ValueError, match="must be integers"):
            CellSet(level, [(1, 2)])


def test_all_cells_enumeration():
    cs = list(all_cells(1))
    assert len(cs) == 16
    assert cs[0] == DyadicCell(1, 0, 0)
    assert cs[-1] == DyadicCell(1, 3, 3)


def _dump_bytes(path, doc) -> bytes:
    """The bytes write_json wrote while it called json.dump."""
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    return path.read_bytes()


def test_write_json_bytes_match_json_dump(tmp_path):
    doc = {
        "zero": [0.0, -0.0, 0, -0],
        "subnormal": [5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308],
        "huge": [1e308, -1e308, 1.7976931348623157e308, 1e22, 1e16, 123456789012345678.0],
        "ints": [2**53 + 1, -(2**64) - 1, 10**30, True, False, None],
        "numpy": [np.float64(0.1), np.float64(-0.0), float(np.nextafter(1.0, 2.0))],
        "nested": [[[1.5, [2, [3.25, []]]], {}], {"b": {"a": [0.1, 0.2]}, "a": "é\n"}],
        "polygon": {"vertices": [[0.6, -0.0, 0.8], [1 / 3, 2 / 3, 2 / 3]]},
    }
    for value in (doc, [], {"k": 1}, 0.1):
        write_json(tmp_path / "new.json", value)
        assert (tmp_path / "new.json").read_bytes() == _dump_bytes(tmp_path / "old.json", value)
