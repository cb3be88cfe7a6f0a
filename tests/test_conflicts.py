import hashlib
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfsets import conflicts
from opfsets.conflicts import (ConflictGraph, CorruptCacheError, DotRange,
                               ResourceCapError, _pair_scan, build_conflict_graph,
                               cells_conflict, dot_range_boxes_u,
                               dot_range_cells, load_graph, save_graph,
                               selection_violations)
from opfsets.density import cap_union_oracle, select_dense_cells
from opfsets.grid import (CellSet, DyadicCell, all_cells, antipodal_cell, cell_bounds,
                          cell_bounds_batch, n_bands)
from opfsets.scaling import (choose_constants, largest_feasible_epsilon, scale_set,
                             _shrink_cells, verify_scaled_opf)
from opfsets.search import double_cap_cellset, selection_graph_violations
from opfsets.sphere import TWO_PI, Cap, from_polar

# sha256 of the self-conflicts followed by the edge list, as <u4, at margin 0:
# at levels 2-5 the body checksums of the version-1 cache files, whose bytes
# were pinned when graphs were still built by the pairwise scan; at level 7
# (43 302 400 edges) the list built from the doubled column lists
EDGE_LIST_SHA256 = {
    2: "280e166669f4331f6d8ff9a0ed3097c5978e90b8d8daf6896a04b5d9fcdcf30c",
    3: "d99326b27cb2f78833d6a56bed03e8a051752862d3db1011fcd2623ff6252a60",
    4: "76470fb7e02c3a903607139979c50cb38777c4cb795e282fe3feef7308bf617f",
    5: "bd8a596572d4cfc547608d5a2456e6da1e004408225d3cd3457abfdd9f7d0bfb",
    7: "2a9b9653edb03e0dfb266dec68a7c97aed5a96357b9d39c0a6b3fc6163554bcc",
}
# sha256 of save_graph output (version 2: the interval arrays) at margin 0
SAVED_GRAPH_SHA256 = {
    2: "1f9acc19a3869271132d7e1bd7d03b05a4d23cfbfb679e597a27c2d98f21174f",
    3: "0724f265d89edc497deb22a980b97f52880fa65f9ad1cd5d610ddbfb629b6944",
    4: "284fef758ac4b1d4779f542cf80603a087460fea5e8500d2dfdd77350f466cd4",
    5: "e737c462b1ffbd0de05e3eb71bbced5b081810d7fe8ee9daf0b68d9a96f7ae0e",
}


def sorted_pairs(pairs):
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def dense_pair_scan(boxes, margin, tile=1024):
    """Lexicographically sorted (i, j) pairs, i <= j, whose dot ranges contain 0
    within margin: every pair through the kernel, tiled over both axes."""
    ulo, uhi, plo, phi = (np.asarray(a, dtype=float) for a in boxes)
    m = len(ulo)
    found = [np.empty((0, 2), dtype=np.int64)]
    for r0 in range(0, m, tile):
        rows = np.arange(r0, min(r0 + tile, m))
        for c0 in range(r0, m, tile):
            cols = np.arange(c0, min(c0 + tile, m))
            lo, hi = dot_range_boxes_u(ulo[rows, None], uhi[rows, None],
                                       plo[rows, None], phi[rows, None],
                                       ulo[None, cols], uhi[None, cols],
                                       plo[None, cols], phi[None, cols])
            conflict = (lo - margin <= 0.0) & (hi + margin >= 0.0)
            conflict &= cols[None, :] >= rows[:, None]
            ii, jj = np.nonzero(conflict)
            found.append(np.stack([rows[ii], cols[jj]], axis=1))
    return sorted_pairs(np.concatenate(found))


def reference_graph(level, margin=0.0):
    """(self_conflicts, edges) of a brute-force build: every cell pair through
    the dense pairwise kernel scan."""
    n = n_bands(level)
    w = 2.0 ** (-level)
    bands = np.arange(n).repeat(n)
    sectors = np.tile(np.arange(n), n)
    boxes = (1.0 - (bands + 1) * w, 1.0 - bands * w, sectors / n, (sectors + 1) / n)
    with_self = dense_pair_scan(boxes, margin)
    diagonal = with_self[:, 0] == with_self[:, 1]
    return (with_self[diagonal, 0].astype(np.uint32),
            with_self[~diagonal].astype(np.uint32))


def brute_force_violations(selection, margin=0.0):
    """(self-conflicting ordinals, conflicting pairs) by cells_conflict on each pair."""
    cells, n = [DyadicCell(selection.level, b, s) for b, s in selection], n_bands(selection.level)
    selfs = [c.band * n + c.sector for c in cells if cells_conflict(c, c, margin)]
    pairs = [(a.band * n + a.sector, b.band * n + b.sector) for i, a in enumerate(cells)
             for b in cells[i + 1:] if cells_conflict(a, b, margin)]
    return selfs, pairs


@lru_cache(maxsize=8)
def reference_table(level, margin=0.0):
    """T[b1, b2, d]: whether cell (b1, d) conflicts with cell (b2, 0), every
    sector offset d through the kernel; read-only."""
    n = n_bands(level)
    d = np.arange(n)  # band indices and sector offsets alike
    (ulo, uhi), _ = cell_bounds_batch(level, d, 0)
    table = np.empty((n, n, n), dtype=bool)
    step = max(1, conflicts._CHUNK // (n * n))
    for r0 in range(0, n, step):
        r = slice(r0, r0 + step)
        lo, hi = dot_range_boxes_u(ulo[r, None, None], uhi[r, None, None], d / n, (d + 1) / n,
                                   ulo[None, :, None], uhi[None, :, None], 0.0, 1.0 / n)
        table[r] = (lo - margin <= 0.0) & (hi + margin >= 0.0)
    table.flags.writeable = False
    return table


def reference_edges(graph):
    """The edge list by the band loop the graph once used: for each band, every
    sector row's mask over the bands at or above it, scanned with np.nonzero."""
    n = n_bands(graph.level)
    table = reference_table(graph.level, graph.margin)
    bands = np.arange(n)
    circ = (bands[:, None] - bands[None, :]) % n
    above = bands[None, :] > bands[:, None]
    chunks = []
    for b in range(n):
        hit = table[b, b:][:, circ].transpose(1, 0, 2)
        hit[:, 0] &= above
        rows, cols = np.nonzero(hit.reshape(n, -1))
        chunks.append(np.stack([rows + b * n, cols + b * n], axis=1).astype(np.uint32))
    return np.concatenate(chunks)


def reference_neighbours(graph, o):
    """Cell o's neighbour mask by the per-cell table gather the graph once used."""
    n = n_bands(graph.level)
    b, s = divmod(o, n)
    mask = reference_table(graph.level, graph.margin)[b][:, (s - np.arange(n)) % n].ravel()
    mask[o] = False
    return mask


def reference_graph_violations(selection, graph):
    """selection_graph_violations by the broadcast table lookup it once used."""
    n = n_bands(graph.level)
    table = reference_table(graph.level, graph.margin)
    bands, sectors = selection.array().T
    ords = bands * n + sectors
    bad = [(o, o) for o in ords[table[bands, bands, 0]].tolist()]
    k = len(ords)
    step = max(1, conflicts._CHUNK // max(k, 1))
    for r0 in range(0, k, step):
        rows = np.arange(r0, min(r0 + step, k))
        cols = np.arange(r0, k)
        hit = table[bands[rows, None], bands[None, cols],
                          (sectors[rows, None] - sectors[None, cols]) % n]
        hit &= cols[None, :] > rows[:, None]
        ii, jj = np.nonzero(hit)
        bad.extend(zip(ords[rows[ii]].tolist(), ords[cols[jj]].tolist()))
    return sorted(bad)


VIEW_MARGINS = (0.0, 1e-3, 0.05)


@st.composite
def cells(draw, max_level=4):
    level = draw(st.integers(0, max_level))
    n = n_bands(level)
    return DyadicCell(level, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))


def grid_dot_extremes(c1, c2, n=120):
    """Brute-force extremes of the inner product over sampled point pairs."""
    (l1, h1), (pl1, ph1) = cell_bounds(c1)
    (l2, h2), (pl2, ph2) = cell_bounds(c2)
    t1 = np.arccos(np.linspace(l1, h1, n))
    t2 = np.arccos(np.linspace(l2, h2, n))
    d = np.linspace(pl1 - ph2, ph1 - pl2, n)
    # the dot is monotone in cos(delta-phi), so factor the third axis
    cmin, cmax = np.cos(d).min(), np.cos(d).max()
    u1, u2 = np.cos(t1)[:, None], np.cos(t2)[None, :]
    ss = np.sin(t1)[:, None] * np.sin(t2)[None, :]
    vals = np.stack([u1 * u2 + cmin * ss, u1 * u2 + cmax * ss])
    return float(vals.min()), float(vals.max())


def test_dot_range_validation():
    with pytest.raises(ValueError):
        DotRange(0.5, -0.5)
    assert DotRange(-0.1, 0.2).contains_zero()
    assert not DotRange(0.05, 0.2).contains_zero()
    assert DotRange(0.05, 0.2).contains_zero(margin=0.1)


@pytest.mark.parametrize("margin", [math.nan, -1e-9, -0.5, math.inf])
def test_scalar_conflict_tests_reject_bad_margin(margin):
    # a NaN margin made every comparison False: a self-conflicting cell passed
    cell = DyadicCell(0, 0, 0)
    assert cells_conflict(cell, cell, 0.0)
    with pytest.raises(ValueError, match="margin"):
        cells_conflict(cell, cell, margin)
    with pytest.raises(ValueError, match="margin"):
        DotRange(-0.1, 0.2).contains_zero(margin)
    with pytest.raises(ValueError, match="margin"):
        selection_violations(CellSet(1, [(1, 0)]), margin)


def test_documented_cell_examples():
    # every level-0 cell contains orthogonal pairs on its own
    for band in range(2):
        for s in range(2):
            c = DyadicCell(0, band, s)
            assert cells_conflict(c, c)
    # level-1 equatorial cells self-conflict ((pi/2, 0) vs (pi/2, pi/2))
    for band, expect in ((0, False), (1, True), (2, True), (3, False)):
        c = DyadicCell(1, band, 0)
        assert cells_conflict(c, c) is expect
    # opposite polar cells: dot range [-1, 0.5]
    r = dot_range_cells(DyadicCell(1, 0, 0), DyadicCell(1, 3, 0))
    assert r.lo == -1.0
    assert abs(r.hi - 0.5) < 1e-12
    assert r.contains_zero()


def test_exact_zero_boundary():
    # cells meeting the equator touch the orthogonality boundary exactly
    r = dot_range_cells(DyadicCell(1, 1, 0), DyadicCell(1, 1, 0))
    assert r.lo == 0.0


@given(cells(), cells())
@settings(max_examples=150, deadline=None)
def test_symmetry(c1, c2):
    r12 = dot_range_cells(c1, c2)
    r21 = dot_range_cells(c2, c1)
    assert r12.lo == pytest.approx(r21.lo, abs=1e-12)
    assert r12.hi == pytest.approx(r21.hi, abs=1e-12)


@given(cells(max_level=3), cells(max_level=3))
@settings(max_examples=100, deadline=None)
def test_antipodal_invariance(c1, c2):
    if c1.level != c2.level:
        return
    r = dot_range_cells(c1, c2)
    ra = dot_range_cells(antipodal_cell(c1), antipodal_cell(c2))
    assert r.lo == pytest.approx(ra.lo, abs=1e-12)
    assert r.hi == pytest.approx(ra.hi, abs=1e-12)


@given(cells(max_level=3), cells(max_level=3))
@settings(max_examples=100, deadline=None)
def test_range_encloses_sampled_dots(c1, c2):
    lo, hi = grid_dot_extremes(c1, c2, n=40)
    r = dot_range_cells(c1, c2)
    assert r.lo <= lo + 1e-9
    assert r.hi >= hi - 1e-9


def test_range_tight_against_dense_grid():
    rng = np.random.default_rng(5)
    for _ in range(40):
        level = int(rng.integers(1, 4))
        n = n_bands(level)
        c1 = DyadicCell(level, int(rng.integers(n)), int(rng.integers(n)))
        c2 = DyadicCell(level, int(rng.integers(n)), int(rng.integers(n)))
        lo, hi = grid_dot_extremes(c1, c2, n=300)
        r = dot_range_cells(c1, c2)
        # the closed form must enclose the sampled extremes and sit close
        assert r.lo <= lo + 1e-9
        assert r.hi >= hi - 1e-9
        assert r.lo >= lo - 1e-3
        assert r.hi <= hi + 1e-3


def test_witness_points_inside_range():
    rng = np.random.default_rng(9)
    for _ in range(50):
        level = int(rng.integers(0, 4))
        n = n_bands(level)
        c1 = DyadicCell(level, int(rng.integers(n)), int(rng.integers(n)))
        c2 = DyadicCell(level, int(rng.integers(n)), int(rng.integers(n)))
        r = dot_range_cells(c1, c2)
        for _ in range(20):
            (l1, h1), (pl1, ph1) = cell_bounds(c1)
            (l2, h2), (pl2, ph2) = cell_bounds(c2)
            p = from_polar(math.acos(rng.uniform(l1, h1)), rng.uniform(pl1, ph1))
            q = from_polar(math.acos(rng.uniform(l2, h2)), rng.uniform(pl2, ph2))
            assert r.lo - 1e-12 <= float(p @ q) <= r.hi + 1e-12


def test_level0_graph():
    g = build_conflict_graph(0)
    assert list(g.self_conflicts) == [0, 1, 2, 3]
    assert [tuple(e) for e in g.edges] == [(0, 1), (0, 2), (0, 3),
                                           (1, 2), (1, 3), (2, 3)]
    assert g.n_cells() == 4


def test_level1_graph_self_conflicts():
    g = build_conflict_graph(1)
    # exactly the 8 equatorial cells (bands 1 and 2) self-conflict
    assert list(g.self_conflicts) == list(range(4, 12))


def test_adjacency_consistency():
    for level in range(6):
        for margin in VIEW_MARGINS:
            g = build_conflict_graph(level, margin)
            expect = {i: set() for i in range(g.n_cells())}
            for a, b in reference_edges(g).tolist():
                expect[a].add(b)
                expect[b].add(a)
            adj = g.adjacency()
            assert adj == expect
            assert [list(adj[i]) for i in adj] == [list(expect[i]) for i in expect]


def test_adjacency_sets_are_separate_objects():
    # each read builds a new set, so mutating one changes no later read
    g = build_conflict_graph(3)
    adj = g.adjacency()
    before = [list(adj[o]) for o in adj]
    last = g.n_cells() - 1
    adj[0].clear()
    adj[1].add(-1)
    adj[last].discard(before[last][0])
    assert [list(adj[o]) for o in adj] == before
    fresh = g.adjacency()
    assert [list(fresh[o]) for o in fresh] == before


def test_adjacency_reads_level_7_cells():
    # no per-cell state: the first read pays for `windows` (2n^3 bytes; its
    # build holds at most its two comparisons and their AND), and a read after
    # it an (m,) mask and O(degree) ints
    g = build_conflict_graph(7)
    m, windows_bytes = g.n_cells(), 2 * n_bands(7) ** 3
    adj = g.adjacency()
    tracemalloc.start()
    try:
        assert len(adj[0]) == g.degrees()[0]
        first_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        for o in (12_345, m - 1):
            assert len(adj[o]) == g.degrees()[o], o
        read_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert g.windows.nbytes == windows_bytes
    assert first_peak < 3 * windows_bytes + 64 * m
    assert read_peak < 64 * m


def test_adjacency_is_a_read_only_mapping():
    g = build_conflict_graph(2)
    adj = g.adjacency()
    m = g.n_cells()
    assert len(adj) == m and list(adj) == list(range(m))
    for key in (-1, m, "x", 1.5):
        assert key not in adj and adj.get(key) is None, key
        with pytest.raises(KeyError):
            adj[key]
    assert 0 in adj and m - 1 in adj
    assert adj.get(m - 1) == adj[m - 1] == set(np.flatnonzero(g.neighbours(m - 1)).tolist())
    with pytest.raises(TypeError):
        adj[0] = set()


def test_level6_adjacency_matches_sorted_edges():
    # each set against a set grown by ascending inserts from the edge list,
    # one cell at a time so only one dict of this size is alive
    g = build_conflict_graph(6)
    m = g.n_cells()
    pairs = np.sort(np.concatenate((g.edges, g.edges[:, ::-1])).astype(np.int64) @ [m, 1])
    cells, neighbours = np.divmod(pairs, m)
    ends = np.cumsum(np.bincount(cells, minlength=m))
    del pairs, cells
    adj = g.adjacency()
    assert list(adj) == list(range(m))
    for o, (start, end) in enumerate(zip(ends - np.diff(ends, prepend=0), ends)):
        expect = set(neighbours[start:end].tolist())
        assert adj[o] == expect and list(adj[o]) == list(expect), o


def test_rotated_views_match_reference():
    # edges, neighbour masks and their windows against the per-cell gathers
    for level in range(7):
        for margin in VIEW_MARGINS:
            g = build_conflict_graph(level, margin)
            n = n_bands(level)
            assert g.edges.dtype == np.uint32
            assert np.array_equal(g.edges, reference_edges(g)), (level, margin)
            k = np.arange(2 * n)
            assert np.array_equal(g.windows, reference_table(level, margin)[:, :, -k % n])
            if level <= 5:
                for o in range(g.n_cells()):
                    assert np.array_equal(g.neighbours(o), reference_neighbours(g, o)), o


def random_selections(graph, rng):
    """Seeded random selections of a graph's level; each nonempty one also
    takes three cells of self-conflicting bands when the level has any."""
    m, n = graph.n_cells(), n_bands(graph.level)
    selfs = graph.self_conflicts.astype(np.int64)
    for size in (0, 1, 9, 150, 600):
        ords = rng.choice(m, size=min(size, m), replace=False)
        if size and len(selfs):
            ords = np.concatenate([ords, rng.choice(selfs, size=3)])
        yield CellSet(graph.level, np.stack(np.divmod(ords, n), axis=1))


def test_selection_graph_violations_match_reference():
    rng = np.random.default_rng(41)
    seen_self = False
    for level in range(7):
        for margin in (*VIEW_MARGINS, 0.3):
            g = build_conflict_graph(level, margin)
            for sel in random_selections(g, rng):
                want = reference_graph_violations(sel, g)
                seen_self |= any(a == b for a, b in want)
                assert selection_graph_violations(sel, g) == want
    assert seen_self


def run_end_selections(graph, rng):
    """(case name, selection, pairs it must report): for band pairs whose run
    starts at t = 0, ends at t = n/2 or is empty, a random sector of the first
    band with the sectors of the second at distances 0, 1, n/2 and the run's
    far end (each side), then both bands whole."""
    n = n_bands(graph.level)
    f, l = graph.first, graph.last
    for name, mask in (("t = 0", f == 0), ("t = n/2", l == n // 2), ("empty", f > l)):
        pairs = np.argwhere(mask)
        for b1, b2 in pairs[rng.choice(len(pairs), size=min(4, len(pairs)), replace=False)]:
            s = int(rng.integers(n))
            offsets = {0, n // 2, int(l[b1, b2]), n - int(l[b1, b2]), 1, n - 1}
            cells = [(b1, s)] + [(b2, (s + d) % n) for d in offsets]
            must = [(b1 * n + s, b2 * n + (s + d) % n) for d in offsets
                    if f[b1, b2] <= min(d % n, n - d % n) <= l[b1, b2]]
            yield name, CellSet(graph.level, cells), must
        if len(pairs):
            b1, b2 = pairs[0]
            yield name, CellSet(graph.level, [(b, s) for b in {b1, b2}
                                                         for s in range(n)]), []


def test_selection_graph_violations_at_run_ends():
    # runs that touch t = 0 (both arcs hold d = 0) or t = n/2 (both hold
    # d = n/2), empty runs, whole bands and the empty selection
    rng = np.random.default_rng(18)
    seen = set()
    for level in range(7):
        for margin in (0.0, 1e-3, 0.05, 0.3):
            g = build_conflict_graph(level, margin)
            assert selection_graph_violations(CellSet(level, []), g) == []
            for name, sel, must in run_end_selections(g, rng):
                got = selection_graph_violations(sel, g)
                assert got == reference_graph_violations(sel, g), (level, margin, name)
                pairs = {tuple(sorted(p)) for p in must}
                assert pairs <= set(got), (level, margin, name)
                if pairs or name == "empty":
                    seen.add(name)
    assert {"t = 0", "t = n/2", "empty"} <= seen


def test_double_caps_have_no_graph_violations():
    for level in (5, 7):
        assert selection_graph_violations(double_cap_cellset(level),
                                          build_conflict_graph(level)) == []


def test_margin_monotone():
    base = build_conflict_graph(2)
    wide = build_conflict_graph(2, margin=0.05)
    assert len(wide.edges) >= len(base.edges)
    assert len(wide.self_conflicts) >= len(base.self_conflicts)


def test_resource_cap():
    assert conflicts.MAX_LEVEL == 7
    with pytest.raises(ResourceCapError, match="level 8 exceeds the maximum 7"):
        build_conflict_graph(8)


def test_selection_violations_matches_graph():
    g = build_conflict_graph(2)
    full = CellSet(2, [(b, s) for b in range(8) for s in range(8)])
    selfs, pairs = selection_violations(full)
    assert sorted(selfs) == sorted(int(o) for o in g.self_conflicts)
    assert pairs == sorted((int(a), int(b)) for a, b in g.edges)
    assert selection_violations(CellSet(2, [])) == ([], [])


def test_cache_round_trip(tmp_path):
    path = tmp_path / "g.opfg"
    for level in range(7):
        for margin in (0.0, 0.05):
            g = build_conflict_graph(level, margin)
            save_graph(g, path)
            loaded = load_graph(path)
            assert loaded == g, (level, margin)
            assert "edges" not in vars(loaded) and "windows" not in vars(loaded)
    assert path.stat().st_size == 4 * n_bands(6) ** 2 + conflicts._HEADER.size


def test_cache_corruption_detected(tmp_path):
    g = build_conflict_graph(1)
    path = tmp_path / "g1.opfg"
    save_graph(g, path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCacheError):
        load_graph(path)
    path.write_bytes(b"junk")
    with pytest.raises(CorruptCacheError):
        load_graph(path)
    path.write_bytes(b"XXXX" + bytes(60))
    with pytest.raises(CorruptCacheError):
        load_graph(path)


def _rewrite_header(path, **fields):
    """Replace named header fields of a saved cache; the checksum covers only the body."""
    raw = path.read_bytes()
    header = conflicts._HEADER.unpack(raw[:conflicts._HEADER.size])
    names = ("magic", "version", "level", "margin", "digest")
    header = [fields.get(name, value) for name, value in zip(names, header)]
    path.write_bytes(conflicts._HEADER.pack(*header) + raw[conflicts._HEADER.size:])


@pytest.mark.parametrize("level", [12, 25, 65535])
def test_cache_header_level_beyond_body_rejected(tmp_path, level):
    # only the intervals are checksummed; a level-3 body under a header level above
    # MAX_LEVEL is refused before anything is built
    path = tmp_path / "g3.opfg"
    save_graph(build_conflict_graph(3), path)
    _rewrite_header(path, level=level)
    with pytest.raises(CorruptCacheError, match=f"header level {level} "):
        load_graph(path)


@pytest.mark.parametrize("margin, message", [
    (0.05, "differs from the level 3 margin 0.05 graph"),
    (math.nan, "header level 3 margin nan "),
    (-1.0, "header level 3 margin -1.0 ")], ids=["0.05", "nan", "-1"])
def test_cache_header_margin_rewritten_rejected(tmp_path, margin, message):
    # a level-3 margin-0 cache relabelled margin 0.05 used to load as a
    # 10 848-edge "margin 0.05" graph; the true one has 12 192 edges
    path = tmp_path / "g3.opfg"
    save_graph(build_conflict_graph(3), path)
    _rewrite_header(path, margin=margin)
    with pytest.raises(CorruptCacheError, match=message):
        load_graph(path)
    assert len(build_conflict_graph(3, 0.05).edges) == 12192


def test_graph_deterministic():
    a = build_conflict_graph(2)
    b = build_conflict_graph(2)
    assert a == b
    assert a != build_conflict_graph(2, margin=0.05)
    assert isinstance(a, ConflictGraph)


def _rewrite_intervals(path, first, last):
    """Replace a saved cache's interval arrays, with a matching checksum."""
    body = np.stack((first, last)).astype("<u2").tobytes()
    header = conflicts._HEADER.unpack(path.read_bytes()[:conflicts._HEADER.size])
    path.write_bytes(conflicts._HEADER.pack(*header[:4], hashlib.sha256(body).digest()) + body)


def test_cache_not_circulant_rejected(tmp_path):
    g = build_conflict_graph(2)
    path = tmp_path / "g2.opfg"
    save_graph(g, path)
    assert (g.first[1, 2], g.last[1, 2]) == (2, 3) and g.last[0, 1] == 4
    assert (g.first[0, 0], g.last[0, 0]) == (1, 0)
    # every body below has a matching checksum: only the rebuild tells
    differs = "differs from the level 2 margin 0 graph"
    widened, asymmetric, beyond = (g.last.copy() for _ in range(3))
    widened[1, 2] = widened[2, 1] = 4  # one run widened by one
    asymmetric[1, 2] = 4
    beyond[0, 1] = beyond[1, 0] = 5    # past the largest distance n/2 = 4
    empty = g.first.copy()
    empty[0, 0] = 2                    # the empty run stored as (2, 0)
    for first, last in ((g.first, widened), (g.first, asymmetric), (empty, g.last),
                        (g.first, beyond)):
        _rewrite_intervals(path, first, last)
        with pytest.raises(CorruptCacheError, match=differs):
            load_graph(path)
    # the original arrays load back to the same graph
    _rewrite_intervals(path, g.first, g.last)
    assert load_graph(path) == g
    # a version-1 file is refused by its header, before any checksum
    _rewrite_header(path, version=1)
    with pytest.raises(CorruptCacheError, match=r"bad magic/version .* v1"):
        load_graph(path)


@pytest.mark.parametrize("margin", [0.0, 1e-3, 0.05, 0.3])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6, 7])
def test_intervals_match_kernel_table(level, margin):
    table = reference_table(level, margin)
    n = n_bands(level)
    d = np.arange(n)
    flip = n - 1 - d
    assert np.array_equal(table, table[:, :, -d % n])                      # d <-> n - d
    assert np.array_equal(table, table.transpose(1, 0, 2))                 # transpose
    assert np.array_equal(table, table[flip][:, flip])                     # z -> -z on both
    assert np.array_equal(table, table[flip][:, :, (d + n // 2) % n])      # one cell antipodal
    g = build_conflict_graph(level, margin)
    t = np.minimum(d, n - d)
    assert np.array_equal((g.first[:, :, None] <= t) & (t <= g.last[:, :, None]), table)
    empty = g.first > g.last
    assert (g.first[empty] == 1).all() and (g.last[empty] == 0).all()
    diagonal = table[d, d, 0]
    assert np.array_equal(g.self_conflicting(), np.repeat(diagonal, n))
    assert np.array_equal(g.degrees(), np.repeat(table.sum(axis=(1, 2)) - diagonal, n))


# margins log-spread over [1e-12, 0.5]: the closed-form build at generic margins
RANDOM_MARGINS = np.exp(np.random.default_rng(18).uniform(math.log(1e-12), math.log(0.5), 24))


def test_interval_build_matches_kernel_table_at_random_margins():
    for i, margin in enumerate(RANDOM_MARGINS.tolist()):
        for level in range(7 if i % 4 == 0 else 6):  # level 6 at six of the margins
            table = reference_table.__wrapped__(level, margin)
            g = build_conflict_graph(level, margin)
            n = n_bands(level)
            t = np.minimum(np.arange(n), n - np.arange(n))
            assert np.array_equal((g.first[:, :, None] <= t) & (t <= g.last[:, :, None]),
                                  table), (level, margin)
            empty = g.first > g.last
            assert (g.first[empty] == 1).all() and (g.last[empty] == 0).all()


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_octant_build_runs_the_kernel_on_one_octant(monkeypatch, level):
    # the build decides every band pair in closed form: the kernel runs on none
    seen = []

    def counting(*args):
        seen.append(args)
        return dot_range_boxes_u(*args)
    monkeypatch.setattr(conflicts, "dot_range_boxes_u", counting)
    build_conflict_graph(level, 0.05)
    assert seen == []


# sha256 of np.stack((first, last)) as <u2 from _interval_build, above MAX_LEVEL;
# the values of the kernel scan the closed form replaced
INTERVAL_SHA256 = {
    (8, 0.0): "ab687435ae375323d121fc0d805e4a4fea93ed1ccda5fbf5a147ac6b69e9df13",
    (8, 0.05): "927fcd221d51673d32e3740af3e3005984fc42510e119b16a0a9d3ad0c7e9c4c",
    (9, 0.0): "9f3f6be3953b511198d934a9300d9d0af172d1eaa4d7e89fbecbbcb4c91dc2a4",
}


@pytest.mark.parametrize("level, margin", sorted(INTERVAL_SHA256))
def test_interval_build_pinned_above_max_level(level, margin):
    body = np.stack(conflicts._interval_build(level, margin, np.arange(n_bands(level))))
    body = body.astype("<u2").tobytes()
    assert hashlib.sha256(body).hexdigest() == INTERVAL_SHA256[level, margin]


def test_graph_symmetric_at_range_end_margins():
    # a margin equal to the end of some kernel range puts decisions on their
    # rounding edge; the transpose, the band flip and the antipodal map on one
    # cell still hold bit for bit, and away from the tie every run is the
    # kernel's decision
    rng = np.random.default_rng(5)
    for level in range(2, 6):
        n = n_bands(level)
        h = n // 2
        t = np.arange(h + 1)
        (ulo, uhi), _ = cell_bounds_batch(level, np.arange(n), 0)
        lo, hi = dot_range_boxes_u(ulo[:, None, None], uhi[:, None, None], t / n,
                                   (t + 1) / n, ulo[None, :, None], uhi[None, :, None],
                                   0.0, 1.0 / n)
        north = (slice(h), slice(h))  # tie margins from the northern band pairs' range ends
        ends = np.unique(np.concatenate((-lo[north][lo[north] < 0], -hi[north][hi[north] < 0])))
        for margin in rng.choice(ends[ends < 0.6], size=8, replace=False).tolist():
            g = build_conflict_graph(level, margin)
            for a in (g.first, g.last):
                assert np.array_equal(a, a.T) and np.array_equal(a, a[::-1, ::-1])
            empty = g.first > g.last
            far_first = np.where(empty, 1, h - g.last)[:, ::-1]
            far_last = np.where(empty, 0, h - g.first)[:, ::-1]
            assert np.array_equal(far_first, g.first) and np.array_equal(far_last, g.last)
            hit = (lo - margin <= 0.0) & (hi + margin >= 0.0)
            runs = (g.first[:, :, None] <= t) & (t <= g.last[:, :, None])
            clear = (np.abs(lo - margin) > 1e-15) & (np.abs(hi + margin) > 1e-15)
            assert np.array_equal(runs[clear], hit[clear]), (level, margin)


@pytest.mark.parametrize("margin", [0.0, 0.05])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_table_graph_matches_pairwise_reference(level, margin):
    g = build_conflict_graph(level, margin)
    ref_selfs, ref_edges = reference_graph(level, margin)
    assert np.array_equal(g.self_conflicts, ref_selfs)
    assert np.array_equal(g.edges, ref_edges)
    assert g.edges.dtype == g.self_conflicts.dtype == np.uint32


def region_boxes(regions):
    """(ulo, uhi, plo, phi) of the nonempty regions, azimuth in turns, as
    verify_scaled_opf builds them."""
    live = [r for r in regions if not r.empty]
    return (np.array([math.cos(r.theta_hi) for r in live]),
            np.array([math.cos(r.theta_lo) for r in live]),
            np.array([r.phi_lo for r in live]) / TWO_PI,
            np.array([r.phi_hi for r in live]) / TWO_PI)


def random_boxes(rng, m):
    """m boxes in random order: a fifth touch a pole, a fifth wrap past one
    turn, a tenth have zero width in u and a tenth in azimuth."""
    ulo = rng.uniform(-1.0, 1.0, m)
    uhi = np.minimum(1.0, ulo + rng.uniform(0.0, 0.2, m))
    plo = rng.uniform(0.0, 1.0, m)
    phi = plo + rng.uniform(0.0, 0.1, m)
    kind = rng.integers(0, 10, m)
    uhi[kind == 0] = 1.0
    ulo[kind == 1] = -1.0
    plo[kind == 2] = rng.uniform(0.9, 1.0, np.count_nonzero(kind == 2))
    phi[kind == 2] = plo[kind == 2] + 0.15
    plo[kind == 3] = rng.uniform(0.95, 1.0, np.count_nonzero(kind == 3))
    phi[kind == 3] = plo[kind == 3] + 0.3
    uhi[kind == 4] = ulo[kind == 4]
    phi[kind == 5] = plo[kind == 5]
    return ulo, uhi, plo, phi


def rotcap_regions(level):
    """Scaled regions of the dense cells of two antipodal pi/4 caps about (1, 2, 2)/3."""
    rotated = np.array([1.0, 2.0, 2.0]) / 3.0
    caps = cap_union_oracle([Cap(rotated, math.pi / 4.0), Cap(-rotated, math.pi / 4.0)])
    rotcap = select_dense_cells(caps, level, 0.01).selected
    return scale_set(rotcap, choose_constants(0.01, rotcap.measure())).regions


def scaled_region_cases():
    """(name, regions): rotated caps at level 5 and the level-3 sphere, unshrunk
    (boxes in radians, so many decisions sit within ulps of zero) and scaled."""
    full3 = CellSet(3, all_cells(3))
    full_eps = 0.9 * largest_feasible_epsilon(full3.measure())
    return [("rotcap-l5", rotcap_regions(5)),
            ("full-l3-unshrunk", _shrink_cells(3, full3.array(), 0.0)[0]),
            ("full-l3-scaled", scale_set(full3, choose_constants(full_eps,
                                                                 full3.measure())).regions)]


def check_pair_scan(boxes, margin):
    """Compare _pair_scan with the dense scan, diagonal included; return the
    dense pairs."""
    want = dense_pair_scan(boxes, margin)
    got, evaluated = _pair_scan(boxes, margin)
    assert np.array_equal(sorted_pairs(got), want)
    m = len(boxes[0])
    assert len(want) <= evaluated <= m * (m + 1) // 2
    return want


def test_pair_scan_matches_dense():
    for name, regions in scaled_region_cases():
        live = np.array([i for i, r in enumerate(regions) if not r.empty])
        for margin in (0.0, 0.05):
            want = check_pair_scan(region_boxes(regions), margin)
            assert margin == 0.0 or len(want), name
            cert = verify_scaled_opf(regions, margin)
            assert cert.violations == tuple(map(tuple, live[want].tolist())), (name, margin)
    check_pair_scan(random_boxes(np.random.default_rng(11), 2003), 0.0)
    single = tuple(np.array([v]) for v in (-0.1, 0.1, 0.2, 0.5))  # over a quarter turn wide
    assert check_pair_scan(single, 0.0).tolist() == [[0, 0]]
    assert len(check_pair_scan(tuple(np.empty(0) for _ in range(4)), 0.0)) == 0


def test_block_pass_prunes_double_cap():
    sel = double_cap_cellset(5)
    regions = scale_set(sel, choose_constants(0.01, sel.measure())).regions
    m = sum(not r.empty for r in regions)
    cert = verify_scaled_opf(regions)
    assert cert.ok and m > 1000
    assert cert.pairs_evaluated < 0.01 * m * (m + 1) // 2


def test_tree_prunes_rotated_caps():
    # off-pole caps, not only the pole-centred double cap of the test above
    regions = rotcap_regions(5)
    m = sum(not r.empty for r in regions)
    cert = verify_scaled_opf(regions)
    assert cert.ok and m > 1000
    assert cert.pairs_evaluated < 0.01 * m * (m + 1) // 2


def test_pair_scan_independent_of_input_order():
    rng = np.random.default_rng(23)
    for boxes, margin in ((region_boxes(rotcap_regions(5)), 0.05),
                          (random_boxes(rng, 600), 0.0)):
        want = sorted_pairs(_pair_scan(boxes, margin)[0])
        assert len(want)
        perm = rng.permutation(len(boxes[0]))
        got = perm[_pair_scan(tuple(b[perm] for b in boxes), margin)[0]]
        assert np.array_equal(sorted_pairs(np.sort(got, axis=1)), want)


def test_pair_scan_chunked_matches_default(monkeypatch):
    # every tree level and the leaves then take several kernel calls
    boxes = random_boxes(np.random.default_rng(29), 200)
    pairs, evaluated = _pair_scan(boxes, 0.0)
    monkeypatch.setattr(conflicts, "_CHUNK", 64)
    got, got_evaluated = _pair_scan(boxes, 0.0)
    assert np.array_equal(got, pairs) and got_evaluated == evaluated


@pytest.mark.parametrize("margin", [0.0, 0.05])
def test_table_symmetric_and_views_agree(margin):
    # the search reads neighbour masks with the cell itself as the first
    # argument, edges with the lower ordinal first: symmetry makes them agree
    for level in range(6):
        g = build_conflict_graph(level, margin)
        assert np.array_equal(g.first, g.first.T) and np.array_equal(g.last, g.last.T)
        degrees = np.bincount(g.edges.ravel(), minlength=g.n_cells())
        assert np.array_equal(g.degrees(), degrees)


@pytest.mark.parametrize("level", sorted(EDGE_LIST_SHA256))
def test_edge_list_pinned(level):
    # hashed in place: at level 7 a concatenated copy would add ~700 MB
    g = build_conflict_graph(level)
    digest = hashlib.sha256(g.self_conflicts.astype("<u4", copy=False))
    digest.update(g.edges.astype("<u4", copy=False))
    assert digest.hexdigest() == EDGE_LIST_SHA256[level]


def test_edges_peak_is_about_the_list():
    # each band's rotated rows are sorted on their own, and the windows cube
    # is read in place: the build holds the list and one band's rows, where
    # a copy of the cube and a pool of doubled column lists came to 1.55x
    g = build_conflict_graph(6)
    g.windows
    tracemalloc.start()
    try:
        edges = g.edges
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * edges.nbytes


@pytest.mark.parametrize("level", sorted(SAVED_GRAPH_SHA256))
def test_saved_graph_bytes_pinned(tmp_path, level):
    path = tmp_path / "g.opfg"
    save_graph(build_conflict_graph(level), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_GRAPH_SHA256[level]


def test_selection_checks_match_brute_force():
    rng = np.random.default_rng(17)
    for level in (0, 1, 2, 3, 4):
        graph = build_conflict_graph(level)
        m = graph.n_cells()
        for size in (0, 1, 5, 24):
            ords = rng.choice(m, size=min(size, m), replace=False)
            sel = CellSet(level, [divmod(int(o), n_bands(level)) for o in ords])
            for margin in (0.0, 0.05):
                assert selection_violations(sel, margin) == brute_force_violations(sel, margin)
            selfs, pairs = brute_force_violations(sel)
            assert selection_graph_violations(sel, graph) == sorted(
                [(o, o) for o in selfs] + pairs)
    # the runs of the selection's occupied bands against the runs of the whole
    # level's graph: every cell at levels 0-5, seeded 300-cell selections at
    # levels 6-7
    for level in range(8):
        if level < 6:
            sel, margins = CellSet(level, all_cells(level)), (0.0, 1e-3, 0.05)
        else:
            ords = rng.choice(4 ** (level + 1), size=300, replace=False)
            sel = CellSet(level, np.stack(np.divmod(ords, n_bands(level)), axis=1))
            margins = (0.0, 0.05)
        for margin in margins:
            want = selection_graph_violations(sel, build_conflict_graph(level, margin))
            assert selection_violations(sel, margin) == (
                [a for a, b in want if a == b], [(a, b) for a, b in want if a != b])
    for level in (8, 9):
        assert selection_violations(double_cap_cellset(level)) == ([], [])


def test_chunked_evaluation_matches_single_pass(monkeypatch):
    # a chunk of twice the region count splits the tree's kernel calls: the
    # unshrunk regions of 40 cells touch, so hundreds of pairs reach the leaves
    rng = np.random.default_rng(3)
    sel = CellSet(3, [(int(b), int(s)) for b, s in rng.integers(0, 16, (40, 2))])
    regions = _shrink_cells(3, sel.array(), 0.0)[0]
    whole = verify_scaled_opf(regions, 0.05)
    assert whole.pairs_evaluated > 4 * len(sel)
    ords = [16 * b + s for b, s in sel]
    assert [(ords[i], ords[j]) for i, j in whole.violations] == selection_graph_violations(
        sel, build_conflict_graph(3, 0.05))
    monkeypatch.setattr(conflicts, "_CHUNK", 2 * len(sel))
    chunked = verify_scaled_opf(regions, 0.05)
    assert chunked == whole and chunked.pairs_evaluated == whole.pairs_evaluated


def test_selection_violations_need_neither_tree_nor_kernel(monkeypatch):
    # the closed-form runs alone answer; the reference is computed first
    rng = np.random.default_rng(29)
    cases = []
    for level in range(1, 7):
        n = n_bands(level)
        for margin in (0.0, 0.05):
            ords = rng.choice(n * n, size=min(40, n * n), replace=False)
            sel = CellSet(level, np.stack(np.divmod(ords, n), axis=1))
            want = brute_force_violations(sel, margin)
            assert want[1], (level, margin)
            cases.append((sel, margin, want))

    def refuse(*args):
        raise AssertionError("selection_violations reached the box tree or the kernel")

    monkeypatch.setattr(conflicts, "_pair_scan", refuse)
    monkeypatch.setattr(conflicts, "dot_range_boxes_u", refuse)
    for sel, margin, want in cases:
        assert selection_violations(sel, margin) == want


@pytest.mark.parametrize("level", [8, 9])
def test_selection_violations_above_max_level(level):
    # no graph exists at these levels; 150 cells of bands that conflict
    # (|u| near sqrt(1/2), where same-sector cells of the two caps meet, and
    # the equator, where cells a quarter turn apart meet), on three sector
    # windows, against cells_conflict on every pair
    n = n_bands(level)
    rng = np.random.default_rng(level)
    w = 2.0 ** -level
    near = [int((1.0 - u) / w) for u in (math.sqrt(0.5), 0.0, -math.sqrt(0.5))]
    bands = [b + d for b in near for d in (-1, 0)]
    sectors = [s + d for s in (0, n // 4, n // 2) for d in range(10)]
    picks = rng.choice(len(bands) * len(sectors), size=150, replace=False)
    sel = CellSet(level, [(bands[i // len(sectors)], sectors[i % len(sectors)]) for i in picks])
    cells = [DyadicCell(level, b, s) for b, s in sel]
    ords = [b * n + s for b, s in sel]
    # cells_conflict(a, b, margin) is dot_range_cells(a, b).contains_zero(margin):
    # one range a pair serves both margins
    ranges = {(i, j): dot_range_cells(cells[i], cells[j])
              for i in range(len(cells)) for j in range(i, len(cells))}
    for margin in (0.0, 0.05):
        hit = [(ords[i], ords[j]) for (i, j), r in ranges.items() if r.contains_zero(margin)]
        want = ([a for a, b in hit if a == b], [(a, b) for a, b in hit if a != b])
        assert want[1] and selection_violations(sel, margin) == want, margin
    assert selection_violations(CellSet(level, [])) == ([], [])
    with pytest.raises(ValueError, match="margin"):
        selection_violations(sel, math.nan)


@pytest.mark.parametrize("margin", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("entry", ["build_conflict_graph", "selection_violations",
                                   "verify_scaled_opf"])
def test_bad_margin_rejected(entry, margin):
    # a NaN margin would make every comparison false and so pass every pair
    full = CellSet(2, all_cells(2))
    regions = _shrink_cells(2, full.array(), 0.0)[0]
    none = _shrink_cells(2, np.empty((0, 2), dtype=np.int64), 0.0)[0]
    calls = {
        "build_conflict_graph": [lambda: build_conflict_graph(2, margin)],
        "selection_violations": [lambda: selection_violations(full, margin),
                                 lambda: selection_violations(CellSet(2, []), margin)],
        "verify_scaled_opf": [lambda: verify_scaled_opf(regions, margin),
                              lambda: verify_scaled_opf(none, margin)],
    }
    for call in calls[entry]:
        with pytest.raises(ValueError, match="margin"):
            call()
