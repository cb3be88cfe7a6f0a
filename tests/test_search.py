import csv
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from opfsets import search
from opfsets.conflicts import ConflictGraph, ResourceCapError, build_conflict_graph
from opfsets.grid import CellSet, all_cells, n_bands
from opfsets.search import (BEST_UPPER_BOUND, DOUBLE_CAP_FRACTION, EXACT_MAX_CELLS,
                            InfeasibleSelectionError, PUBLISHED_UPPER_BOUNDS,
                            SearchResult, double_cap_cellset, double_cap_fraction,
                            evaluate,
                            exact_mis, greedy_mis, local_search,
                            selection_graph_violations, write_leaderboard)

# sha256 of the comma-joined ascending ordinals of each search result, and the
# local-search iteration and exact-search node counts, as computed when the
# search still ran on a dict of neighbour sets
GREEDY_RANDOM_SHA256 = {  # (level, seed)
    (2, 0): "05c71c8f5411f0e259249ed894af66b9dafa6c8923b03157b8ac2a04702e1b11",
    (2, 1): "f37db8e0acb2598998dfa5682b7c84e13c854087ba584495793a57603edc8c7b",
    (2, 2): "8b732ba6f7b0ff3ec4d66d6b53cd11c660c657b19bee972b0ff23bead6ec12dc",
    (3, 0): "b844ae3f33ca7dd9f16ae742b1edd655b365b969e4fd80b87cfa74acf7b20770",
    (3, 1): "1898bdb562fb721589b28ccc9c380721733e719378186b867dee83d5d2bb94a4",
    (3, 2): "bf9062f49f81cbc3f3a8feb2e0685c44968be29c9da0d710621c295875bd53ac",
    (4, 0): "305b697be7e7df60d95bcf876e0b0dcc4825da8081e53ad8f696d3928f18efab",
    (4, 1): "c49aceaefcbfac78afc2e9366e4bdb77454f9bb62af1181dd171b5abc35c7ca1",
    (4, 2): "3bf1f789e15dc52a741f6306bd7d9c2f7786cb962c85eb4031deeb8a17530e10",
    (5, 0): "62772fe3cfbd325825393c4132eac3ff92579999899bc9492b5895ac317a638b",
    (5, 1): "ade6390e945baffc67d4319e1dfb4075cf718fc8824cd63efbd8dd74dbe03a7d",
    (5, 2): "8b847815dc02ef2a6811727dcdea4ce206802abd7bcf549a31737529aa4fb748",
}
GREEDY_MIN_DEGREE_SHA256 = {
    2: "f37db8e0acb2598998dfa5682b7c84e13c854087ba584495793a57603edc8c7b",
    3: "a4083b11f7f8760a51061d4a4d43254d3e0a96e2c2a384b9e1fd416abf22566e",
    4: "cdbb02b93c3f12598c165395a2f6096dd40a22dd7cfcc7332d1433527b09ce51",
}
# local_search(iters=200, seed=0) from the greedy-random seed-0 selection
LOCAL_SEARCH_PINS = {  # level: (sha256, iterations)
    2: ("05c71c8f5411f0e259249ed894af66b9dafa6c8923b03157b8ac2a04702e1b11", 200),
    3: ("b844ae3f33ca7dd9f16ae742b1edd655b365b969e4fd80b87cfa74acf7b20770", 200),
    4: ("305b697be7e7df60d95bcf876e0b0dcc4825da8081e53ad8f696d3928f18efab", 200),
    5: ("62772fe3cfbd325825393c4132eac3ff92579999899bc9492b5895ac317a638b", 200),
}
EXACT_PINS = {  # level: (sha256, nodes)
    0: ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    1: ("dbd8e9774cf21e6a50e2771fd71691514e772ee5f7ad06a094a736c294c05040", 13),
    2: ("f37db8e0acb2598998dfa5682b7c84e13c854087ba584495793a57603edc8c7b", 123),
}


def ordinals(selection):
    return [b * n_bands(selection.level) + s for b, s in selection]


def digest(selection):
    return hashlib.sha256(",".join(map(str, ordinals(selection))).encode()).hexdigest()


def reference_greedy(graph, order, seed=None):
    """Greedy selection on the adjacency dict, as an ordinal list."""
    adj = dict(graph.adjacency())
    selfs = set(int(o) for o in graph.self_conflicts)
    free = [o for o in range(graph.n_cells()) if o not in selfs]
    candidates = set(free)
    chosen = []
    if order == "random":
        sequence = list(free)
        np.random.default_rng(0 if seed is None else seed).shuffle(sequence)
    while candidates:
        if order == "random":
            o = sequence.pop(0)
            if o not in candidates:
                continue
        else:
            o = min(candidates, key=lambda v: (len(adj[v] & candidates), v))
        chosen.append(o)
        candidates.discard(o)
        candidates -= adj[o]
    return sorted(chosen)


def reference_local(graph, init, iters, seed):
    """(1,2)-swap local search on the adjacency dict: (ordinals, iterations, swaps)."""
    adj = dict(graph.adjacency())
    selfs = set(int(o) for o in graph.self_conflicts)
    current = set(ordinals(init))
    rng = np.random.default_rng(seed)

    def fill():
        for o in range(graph.n_cells()):
            if o not in current and o not in selfs and not (adj[o] & current):
                current.add(o)

    fill()
    steps = swaps = 0
    for _ in range(iters):
        steps += 1
        if not current:
            break
        r = int(rng.choice(sorted(current)))
        cands = sorted(o for o in adj[r] if o not in selfs and o not in current
                       and len(adj[o] & current) == 1)
        pair = next(((a, b) for a, b in itertools.combinations(cands, 2)
                     if b not in adj[a]), None)
        if pair:
            current.discard(r)
            current.update(pair)
            fill()
            swaps += 1
    return sorted(current), steps, swaps


def reference_exact(graph):
    """Branch and bound on the adjacency dict: (ordinals, nodes)."""
    adj = dict(graph.adjacency())
    selfs = set(int(o) for o in graph.self_conflicts)
    best = reference_greedy(graph, "min-degree")
    nodes = 0

    def recurse(chosen, candidates):
        nonlocal best, nodes
        nodes += 1
        if len(chosen) + len(candidates) <= len(best):
            return
        if not candidates:
            best = sorted(chosen)
            return
        cset = set(candidates)
        v = max(candidates, key=lambda o: (len(adj[o] & cset), -o))
        rest = [o for o in candidates if o != v]
        recurse(chosen + [v], [o for o in rest if o not in adj[v]])
        recurse(chosen, rest)

    recurse([], [o for o in range(graph.n_cells()) if o not in selfs])
    return best, nodes


def random_interval_graph(level, density, seed):
    """Symmetric band-pair runs of one or two sector distances, each band pair
    conflicting with probability density, that no sphere geometry produced."""
    n = n_bands(level)
    rng = np.random.default_rng(seed)
    first = rng.integers(0, n // 2 + 1, (n, n))
    last = np.minimum(first + rng.integers(0, 2, (n, n)), n // 2)
    keep = rng.random((n, n)) < density
    first, last = np.where(keep, first, 1), np.where(keep, last, 0)  # (1, 0): no conflict
    upper = np.triu(np.ones((n, n), dtype=bool))
    return ConflictGraph(level, 0.0, np.where(upper, first, first.T),
                         np.where(upper, last, last.T))


def test_published_bounds_ordering():
    assert list(PUBLISHED_UPPER_BOUNDS) == sorted(PUBLISHED_UPPER_BOUNDS, reverse=True)
    assert BEST_UPPER_BOUND == PUBLISHED_UPPER_BOUNDS[-1]
    assert DOUBLE_CAP_FRACTION == pytest.approx(1 - math.sqrt(0.5), abs=1e-15)
    assert DOUBLE_CAP_FRACTION < BEST_UPPER_BOUND


def test_double_cap_cellset_fractions():
    with pytest.raises(ValueError):
        double_cap_cellset(0)
    assert double_cap_cellset(2).fraction() == 0.25
    assert double_cap_cellset(6).fraction() == 0.28125
    # strictly inside the open caps: no selected cell touches cos = sqrt(2)/2
    for band, _ in double_cap_cellset(3):
        lo = 1.0 - (band + 1) / 8.0
        hi = 1.0 - band / 8.0
        assert lo > math.sqrt(0.5) or hi < -math.sqrt(0.5)


def test_double_cap_cellset_matches_band_loop():
    # the per-band loop double_cap_cellset used before its array test
    def reference(level):
        n = n_bands(level)
        w = 2.0 ** (-level)
        threshold = math.sqrt(2.0) / 2.0
        cells = []
        for band in range(n):
            if 1.0 - (band + 1) * w > threshold:          # north cap
                cells.extend((band, s) for s in range(n))
            elif 1.0 - band * w < -threshold:             # south cap
                cells.extend((band, s) for s in range(n))
        return tuple(cells)

    for level in range(1, 10):
        members = tuple(double_cap_cellset(level))
        assert members == reference(level), level
        assert all(type(x) is int for m in members[:1] + members[-1:] for x in m)


def test_double_cap_fraction_is_the_cellsets():
    # the report sweep's fraction, read off the bands without building the cells
    with pytest.raises(ValueError):
        double_cap_fraction(0)
    for level in range(1, 11):
        assert double_cap_fraction(level).hex() == double_cap_cellset(level).fraction().hex()


def test_double_cap_is_conflict_free():
    for level in (2, 3):
        graph = build_conflict_graph(level)
        sel = double_cap_cellset(level)
        assert selection_graph_violations(sel, graph) == []
        result = evaluate(sel, graph, method="baseline")
        assert result.method == "baseline"
        assert not result.exceeds_best_bound


def test_selection_graph_violations_level_mismatch():
    graph = build_conflict_graph(2)
    with pytest.raises(ValueError):
        selection_graph_violations(double_cap_cellset(3), graph)


def test_evaluate_rejects_conflicting_selection():
    graph = build_conflict_graph(1)
    full = CellSet(1, all_cells(1))
    with pytest.raises(InfeasibleSelectionError) as exc:
        evaluate(full, graph)
    assert len(exc.value.violations) > 0


def test_greedy_feasible_and_deterministic():
    graph = build_conflict_graph(2)
    for order, seed in (("min-degree", None), ("random", 5)):
        r1 = greedy_mis(graph, order, seed=seed)
        r2 = greedy_mis(graph, order, seed=seed)
        assert r1.selection == r2.selection
        assert selection_graph_violations(r1.selection, graph) == []
        assert len(r1.selection) > 0
    with pytest.raises(ValueError):
        greedy_mis(graph, "alphabetical")


def test_local_search_improves_or_keeps():
    graph = build_conflict_graph(2)
    init = double_cap_cellset(2)
    result = local_search(graph, init, iters=50, seed=0)
    assert len(result.selection) >= len(init)
    assert selection_graph_violations(result.selection, graph) == []
    with pytest.raises(InfeasibleSelectionError):
        local_search(graph, CellSet(2, all_cells(2)))


def test_exact_mis_level1_matches_exhaustive():
    graph = build_conflict_graph(1)
    result = exact_mis(graph)
    assert result.optimal is True
    assert selection_graph_violations(result.selection, graph) == []
    # independent exhaustive enumeration over the conflict-free cells
    selfs = set(int(o) for o in graph.self_conflicts)
    free = [o for o in range(graph.n_cells()) if o not in selfs]
    adj = dict(graph.adjacency())
    best = 0
    for r in range(len(free), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(free, r):
            s = set(combo)
            if all(not (adj[o] & s) for o in combo):
                best = r
                break
        if best == r:
            break
    assert len(result.selection) == best


def test_exact_mis_level0_optimum_is_zero():
    graph = build_conflict_graph(0)
    result = exact_mis(graph)
    assert result.optimal is True
    assert len(result.selection) == 0


def test_exact_mis_respects_caps(monkeypatch):
    graph = build_conflict_graph(3)
    assert np.count_nonzero(~graph.self_conflicting()) > EXACT_MAX_CELLS
    with pytest.raises(ResourceCapError, match=f"cap {EXACT_MAX_CELLS}"):
        exact_mis(graph)
    monkeypatch.setattr(search, "EXACT_NODE_BUDGET", 2)
    limited = exact_mis(build_conflict_graph(1))
    assert limited.optimal is False
    # even when the budget runs out the incumbent is feasible
    assert selection_graph_violations(limited.selection,
                                      build_conflict_graph(1)) == []


def test_search_result_reporting(tmp_path):
    graph = build_conflict_graph(2)
    result = evaluate(double_cap_cellset(2), graph, method="baseline")
    gaps = result.bound_gaps()
    assert gaps["double_cap"] == pytest.approx(DOUBLE_CAP_FRACTION - 0.25)
    assert all(v > 0 for k, v in gaps.items() if k.startswith("upper_"))
    path = tmp_path / "result.json"
    result.save(path)
    doc = json.loads(path.read_text())
    assert doc["fraction"] == 0.25
    assert doc["exceeds_best_bound"] is False
    assert doc["selection"]["level"] == 2


def test_leaderboard_sorted_by_fraction(tmp_path):
    graph = build_conflict_graph(2)
    rows = [evaluate(double_cap_cellset(2), graph, "baseline"),
            greedy_mis(graph, "min-degree")]
    path = tmp_path / "board.csv"
    write_leaderboard(rows, path)
    parsed = list(csv.reader(path.read_text().splitlines()))
    assert parsed[0][0] == "level"
    fractions = [float(r[4]) for r in parsed[1:]]
    assert fractions == sorted(fractions, reverse=True)


def test_negative_budgets_rejected():
    graph = build_conflict_graph(1)
    start = greedy_mis(graph, "min-degree").selection
    calls = [("iters", lambda: local_search(graph, start, iters=-1)),
             ("seed", lambda: local_search(graph, start, seed=-2)),
             ("seed", lambda: greedy_mis(graph, "random", seed=-3))]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            call()
    # a zero budget is allowed: no swap
    assert local_search(graph, start, iters=0).iterations == 0


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_search_outputs_pinned(level):
    graph = build_conflict_graph(level)
    for seed in range(3):
        result = greedy_mis(graph, "random", seed=seed)
        assert digest(result.selection) == GREEDY_RANDOM_SHA256[level, seed]
    if level in GREEDY_MIN_DEGREE_SHA256:
        result = greedy_mis(graph, "min-degree")
        assert digest(result.selection) == GREEDY_MIN_DEGREE_SHA256[level]
    start = greedy_mis(graph, "random", seed=0).selection
    result = local_search(graph, start, iters=200, seed=0)
    assert (digest(result.selection), result.iterations) == LOCAL_SEARCH_PINS[level]


@pytest.mark.parametrize("level", sorted(EXACT_PINS))
def test_exact_search_pinned(level):
    result = exact_mis(build_conflict_graph(level))
    assert (digest(result.selection), result.nodes) == EXACT_PINS[level]
    assert result.optimal is True


def test_search_matches_adjacency_reference():
    # random interval relations make local search swap, which the sphere's
    # graphs never did from the pinned starts; some also self-conflict
    graphs = [build_conflict_graph(level, margin)
              for level in (1, 2, 3) for margin in (0.0, 0.05)]
    graphs += [random_interval_graph(level, density, seed)
               for level, density, seed in ((1, 0.15, 0), (2, 0.05, 1), (2, 0.1, 2),
                                            (3, 0.02, 3), (3, 0.04, 4))]
    swaps = 0
    for graph in graphs:
        for order, seed in (("min-degree", None), ("random", 0), ("random", 7)):
            result = greedy_mis(graph, order, seed=seed)
            assert ordinals(result.selection) == reference_greedy(graph, order, seed)
        # a third of a maximal selection, so fill() and swaps have room
        start = CellSet(graph.level, [
            divmod(o, n_bands(graph.level)) for o in reference_greedy(graph, "random", 3)[::3]])
        expect, steps, done = reference_local(graph, start, iters=60, seed=5)
        result = local_search(graph, start, iters=60, seed=5)
        assert (ordinals(result.selection), result.iterations) == (expect, steps)
        swaps += done
        if graph.n_cells() - len(graph.self_conflicts) <= 64:
            result = exact_mis(graph)
            assert (ordinals(result.selection), result.nodes) == reference_exact(graph)
    assert swaps > 0


class CountingRng:
    """A Generator that counts its choice() draws."""

    def __init__(self, rng):
        self.rng, self.choices = rng, 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return self.rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def counting_rngs(monkeypatch):
    """Make numpy's default_rng hand out CountingRngs for one test; returns them as made."""
    made, real = [], np.random.default_rng
    monkeypatch.setattr(search.np.random, "default_rng",
                        lambda seed=None: made.append(CountingRng(real(seed))) or made[-1])
    return made


@pytest.mark.parametrize("level", sorted(LOCAL_SEARCH_PINS))
def test_local_search_stops_drawing_without_a_swap(monkeypatch, level):
    # no member of the pinned starts has a (1,2)-swap, so no draw is made,
    # and the result still counts every iteration it was given
    graph = build_conflict_graph(level)
    start = greedy_mis(graph, "random", seed=0).selection
    made = counting_rngs(monkeypatch)
    result = local_search(graph, start, iters=200, seed=0)
    assert (digest(result.selection), result.iterations) == LOCAL_SEARCH_PINS[level]
    assert [rng.choices for rng in made] == [0]


def test_local_search_draws_while_a_swap_is_left(monkeypatch):
    # the counting wrapper sees draws where swaps happen
    graph = random_interval_graph(2, 0.05, 1)
    start = CellSet(2, [divmod(o, n_bands(2)) for o in reference_greedy(graph, "random", 3)[::3]])
    made = counting_rngs(monkeypatch)
    expect, steps, swaps = reference_local(graph, start, iters=300, seed=5)
    assert swaps > 0
    assert made[-1].choices == steps
    result = local_search(graph, start, iters=300, seed=5)
    assert (ordinals(result.selection), result.iterations) == (expect, steps)
    assert 0 < made[-1].choices <= steps


def test_local_search_matches_reference_on_interval_graphs():
    # dense relations give members several cells that only they block, so
    # the pair each takes is not the only one; at level 1, margin 0.3 every
    # cell conflicts with itself and the selection stays empty
    cases = [(random_interval_graph(level, density, 10 * seed + level), seed)
             for level, density, seed in itertools.product(
                 (1, 2, 3), (0.03, 0.1, 0.3, 0.5), range(6))]
    cases.append((build_conflict_graph(1, 0.3), 0))
    assert len(cases[-1][0].self_conflicts) == cases[-1][0].n_cells()
    swaps = 0
    for graph, seed in cases:
        full = reference_greedy(graph, "random", seed)
        n = n_bands(graph.level)
        for init in ([], full[::3], full[1::2], full[::4]):
            start = CellSet(graph.level, [divmod(o, n) for o in init])
            for iters in (0, 1, 300):
                expect, steps, done = reference_local(graph, start, iters, seed)
                result = local_search(graph, start, iters=iters, seed=seed)
                assert (ordinals(result.selection), result.iterations) == (expect, steps)
                swaps += done
    assert swaps > 0


def test_local_search_rejects_bad_inits_as_the_graph_check_does():
    # an infeasible, a self-conflicting and a mismatched-level init each raise
    # the error selection_graph_violations gives, with the same violations
    graph = build_conflict_graph(1, 0.05)
    assert 4 in graph.self_conflicts  # cell (1, 0)
    maximal = ordinals(greedy_mis(graph, "min-degree").selection)
    outside = next(o for o in range(graph.n_cells())
                   if o not in maximal and o not in graph.self_conflicts)
    for cells, selfs in ((all_cells(1), True), ([(1, 0)], True),
                         ([divmod(o, 4) for o in maximal + [outside]], False)):
        init = CellSet(1, cells)
        bad = selection_graph_violations(init, graph)
        assert bad and any(a == b for a, b in bad) == selfs
        with pytest.raises(InfeasibleSelectionError) as exc:
            local_search(graph, init)
        assert exc.value.violations == bad
        assert str(exc.value) == str(InfeasibleSelectionError(bad))
    for level in (0, 2, 3):  # below and above the graph's; ordinals past its cells
        init = double_cap_cellset(level) if level else CellSet(0, [(0, 0)])
        with pytest.raises(ValueError) as expected:
            selection_graph_violations(init, graph)
        with pytest.raises(ValueError) as exc:
            local_search(graph, init)
        assert type(exc.value) is type(expected.value)
        assert str(exc.value) == str(expected.value)
