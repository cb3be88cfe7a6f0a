"""Search for maximum-measure conflict-free cell selections.

All cells at a level have equal area, so maximizing measure is maximizing
cardinality: an unweighted maximum-independent-set problem on the conflict
graph.  Provided methods: the double-cap baseline, greedy construction,
(1,2)-swap local search, and exact branch-and-bound for small levels.  They
read each cell's conflicts as one (n, n) slice of ConflictGraph.windows, the
graph's band-pair sector intervals expanded over doubled sector offsets,
and OR, add or subtract it into an (n, n) view of their masks by ordinal,
never building an adjacency dict or copying a mask.  Local search finds
every member's (1,2)-swap in one pass over the cells that member alone
blocks, and stops drawing once no member has one.  Every result is
re-verified against the graph's runs, by the pair finder of conflicts.  The
results are compared with the published bounds on the largest
orthogonal-pair-free measure fraction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .conflicts import ConflictGraph, ResourceCapError, _member_pairs
from .grid import CellSet, cell_bounds_batch, n_bands, write_json

PUBLISHED_UPPER_BOUNDS = (1.0 / 3.0, 0.313, 0.308, 0.30153, 0.297742)
BEST_UPPER_BOUND = 0.297742
DOUBLE_CAP_FRACTION = 1.0 - math.sqrt(2.0) / 2.0  # two polar caps of radius pi/4
EXACT_MAX_CELLS = 64  # the most candidate cells exact_mis accepts
# the most branch-and-bound nodes exact_mis visits before it stops with optimal False;
# under the cell cap the largest run takes 123 (level 2)
EXACT_NODE_BUDGET = 1_000_000


class InfeasibleSelectionError(ValueError):
    """Selection violates the conflict graph; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"selection has {len(self.violations)} conflict violations: "
                         f"{self.violations[:10]}")


def _double_cap_bands(level: int) -> np.ndarray:
    """The bands strictly inside either open polar cap of radius pi/4, ascending."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    threshold = math.sqrt(2.0) / 2.0
    (cos_lo, cos_hi), _ = cell_bounds_batch(level, np.arange(n_bands(level)), 0)
    return np.flatnonzero((cos_lo > threshold) | (cos_hi < -threshold))  # north | south


def double_cap_cellset(level: int) -> CellSet:
    """All cells strictly inside either open polar cap of radius pi/4."""
    n = n_bands(level)
    bands = _double_cap_bands(level)
    return CellSet(level, np.stack(
        [np.repeat(bands, n), np.tile(np.arange(n), len(bands))], axis=1))


def double_cap_fraction(level: int) -> float:
    """double_cap_cellset(level).fraction() without building the cells.

    The set is whole bands of n cells each, so its n * |bands| / n^2 cells
    are the rational |bands| / n; both quotients round it correctly, to the
    same double.
    """
    return len(_double_cap_bands(level)) / n_bands(level)


def _check_level(selection: CellSet, graph: ConflictGraph) -> None:
    if selection.level != graph.level:
        raise ValueError(f"selection level {selection.level} != graph level {graph.level}")


def selection_graph_violations(selection: CellSet, graph: ConflictGraph) -> list:
    """Sorted ordinal pairs (a, b), a <= b, of a selection that conflict in a built
    graph, a == b for a self-conflict."""
    _check_level(selection, graph)
    a, b = _member_pairs(selection, graph._runs).T
    return list(zip(a.tolist(), b.tolist()))


@dataclass(frozen=True)
class SearchResult:
    selection: CellSet
    method: str
    seed: int | None = None
    iterations: int = 0
    nodes: int = 0
    optimal: bool | None = None

    @property
    def fraction(self) -> float:
        return self.selection.fraction()

    @property
    def measure_sr(self) -> float:
        return self.selection.measure()

    def bound_gaps(self) -> dict[str, float]:
        gaps = {f"upper_{b:g}": b - self.fraction for b in PUBLISHED_UPPER_BOUNDS}
        gaps["double_cap"] = DOUBLE_CAP_FRACTION - self.fraction
        return gaps

    @property
    def exceeds_best_bound(self) -> bool:
        """A genuine exceedance would contradict the literature; treat as a finding."""
        return self.fraction > BEST_UPPER_BOUND

    def to_json(self) -> dict:
        return {"selection": self.selection.to_json(), "method": self.method,
                "seed": self.seed, "iterations": self.iterations, "nodes": self.nodes,
                "optimal": self.optimal, "fraction": self.fraction,
                "measure_sr": self.measure_sr, "bound_gaps": self.bound_gaps(),
                "exceeds_best_bound": self.exceeds_best_bound}

    def save(self, path) -> None:
        write_json(path, self.to_json())

    def csv_row(self) -> list:
        return [self.selection.level, self.method,
                "" if self.seed is None else self.seed,
                len(self.selection), f"{self.fraction:.10f}",
                f"{BEST_UPPER_BOUND - self.fraction:.10f}",
                f"{DOUBLE_CAP_FRACTION - self.fraction:.10f}"]


CSV_HEADER = ["level", "method", "seed", "cells", "fraction",
              "gap_to_0.297742", "gap_to_double_cap"]


def write_leaderboard(results, path) -> None:
    rows = sorted(results, key=lambda r: -r.fraction)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow(r.csv_row())


def _cellset_from_ordinals(level: int, ords) -> CellSet:
    return CellSet(level, np.stack(
        np.divmod(np.asarray(ords, dtype=np.int64), n_bands(level)), axis=-1))


def _ordinals(selection: CellSet) -> np.ndarray:
    bands, sectors = selection.array().T
    return bands * n_bands(selection.level) + sectors


def _check_non_negative(**values) -> None:
    """Reject a negative budget or seed, naming the parameter."""
    for name, value in values.items():
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def greedy_mis(graph: ConflictGraph, order: str = "min-degree",
               seed: int | None = None) -> SearchResult:
    """Maximal conflict-free selection; min-degree or seeded random order."""
    if order not in ("random", "min-degree"):
        raise ValueError(f"unknown order {order!r}")
    _check_non_negative(seed=seed)
    n = n_bands(graph.level)
    blocked = graph.self_conflicting()
    blocked_view = blocked.reshape(n, n)  # by [band, sector], as conflict_view gives
    free = np.flatnonzero(~blocked)
    chosen = []
    if order == "random":
        rng = np.random.default_rng(0 if seed is None else seed)
        sequence = free.tolist()
        rng.shuffle(sequence)
        is_blocked = memoryview(blocked)  # Python bools, no numpy scalar per read
        for o in sequence:
            if not is_blocked[o]:
                chosen.append(o)
                blocked_view |= graph.conflict_view(o)  # o's own entry is clear: o is free
    else:
        # degree[v]: v's neighbours among the unblocked cells, kept up to date
        # as cells get blocked; only read for unblocked cells
        degree = graph.degrees() - sum(graph.neighbours(r) for r in graph.self_conflicts)
        degree_view = degree.reshape(n, n)
        while not blocked.all():
            # ties to the lowest ordinal
            o = int(np.argmin(np.where(blocked, graph.n_cells(), degree)))
            chosen.append(o)
            newly = (graph.conflict_view(o) & ~blocked_view).ravel()
            newly[o] = True
            blocked |= newly
            for r in np.flatnonzero(newly):  # unblocked, so free: r's own entry is clear
                degree_view -= graph.conflict_view(r)
    return SearchResult(_cellset_from_ordinals(graph.level, chosen),
                        f"greedy-{order}", seed, iterations=len(free))


def local_search(graph: ConflictGraph, init: CellSet, iters: int = 1000,
                 seed: int = 0) -> SearchResult:
    """(1,2)-swap hill climbing; never decreases the selection size.

    Each iteration draws a member r; if two non-conflicting cells are blocked
    by r alone, r leaves, the lowest such cell a with a compatible later one
    and the lowest such later b enter, and fill() adds whatever became free.
    Which pair r would take depends on the state only, so a swap table maps
    every member that has one to its pair, rebuilt after each swap from the
    cells that one member blocks, grouped by it.  When the table is empty no
    later draw can change the selection, and the search stops: the result
    and the iteration count are those of drawing all iters times.
    """
    _check_non_negative(iters=iters, seed=seed)
    _check_level(init, graph)
    n = n_bands(graph.level)
    free = ~graph.self_conflicting()
    current = np.zeros(graph.n_cells(), dtype=bool)
    current_view = current.reshape(n, n)
    # count[o]: how many cells of the current selection conflict with o
    count = np.zeros(graph.n_cells(), dtype=np.int64)
    count_view = count.reshape(n, n)  # by [band, sector], as conflict_view gives
    rng = np.random.default_rng(seed)

    def toggle(o: int, sign: int) -> None:
        # every cell toggled after the init check is free, so o's own entry
        # of its view is clear
        current[o] = sign > 0
        (np.add if sign > 0 else np.subtract)(count_view, graph.conflict_view(o), out=count_view)

    def fill() -> None:
        # insert, in ascending order, any cell with no conflicts against the
        # current selection; insertions only raise counts, so each cell is
        # checked once more when its turn comes
        for o in np.flatnonzero(free & ~current & (count == 0)):
            if count[o] == 0:
                toggle(o, 1)

    def swap_table() -> dict:
        # the cells that one member alone blocks, ascending, by that member
        blocked_by = {}
        for c in np.flatnonzero(free & ~current & (count == 1)).tolist():
            r = int(np.flatnonzero(graph.conflict_view(c) & current_view)[0])
            blocked_by.setdefault(r, []).append(c)
        table = {}
        for r, cands in blocked_by.items():
            cands = np.array(cands)
            for i, a in enumerate(cands[:-1]):
                later = cands[i + 1:]
                compatible = later[~graph.conflict_view(a)[np.divmod(later, n)]]
                if len(compatible):
                    table[r] = (int(a), int(compatible[0]))
                    break
        return table

    members = _ordinals(init)
    for o in members.tolist():
        toggle(o, 1)
    if count[members].any():  # a member conflicts with itself or another member
        raise InfeasibleSelectionError(selection_graph_violations(init, graph))
    fill()
    table = swap_table()
    # an empty selection stops at its first iteration
    steps = iters if current.any() else min(iters, 1)
    for _ in range(steps):
        if not table:
            break
        r = int(rng.choice(np.flatnonzero(current)))
        if r in table:
            a, b = table[r]
            toggle(r, -1)
            toggle(a, 1)
            toggle(b, 1)
            fill()
            table = swap_table()
    return SearchResult(_cellset_from_ordinals(graph.level, np.flatnonzero(current)),
                        "local-search", seed, iterations=steps)


def exact_mis(graph: ConflictGraph) -> SearchResult:
    """Branch-and-bound maximum conflict-free selection for small levels."""
    free = np.flatnonzero(~graph.self_conflicting())
    if len(free) > EXACT_MAX_CELLS:
        raise ResourceCapError(
            f"{len(free)} candidate cells exceed the exact-search cap {EXACT_MAX_CELLS}")
    # conflicts among the candidate cells, indexed by position in free
    conflict = np.array([graph.neighbours(o)[free] for o in free],
                        dtype=bool).reshape(len(free), len(free))
    incumbent = _ordinals(greedy_mis(graph, "min-degree").selection).tolist()
    nodes = 0
    exhausted = False

    def recurse(chosen: list[int], candidates: np.ndarray) -> None:
        nonlocal incumbent, nodes, exhausted
        nodes += 1
        if nodes > EXACT_NODE_BUDGET:
            exhausted = True
            return
        if len(chosen) + len(candidates) <= len(incumbent):
            return
        if not len(candidates):
            if len(chosen) > len(incumbent):
                incumbent = free[chosen].tolist()
            return
        # branch on the candidate with the most remaining conflicts; candidates
        # stay ascending, so argmax breaks ties to the lowest ordinal
        k = int(np.argmax(conflict[np.ix_(candidates, candidates)].sum(axis=1)))
        v = int(candidates[k])
        rest = np.delete(candidates, k)
        recurse(chosen + [v], rest[~conflict[v, rest]])
        if not exhausted:
            recurse(chosen, rest)

    recurse([], np.arange(len(free)))
    return SearchResult(_cellset_from_ordinals(graph.level, incumbent),
                        "exact", None, nodes=nodes, optimal=not exhausted)


def evaluate(selection: CellSet, graph: ConflictGraph,
             method: str = "evaluate") -> SearchResult:
    """Verify feasibility and package the bound comparison."""
    bad = selection_graph_violations(selection, graph)
    if bad:
        raise InfeasibleSelectionError(bad)
    return SearchResult(selection, method)
