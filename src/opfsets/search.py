"""Search for maximum-measure conflict-free cell selections.

All cells at a level have equal area, so maximizing measure is maximizing
cardinality: an unweighted maximum-independent-set problem on the conflict
graph.  Provided methods: the double-cap baseline, greedy construction,
(1,2)-swap local search, and exact branch-and-bound for small levels.
Every result is re-verified against the graph and compared with the
published bounds on the largest orthogonal-pair-free measure fraction.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .conflicts import ConflictGraph
from .grid import CellSet, DyadicCell, cell_from_ordinal, n_bands

PUBLISHED_UPPER_BOUNDS = (1.0 / 3.0, 0.313, 0.308, 0.30153, 0.297742)
BEST_UPPER_BOUND = 0.297742
DOUBLE_CAP_FRACTION = 1.0 - math.sqrt(2.0) / 2.0  # two polar caps of radius pi/4


class ExactSearchCapError(ValueError):
    """More candidate cells than exact search accepts."""


class InfeasibleSelectionError(ValueError):
    """Selection violates the conflict graph; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"selection has {len(self.violations)} conflict violations: "
                         f"{self.violations[:10]}")


def double_cap_cellset(level: int) -> CellSet:
    """All cells strictly inside either open polar cap of radius pi/4."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    n = n_bands(level)
    w = 2.0 ** (-level)
    threshold = math.sqrt(2.0) / 2.0
    cells = []
    for band in range(n):
        if 1.0 - (band + 1) * w > threshold:          # north cap
            cells.extend((band, s) for s in range(n))
        elif 1.0 - band * w < -threshold:             # south cap
            cells.extend((band, s) for s in range(n))
    return CellSet.from_cells(level, cells)


def selection_graph_violations(selection: CellSet, graph: ConflictGraph) -> list:
    """(ordinal, ordinal) violations of a selection against a built graph."""
    if selection.level != graph.level:
        raise ValueError(f"selection level {selection.level} != graph level {graph.level}")
    members = np.asarray(selection.members, dtype=np.int64).reshape(-1, 2)
    inside = np.zeros(graph.n_cells(), dtype=bool)
    inside[members[:, 0] * n_bands(selection.level) + members[:, 1]] = True
    selfs = graph.self_conflicts[inside[graph.self_conflicts]].tolist()
    pairs = graph.edges[inside[graph.edges].all(axis=1)].tolist()
    return sorted([(o, o) for o in selfs] + [(a, b) for a, b in pairs])


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
        with open(path, "w") as f:
            json.dump(self.to_json(), f, sort_keys=True, separators=(",", ":"))
            f.write("\n")

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


def _free_ordinals(graph: ConflictGraph) -> list[int]:
    selfs = set(int(o) for o in graph.self_conflicts)
    return [o for o in range(graph.n_cells()) if o not in selfs]


def _cellset_from_ordinals(level: int, ords) -> CellSet:
    return CellSet.from_cells(level, [
        (c.band, c.sector) for c in (cell_from_ordinal(level, o) for o in ords)])


def greedy_mis(graph: ConflictGraph, order: str = "min-degree",
               seed: int | None = None) -> SearchResult:
    """Maximal conflict-free selection; min-degree or seeded random order."""
    adj = graph.adjacency()
    free = _free_ordinals(graph)
    candidates = set(free)
    chosen = []
    if order == "random":
        rng = np.random.default_rng(0 if seed is None else seed)
        sequence = list(free)
        rng.shuffle(sequence)
        for o in sequence:
            if o in candidates:
                chosen.append(o)
                candidates.discard(o)
                candidates -= adj[o]
    elif order == "min-degree":
        while candidates:
            # degree within the remaining candidate set, ties to lowest ordinal
            o = min(candidates, key=lambda v: (len(adj[v] & candidates), v))
            chosen.append(o)
            candidates.discard(o)
            candidates -= adj[o]
    else:
        raise ValueError(f"unknown order {order!r}")
    return SearchResult(_cellset_from_ordinals(graph.level, chosen),
                        f"greedy-{order}", seed, iterations=len(free))


def local_search(graph: ConflictGraph, init: CellSet, iters: int = 1000,
                 seed: int = 0) -> SearchResult:
    """(1,2)-swap hill climbing; never decreases the selection size."""
    bad = selection_graph_violations(init, graph)
    if bad:
        raise InfeasibleSelectionError(bad)
    adj = graph.adjacency()
    selfs = set(int(o) for o in graph.self_conflicts)
    current = {DyadicCell(init.level, b, s).ordinal for b, s in init.members}
    rng = np.random.default_rng(seed)

    def conflict_count(o: int) -> int:
        return len(adj[o] & current)

    def fill() -> None:
        # insert any cell with no conflicts against the current selection
        for o in range(graph.n_cells()):
            if o not in current and o not in selfs and not (adj[o] & current):
                current.add(o)

    fill()
    steps = 0
    for _ in range(iters):
        steps += 1
        if not current:
            break
        r = int(rng.choice(sorted(current)))
        # candidates blocked only by r become insertable after its removal
        cands = sorted(o for o in adj[r]
                       if o not in selfs and o not in current
                       and conflict_count(o) == 1)
        swapped = False
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                if cands[j] not in adj[cands[i]]:
                    current.discard(r)
                    current.add(cands[i])
                    current.add(cands[j])
                    fill()
                    swapped = True
                    break
            if swapped:
                break
    return SearchResult(_cellset_from_ordinals(graph.level, sorted(current)),
                        "local-search", seed, iterations=steps)


def exact_mis(graph: ConflictGraph, node_budget: int = 1_000_000,
              max_cells: int = 64) -> SearchResult:
    """Branch-and-bound maximum conflict-free selection for small levels."""
    free = _free_ordinals(graph)
    if len(free) > max_cells:
        raise ExactSearchCapError(
            f"{len(free)} candidate cells exceed the exact-search cap {max_cells}")
    adj = graph.adjacency()
    start = greedy_mis(graph, "min-degree")
    incumbent = [DyadicCell(graph.level, b, s).ordinal
                 for b, s in start.selection.members]
    nodes = 0
    exhausted = False

    def recurse(chosen: list[int], candidates: list[int]) -> None:
        nonlocal incumbent, nodes, exhausted
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if len(chosen) + len(candidates) <= len(incumbent):
            return
        if not candidates:
            if len(chosen) > len(incumbent):
                incumbent = list(chosen)
            return
        # branch on the candidate with the most remaining conflicts
        cset = set(candidates)
        v = max(candidates, key=lambda o: (len(adj[o] & cset), -o))
        rest = [o for o in candidates if o != v]
        recurse(chosen + [v], [o for o in rest if o not in adj[v]])
        if not exhausted:
            recurse(chosen, rest)

    recurse([], sorted(free))
    return SearchResult(_cellset_from_ordinals(graph.level, sorted(incumbent)),
                        "exact", None, nodes=nodes, optimal=not exhausted)


def evaluate(selection: CellSet, graph: ConflictGraph,
             method: str = "evaluate") -> SearchResult:
    """Verify feasibility and package the bound comparison."""
    bad = selection_graph_violations(selection, graph)
    if bad:
        raise InfeasibleSelectionError(bad)
    return SearchResult(selection, method)
