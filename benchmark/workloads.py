"""The benchmark's three workloads: inputs made from the seed, and one pass each.

Every call into the library goes through ``Pass.call``, which counts it as an
attempted operation and times it as a span named ``<module>.<call>``.  Each
pass compares its outputs with the values the toolkit gave when the benchmark
was written; a mismatch or an exception marks that operation failed.
"""

from __future__ import annotations

import contextlib
import io
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import IntegrationWarning

from opfsets import cli, conflicts, convexify, density, scaling, search
from opfsets.grid import CellSet, cell_count
from opfsets.sphere import Cap

EPSILON = 0.01
GREEDY_RANDOM_RUNS = 8
MC_SAMPLES = 1000
ROTATED_AXIS = np.array([1.0, 2.0, 2.0]) / 3.0

# Outputs pinned to the toolkit at the commit that added this benchmark.
LEVEL5_EDGES = 683_904
LEVEL4_EDGES = 86_208
LEVEL5_DOUBLE_CAP_FRACTION = 0.28125
LEVEL1_OPTIMUM_CELLS = 2
PIPELINE_FILTERED_CELLS = 256
PIPELINE_POLYGONS = 2
PIPELINE_MIN_DISTANCE = 1.696124
MIN_DISTANCE_TOL = 5e-7
ROTCAP_KEPT_CELLS = 4562
SIEVE_KEPT_CELLS = 108
# The level-6 selection of the rotated caps is not OPF at epsilon = 0.01: it
# has 24 conflicting cell pairs and the shrink leaves 20 (see the README).
ROTCAP_SCALED_VIOLATIONS = 20


class PassFailed(Exception):
    """A library call raised; the rest of the pass cannot run."""


@dataclass(frozen=True)
class Inputs:
    """Everything a pass needs, made once per process from the workload seed."""

    workdir: Path
    greedy_seeds: tuple[int, ...]
    local_seeds: tuple[int, int]
    mc_seed: int
    double_cap_l5: CellSet
    pole_oracle: density.MembershipOracle
    rotated_oracle: density.MembershipOracle
    sieve_oracle: density.MembershipOracle


def make_inputs(seed: int, workdir: Path) -> Inputs:
    draws = [int(s) for s in np.random.default_rng(seed).integers(
        0, 2**31, size=GREEDY_RANDOM_RUNS + 3)]
    return Inputs(
        workdir,
        greedy_seeds=tuple(draws[:GREEDY_RANDOM_RUNS]),
        local_seeds=(draws[-3], draws[-2]),
        mc_seed=draws[-1],
        double_cap_l5=search.double_cap_cellset(5),
        pole_oracle=density.double_cap_oracle(),
        rotated_oracle=density.cap_union_oracle(
            [Cap(ROTATED_AXIS, math.pi / 4.0), Cap(-ROTATED_AXIS, math.pi / 4.0)]),
        sieve_oracle=density.sieve_fractal_oracle(3),
    )


class Pass:
    """One pass of a workload: its operations, failures, work counts and outputs."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: Counter = Counter()
        self.outputs: dict[str, float] = {}
        self._last_failed = False

    def call(self, span: str, fn, *args, **kwargs):
        self.attempted += 1
        self._last_failed = False
        try:
            with self.tracer.span(span):
                return fn(*args, **kwargs)
        except Exception as exc:
            self._fail(f"{span} raised {exc!r}")
            raise PassFailed(span) from exc

    def expect(self, ok: bool, what: str) -> None:
        """Check an output of the latest call; a mismatch fails that call once."""
        if not ok and not self._last_failed:
            self._fail(what)

    def _fail(self, what: str) -> None:
        self._last_failed = True
        self.failures.append(what)

    def build_graph(self, level: int, edges: int | None = None):
        """Build a level's graph; with ``edges``, pin its edges and no self-conflicts."""
        graph = self.call("conflicts.build_conflict_graph", conflicts.build_conflict_graph, level)
        self.expect(edges is None or (len(graph.edges) == edges
                                      and len(graph.self_conflicts) == 0),
                    f"level-{level} graph: {len(graph.edges)} edges and "
                    f"{len(graph.self_conflicts)} self-conflicts, expected {edges} and 0")
        m = cell_count(level)
        self.counts["conflicts.pairs"] += m * (m + 1) // 2
        self.counts["conflicts.edges"] += len(graph.edges)
        self.counts["conflicts.self_conflicts"] += len(graph.self_conflicts)
        return graph

    def filter_cells(self, span: str, oracle, level: int, kept: int, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            report = self.call(span, density.select_dense_cells, oracle, level, EPSILON,
                               **kwargs)
        self.expect(len(report.selected) == kept,
                    f"{span} at level {level} kept {len(report.selected)} cells, expected {kept}")
        self.counts["density.cells"] += cell_count(level)
        self.counts["density.kept"] += len(report.selected)
        self.counts["density.quad_warnings"] += sum(
            issubclass(w.category, IntegrationWarning) for w in caught)
        return report

    def scale_and_verify(self, selection: CellSet, violations: int):
        constants = self.call("scaling.choose_constants", scaling.choose_constants,
                              EPSILON, selection.measure())
        summary = self.call("scaling.scale_set", scaling.scale_set, selection, constants)
        cert = self.call("scaling.verify_scaled_opf", scaling.verify_scaled_opf,
                         summary.regions)
        self.expect(len(cert.violations) == violations,
                    f"{len(cert.violations)} scaled violations, expected {violations}")
        live = sum(not r.empty for r in summary.regions)
        self.counts["scaling.regions"] += len(summary.regions)
        self.counts["scaling.verify_pairs"] += live * (live + 1) // 2
        self.counts["scaling.violations"] += len(cert.violations)
        self.outputs["scaling.area_sr"] = summary.total_region_measure
        return summary

    def search_call(self, span: str, fn, *args, **kwargs):
        result = self.call(span, fn, *args, **kwargs)
        self.expect(result.fraction <= search.BEST_UPPER_BOUND,
                    f"{span} fraction {result.fraction} exceeds {search.BEST_UPPER_BOUND}")
        return result


def run_search_l5(p: Pass, inp: Inputs) -> None:
    g5 = p.build_graph(5, LEVEL5_EDGES)
    path = inp.workdir / "level5_margin0.opfg"  # the name `opfsets conflicts` looks up
    p.call("conflicts.save_graph", conflicts.save_graph, g5, path)
    p.counts["conflicts.cache_bytes"] += path.stat().st_size
    loaded = p.call("conflicts.load_graph", conflicts.load_graph, path)
    p.expect(loaded == g5, "load_graph(save_graph(g)) differs from g")

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = p.call("cli.conflicts", cli.main,
                      ["conflicts", "--level", "5", "--cache-dir", str(inp.workdir)])
    p.expect(code == 0 and out.getvalue().startswith(
        f"level 5 margin 0: {LEVEL5_EDGES} edges, 0 self-conflicts"),
        f"opfsets conflicts exited {code} without reading the cached graph")

    p.call("conflicts.adjacency", g5.adjacency)
    baseline = p.search_call("search.evaluate", search.evaluate, inp.double_cap_l5, g5)
    p.expect(baseline.fraction == LEVEL5_DOUBLE_CAP_FRACTION,
             f"level-5 double cap fraction {baseline.fraction}")
    greedy = [p.search_call("search.greedy_random", search.greedy_mis, g5, "random",
                            seed=s) for s in inp.greedy_seeds]
    start = max(greedy, key=lambda r: r.fraction).selection
    local5 = p.search_call("search.local_search", search.local_search, g5, start,
                           iters=200, seed=inp.local_seeds[0])

    g4 = p.build_graph(4, LEVEL4_EDGES)
    min_degree = p.search_call("search.greedy_min_degree", search.greedy_mis, g4,
                               "min-degree")
    local4 = p.search_call("search.local_search", search.local_search, g4,
                           min_degree.selection, iters=500, seed=inp.local_seeds[1])
    p.counts["search.local_iters"] += local5.iterations + local4.iterations

    g1 = p.build_graph(1)
    exact = p.search_call("search.exact_mis", search.exact_mis, g1)
    p.expect(exact.optimal and len(exact.selection) == LEVEL1_OPTIMUM_CELLS,
             f"level-1 exact search: optimal={exact.optimal}, {len(exact.selection)} cells")
    p.counts["search.exact_nodes"] += exact.nodes

    self_bad, pairs = p.call("conflicts.selection_violations", conflicts.selection_violations,
                             inp.double_cap_l5)
    p.expect(not self_bad and not pairs,
             f"level-5 double cap has {len(self_bad) + len(pairs)} violations")

    # certify the best result found against the graph of its own level
    best = max([baseline, *greedy, local5, min_degree, local4, exact], key=lambda r: r.fraction)
    graphs = {5: g5, 4: g4, 1: g1}
    certified = p.search_call("search.evaluate", search.evaluate, best.selection,
                              graphs[best.selection.level])
    p.outputs["search.best_fraction"] = certified.fraction
    p.outputs["output_sr"] = certified.measure_sr


def run_pipeline_l4(p: Pass, inp: Inputs) -> None:
    """The ``scripts/pipeline_demo.py`` chain at level 4 on the double cap."""
    report = p.filter_cells("density.filter_pole", inp.pole_oracle, 4, PIPELINE_FILTERED_CELLS)
    p.call("density.save", report.save, inp.workdir / "filter.json")

    graph = p.build_graph(4, LEVEL4_EDGES)
    bad = p.call("search.selection_graph_violations", search.selection_graph_violations,
                 report.selected, graph)
    p.expect(not bad, f"filtered selection has {len(bad)} conflict violations")

    summary = p.scale_and_verify(report.selected, 0)
    p.call("scaling.save", summary.save, inp.workdir / "scale.json")

    if p.tracer.enabled:
        stage1 = p.call("convexify.conv1", convexify.conv1, report.selected)
        final, merges = p.call("convexify.conv2", convexify.conv2, stage1)
        violations = p.call("convexify.certify_opf_polygons", convexify.certify_opf_polygons,
                            final.polygons)
    else:
        result = p.call("convexify.conv", convexify.conv, report.selected)
        final, merges, violations = result.decomposition, result.merge_count, result.opf_violations
    p.expect(len(final) == PIPELINE_POLYGONS and merges == 0 and not violations
             and abs(final.pairwise_min_distance - PIPELINE_MIN_DISTANCE) <= MIN_DISTANCE_TOL,
             f"convexify: {len(final)} polygons, {merges} merges, {len(violations)} violations, "
             f"min distance {final.pairwise_min_distance}")
    p.call("convexify.save", final.save, inp.workdir / "convexify.json")
    p.counts["convexify.polygons"] += len(final)
    p.counts["convexify.hull_vertices"] += sum(len(poly) for poly in final.polygons)
    p.counts["convexify.merges"] += merges
    p.outputs["convexify.min_distance"] = final.pairwise_min_distance
    p.outputs["convexify.area_sr"] = p.outputs["output_sr"] = final.total_area()


def run_rotcap_l6(p: Pass, inp: Inputs) -> None:
    report = p.filter_cells("density.filter_quad", inp.rotated_oracle, 6, ROTCAP_KEPT_CELLS)
    p.filter_cells("density.filter_mc", inp.sieve_oracle, 3, SIEVE_KEPT_CELLS,
                   samples=MC_SAMPLES, seed=inp.mc_seed, method="monte_carlo")
    p.counts["density.mc_points"] += cell_count(3) * MC_SAMPLES
    summary = p.scale_and_verify(report.selected, ROTCAP_SCALED_VIOLATIONS)
    p.outputs["output_sr"] = summary.total_region_measure


WORKLOADS = {"search-l5": run_search_l5, "pipeline-l4": run_pipeline_l4,
             "rotcap-l6": run_rotcap_l6}
