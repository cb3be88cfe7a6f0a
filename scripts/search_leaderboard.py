#!/usr/bin/env python3
"""Run every search method over a level range and write a leaderboard CSV.

All results are certified against the conflict graph before ranking, and any
fraction exceeding the best published upper bound 0.297742 is reported as a
prominent finding (it would contradict the literature and almost certainly
indicates a predicate bug).
"""

import argparse
import sys

from opfsets.conflicts import ResourceCapError, build_conflict_graph
from opfsets.search import (BEST_UPPER_BOUND, double_cap_cellset, evaluate,
                            exact_mis, greedy_mis, local_search, write_leaderboard)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, nargs=2, default=(1, 4),
                        metavar=("LO", "HI"))
    parser.add_argument("--seeds", type=int, default=3,
                        help="random-order greedy restarts per level")
    parser.add_argument("--iters", type=int, default=300,
                        help="local-search swap attempts")
    parser.add_argument("--csv", default="leaderboard.csv")
    args = parser.parse_args()

    results = []
    lo, hi = args.levels
    for level in range(lo, hi + 1):
        graph = build_conflict_graph(level)
        if level >= 1:
            baseline = evaluate(double_cap_cellset(level), graph, "baseline")
            results.append(baseline)
            results.append(local_search(graph, baseline.selection,
                                        iters=args.iters, seed=0))
        results.append(greedy_mis(graph, "min-degree"))
        for seed in range(args.seeds):
            results.append(greedy_mis(graph, "random", seed=seed))
        try:
            results.append(exact_mis(graph))
        except ResourceCapError:
            pass  # too many cells for exact search: no row
        best = max((r for r in results if r.selection.level == level),
                   key=lambda r: r.fraction)
        print(f"level {level}: best {best.method} -> {len(best.selection)} cells, "
              f"fraction {best.fraction:.9f}")

    write_leaderboard(results, args.csv)
    print(f"wrote {args.csv} ({len(results)} rows)")

    findings = [r for r in results if r.exceeds_best_bound]
    if findings:
        for r in findings:
            print(f"FINDING: {r.method} at level {r.selection.level} reaches "
                  f"fraction {r.fraction:.9f} > {BEST_UPPER_BOUND}; this "
                  "contradicts the published bound - check the conflict "
                  "predicate before believing it.", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
