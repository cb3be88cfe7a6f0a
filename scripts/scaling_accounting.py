#!/usr/bin/env python3
"""Scaling feasibility and measure accounting for the double-cap selection.

Reports the largest feasible epsilon for the selection's measure, then sweeps
a few feasible epsilons and prints the polar-removal and shrink losses against
the (1 - epsilon) * mu(M) target.  At fine levels the target is met; at coarse
levels whole-cell polar removal overshoots and the summary says so.  Each
scaled set is certified orthogonal-pair-free; any violation exits 1.
"""

import argparse
import sys

from opfsets.scaling import (choose_constants, largest_feasible_epsilon,
                             scale_set, verify_scaled_opf)
from opfsets.search import double_cap_cellset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--level", type=int, default=6)
    parser.add_argument("--epsilons", type=float, nargs="*",
                        default=[0.005, 0.01, 0.02])
    args = parser.parse_args()

    sel = double_cap_cellset(args.level)
    mu = sel.measure()
    print(f"selection: double cap at level {args.level}, {len(sel)} cells, "
          f"measure {mu:.6f} sr")
    thresh = largest_feasible_epsilon(mu)
    print(f"largest feasible epsilon: {thresh:.6g}")

    ok = True
    for eps in args.epsilons:
        if eps > thresh:
            print(f"eps {eps:g}: infeasible, skipping")
            continue
        summary = scale_set(sel, choose_constants(eps, mu))
        cert = verify_scaled_opf(summary.regions)
        print(f"eps {eps:g}: removed {summary.removed_cells} polar cells "
              f"({summary.removed_measure:.6f} sr), "
              f"scaled {summary.total_region_measure:.6f} sr vs "
              f"target {summary.target_measure:.6f} sr -> "
              f"{'met' if summary.meets_target else 'NOT met'}, "
              f"{len(cert.violations)} violations")
        ok &= cert.ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
