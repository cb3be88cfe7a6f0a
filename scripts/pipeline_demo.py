#!/usr/bin/env python3
"""End-to-end pipeline on the double cap: filter -> scale -> convexify.

Selects the cells dense in the double cap, certifies and shrinks them, then
replaces the connected components with convex polygons, reporting measure
accounting and certification at every stage.  Artifacts land in --outdir.
"""

import argparse
import sys
from pathlib import Path

from opfsets.convexify import conv
from opfsets.density import double_cap_oracle, select_dense_cells
from opfsets.scaling import choose_constants, scale_set, verify_scaled_opf
from opfsets.conflicts import selection_violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--level", type=int, default=4)
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--outdir", default="pipeline_out")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    oracle = double_cap_oracle()

    report = select_dense_cells(oracle, args.level, args.epsilon)
    report.save(outdir / "filter.json")
    print(f"filter: {len(report.selected)} cells, "
          f"captured {report.captured_measure:.6f} sr "
          f"of mu(M) = {oracle.measure():.6f} sr")

    selfs, pairs = selection_violations(report.selected)
    print(f"conflict check: {len(selfs) + len(pairs)} violations")
    if selfs or pairs:
        print("selection is not orthogonal-pair-free; stopping", file=sys.stderr)
        return 1

    constants = choose_constants(args.epsilon, report.selected.measure())
    summary = scale_set(report.selected, constants)
    summary.save(outdir / "scale.json")
    cert = verify_scaled_opf(summary.regions)
    print(f"scale: kept {len(summary.kept)} cells, "
          f"{summary.total_region_measure:.6f} sr vs "
          f"target {summary.target_measure:.6f} sr "
          f"({'met' if summary.meets_target else 'NOT met'}), "
          f"{len(cert.violations)} violations")

    result = conv(report.selected)
    result.decomposition.save(outdir / "convexify.json")
    print(f"convexify: {len(result.decomposition)} polygons after "
          f"{result.merge_count} merges, area {result.output_measure:.6f} sr, "
          f"{len(result.opf_violations)} violations, "
          f"min pairwise distance {result.decomposition.pairwise_min_distance:.6f}")
    print(f"artifacts in {outdir}/")
    return 0 if cert.ok and not result.opf_violations else 1


if __name__ == "__main__":
    sys.exit(main())
