#!/usr/bin/env python3
"""Double-cap baseline sweep: measure fraction per grid level.

Writes a CSV of (level, cells, fraction, gap to the 1 - 1/sqrt(2) limit) and
certifies the selection conflict-free at every level.
"""

import argparse
import csv
import math
import sys

from opfsets.conflicts import selection_violations
from opfsets.search import double_cap_cellset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-level", type=int, default=7)
    parser.add_argument("--csv", default="double_cap_sweep.csv")
    args = parser.parse_args()

    limit = 1.0 - math.sqrt(0.5)
    rows = []
    for level in range(1, args.max_level + 1):
        sel = double_cap_cellset(level)
        selfs, pairs = selection_violations(sel)
        violations = len(selfs) + len(pairs)
        rows.append((level, len(sel), sel.fraction(), limit - sel.fraction(),
                     violations))
        print(f"level {level}: {len(sel):6d} cells, fraction {sel.fraction():.9f}, "
              f"gap {limit - sel.fraction():+.9f}, violations {violations}")

    with open(args.csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["level", "cells", "fraction", "gap_to_limit", "violations"])
        w.writerows(rows)
    print(f"wrote {args.csv}")

    bad = [r for r in rows if r[4]]
    if bad:
        print(f"ERROR: conflict violations at levels {[r[0] for r in bad]}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
