"""Command-line orchestration for grids, conflict graphs, search, filtering,
scaling, and convexification.

Exit codes: 0 success, 2 usage error, 3 infeasibility, 4 resource cap
exceeded, 5 certification violation.  `_EXIT_CODES` is the one place that
policy lives: a command returns 0 or 5 and raises for everything else, and
`main` alone prints the error and picks its code from the table.  Primary
artifacts are deterministic (seeds fixed, keys sorted, no timestamps); run
metadata goes to a "<artifact>.meta.json" sidecar.  `opfsets conflicts
--cache-dir` writes the built graph's .opfg file, one per level and margin; no
command reads it back.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shlex
import sys
import time
from pathlib import Path

import numpy as np

from . import conflicts, convexify, density, scaling, search
from .grid import CellSet, all_cells, cell_area, cell_count, write_json
from .sphere import SPHERE_AREA

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_RESOURCE = 4
EXIT_CERTIFICATION = 5

# matched in order, first match wins; any other exception is a bug and keeps its traceback
_EXIT_CODES = (
    (conflicts.ResourceCapError, EXIT_RESOURCE),
    ((search.InfeasibleSelectionError, scaling.InfeasibleEpsilonError,
      convexify.HullInfeasibleError), EXIT_INFEASIBLE),
    ((OSError, ValueError), EXIT_USAGE),
)


def _write_artifact(path: str, doc: dict, meta: dict | None = None) -> None:
    """Write the deterministic artifact, and run metadata (plus meta) beside it."""
    write_json(path, doc)
    with open(path + ".meta.json", "w") as f:
        json.dump({"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                   "artifact": os.path.basename(path), **(meta or {})}, f)
        f.write("\n")


def _both(sr: float) -> str:
    return f"{sr:.9f} sr (fraction {sr / SPHERE_AREA:.9f})"


def cmd_grid(args) -> int:
    m = cell_count(args.level)
    area = cell_area(args.level)
    print(f"level {args.level}: {m} cells, each {area:.12g} sr "
          f"(fraction {area / SPHERE_AREA:.12g})")
    print(f"total {_both(m * area)}")
    if args.out:
        CellSet(args.level, all_cells(args.level)).save(args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_conflicts(args) -> int:
    if args.cache_dir:
        # before any build, so a --cache-dir that cannot be a directory fails at once
        Path(args.cache_dir).mkdir(parents=True, exist_ok=True)
    graph = conflicts.build_conflict_graph(args.level, args.margin)
    degrees = graph.degrees()
    print(f"level {graph.level} margin {graph.margin:g}: "
          f"{degrees.sum() // 2} edges, {len(graph.self_conflicts)} self-conflicts")
    hist = np.bincount(degrees)
    print("degree histogram (degree: cells):")
    for d, c in enumerate(hist):
        if c:
            print(f"  {d}: {c}")
    if args.cache_dir:
        path = Path(args.cache_dir) / f"level{graph.level}_margin{graph.margin:g}.opfg"
        conflicts.save_graph(graph, path)
        print(f"cached graph at {path}")
    return EXIT_OK


def cmd_search(args) -> int:
    graph = conflicts.build_conflict_graph(args.level)
    if args.method == "baseline":
        result = search.evaluate(search.double_cap_cellset(args.level), graph,
                                 method="baseline")
    elif args.method in ("greedy-min-degree", "greedy-random"):
        result = search.greedy_mis(graph, args.method.removeprefix("greedy-"),
                                   seed=args.seed)
    elif args.method == "local":
        init = (search.double_cap_cellset(args.level) if args.init == "double-cap"
                else CellSet(args.level, []))
        result = search.local_search(graph, init, iters=args.iters, seed=args.seed)
    else:  # exact; argparse's choices admit no other method
        result = search.exact_mis(graph)
    print(f"method {result.method}: {len(result.selection)} cells, "
          f"{_both(result.measure_sr)}")
    for name, gap in sorted(result.bound_gaps().items()):
        print(f"  gap to {name}: {gap:+.6f}")
    if result.optimal is not None:
        print(f"  optimal: {result.optimal} (nodes {result.nodes})")
    if args.out:
        _write_artifact(args.out, result.to_json())
    if args.csv:
        search.write_leaderboard([result], args.csv)
    if result.exceeds_best_bound:
        print("FINDING: feasible fraction exceeds the best published upper bound "
              f"0.297742 ({result.fraction:.6f}); this contradicts the literature "
              "and most likely indicates a predicate bug. Aborting.", file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK


def _build_oracle(args) -> density.MembershipOracle:
    if args.oracle == "double-cap":
        return density.double_cap_oracle(args.radius)
    if args.oracle == "cap":
        center = np.array([float(x) for x in args.center.split(",")])
        norm = np.linalg.norm(center)
        if center.shape != (3,) or not 0.0 < norm < math.inf:
            raise ValueError(f"--center {args.center!r}: want three finite "
                             "components x,y,z with a nonzero norm")
        return density.cap_oracle(center / norm, args.radius)
    if args.oracle == "cell-set":
        if args.cells is None:
            raise ValueError("--oracle cell-set needs --cells")
        return density.cell_set_oracle(CellSet.load(args.cells))
    return density.sieve_fractal_oracle(args.depth)


def cmd_filter(args) -> int:
    if not 0.0 < args.epsilon < 0.25:
        raise ValueError(f"epsilon {args.epsilon} outside the supported range (0, 0.25); "
                         "the density guarantee needs epsilon < 1/64")
    if args.epsilon >= density.THEOREM_BETA:
        print(f"warning: epsilon {args.epsilon} >= 1/64; the captured-measure "
              "guarantee no longer applies", file=sys.stderr)
    oracle = _build_oracle(args)
    report = density.select_dense_cells(oracle, args.level, args.epsilon)
    print(f"selected {len(report.selected)} cells at level {args.level}, "
          f"captured {_both(report.captured_measure)}")
    target = (1.0 - args.epsilon) * oracle.measure()
    print(f"target (1-eps)*mu(M) = {_both(target)}: "
          f"{'met' if report.captured_measure >= target else 'NOT met'}")
    if args.out:
        _write_artifact(args.out, report.to_json())
    if args.csv:
        report.save_csv(args.csv)
    return EXIT_OK


def cmd_scale(args) -> int:
    selection = CellSet.load(args.selection)
    constants = scaling.choose_constants(args.epsilon, selection.measure())
    summary = scaling.scale_set(selection, constants)
    lhs1, rhs1 = constants.inequality1
    lhs2, rhs2 = constants.inequality2
    print(f"feasibility: ineq1 {lhs1:.9f} >= {rhs1:.9f}; ineq2 {lhs2:.3e} > {rhs2:.3e}")
    print(f"removed {summary.removed_cells} polar cells "
          f"({_both(summary.removed_measure)})")
    print(f"scaled measure {_both(summary.total_region_measure)} vs "
          f"target {_both(summary.target_measure)}: "
          f"{'met' if summary.meets_target else 'NOT met'}")
    cert = scaling.verify_scaled_opf(summary.regions)
    print(f"orthogonal-pair certification: {len(cert.violations)} violations")
    if args.out:
        doc = summary.to_json()
        doc["certification"] = {"violations": [list(v) for v in cert.violations]}
        _write_artifact(args.out, doc, {"pairs_evaluated": cert.pairs_evaluated})
    return EXIT_OK if cert.ok else EXIT_CERTIFICATION


def cmd_convexify(args) -> int:
    result = convexify.conv(CellSet.load(args.selection), arc_samples=args.arc_samples)
    print(f"{len(result.decomposition)} polygons after {result.merge_count} merges")
    print(f"measure before {_both(result.input_measure)}, "
          f"after {_both(result.output_measure)}")
    print(f"orthogonal-pair certification: {len(result.opf_violations)} violations")
    if args.out:
        _write_artifact(args.out, result.to_json())
    return EXIT_CERTIFICATION if result.opf_violations else EXIT_OK


def cmd_report(args) -> int:
    if not args.inputs and not args.sweep:
        raise ValueError("nothing to report (give --inputs and/or --sweep)")
    if args.sweep and args.sweep[0] > args.sweep[1]:
        raise ValueError(f"--sweep LO HI needs LO <= HI, got {args.sweep[0]} {args.sweep[1]}")
    rows = []
    for path in args.inputs:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc
        try:
            rows.append((doc["fraction"], doc["method"], doc["selection"]["level"],
                         len(doc["selection"]["cells"])))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path} is not an `opfsets search --out` artifact "
                             f"({type(exc).__name__}: {exc})") from exc
    for fraction, method, level, cells in sorted(rows, reverse=True):
        print(f"level {level} {method}: {cells} cells, fraction {fraction:.9f}")
    series = []
    if args.sweep:
        lo, hi = args.sweep
        series = [(level, search.double_cap_fraction(level)) for level in range(lo, hi + 1)]
        print("double-cap baseline sweep (level, fraction):")
        for level, fraction in series:
            print(f"  {level}, {fraction:.9f}")
        print(f"limit 1 - 1/sqrt(2) = {1.0 - math.sqrt(0.5):.9f}")
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("level,method,cells,fraction\n")
            for fraction, method, level, cells in sorted(rows, reverse=True):
                f.write(f"{level},{method},{cells},{fraction:.10f}\n")
            for level, fraction in series:
                f.write(f"{level},baseline-sweep,,{fraction:.10f}\n")
    return EXIT_OK


def _read_config(path: str) -> dict:
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def _top_parser() -> argparse.ArgumentParser:  # the options before the command
    top = argparse.ArgumentParser(prog="opfsets", add_help=False, allow_abbrev=False)
    top.add_argument("--config", help="plain key=value config file; flags win")
    return top


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opfsets", parents=[_top_parser()], allow_abbrev=False,
        description="Construct, search, certify, and convexify orthogonal-pair-free "
                    "cell selections on the sphere.")
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)  # no flag by a prefix

    p = add("grid", help="grid summary at a level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", help="write the all-cells selection as JSON")
    p.set_defaults(func=cmd_grid)

    p = add("conflicts", help="build a conflict graph")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--margin", type=float, default=0.0)
    p.add_argument("--cache-dir", help="directory to write the graph's .opfg file to "
                                       "(overwritten, never read)")
    p.set_defaults(func=cmd_conflicts)

    p = add("search", help="search for conflict-free selections")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--method", required=True,
                   choices=["baseline", "greedy-min-degree", "greedy-random",
                            "local", "exact"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--init", choices=["double-cap", "empty"], default="double-cap")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_search)

    p = add("filter", help="select cells dense in a target set")
    p.add_argument("--oracle", required=True,
                   choices=["double-cap", "cap", "cell-set", "sieve"])
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--radius", type=float, default=math.pi / 4.0)
    p.add_argument("--center", default="0,0,1", help="cap center x,y,z")
    p.add_argument("--cells", help="CellSet JSON for the cell-set oracle")
    p.add_argument("--depth", type=int, default=3, help="sieve fractal depth")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_filter)

    p = add("scale", help="shrink a selection away from cell boundaries")
    p.add_argument("--selection", required=True,
                   help="CellSet JSON path, or an `opfsets filter --out` or "
                        "`opfsets search --out` artifact")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scale)

    p = add("convexify", help="components -> convex polygons pipeline")
    p.add_argument("--selection", required=True,
                   help="CellSet JSON path, or an `opfsets filter --out` or "
                        "`opfsets search --out` artifact")
    p.add_argument("--arc-samples", type=int, default=32)
    p.add_argument("--out")
    p.set_defaults(func=cmd_convexify)

    p = add("report", help="consolidate artifacts and emit plot data")
    p.add_argument("--inputs", nargs="*", default=[],
                   help="search result JSON files")
    p.add_argument("--sweep", nargs=2, type=int, metavar=("LO", "HI"),
                   help="double-cap baseline sweep over a level range")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_report)
    return parser


def _splice_config(parser: argparse.ArgumentParser, argv: list) -> list:
    """argv with the --config entries as flags right after the command, so that
    explicit flags, which come later, win.  The command is the first token
    that is neither a top-level option nor its value."""
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    path = _top_parser().parse_known_args(argv[:i])[0].config
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    if path is None or i >= len(argv) or argv[i] not in commands:
        return argv  # nothing to splice, or argparse reports the bad command
    keys = {a.dest for a in commands[argv[i]]._actions if a.option_strings} - {"help"}
    flags = []
    for key, value in _read_config(path).items():
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        tokens = shlex.split(value)
        flags += [f"{flag}={tokens[0]}"] if len(tokens) == 1 else [flag, *tokens]
    return argv[:i + 1] + flags + argv[i + 1:]


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_splice_config(parser, argv))
        return args.func(args)
    except SystemExit as exc:  # argparse has printed its own message
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except Exception as exc:
        code = next((code for types, code in _EXIT_CODES if isinstance(exc, types)), None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
