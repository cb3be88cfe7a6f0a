#!/usr/bin/env python3
"""Run one benchmark workload of the opfsets toolkit and print its metrics.

    python3 benchmark/run.py --workload search-l5 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/`` as it
stands, nothing is installed.  Passes of the workload run one after another
in this process (a closed loop with one client) until ``--seconds`` have
passed; a pass in progress finishes.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` each untraced pass is followed by a traced one, the spans are
written to ``benchmark/out/`` and the JSON holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Two OpenBLAS threads make conv burn a second core for no wall-time gain on a
# 2-core box, and the extra core's contention widens the run-to-run spread.
# An explicit setting in the environment wins; it is recorded either way.
BLAS_THREAD_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKLOADS = ("search-l5", "pipeline-l4", "rotcap-l6")

# Fresh interpreters started to time set-up; their median is setup_s.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# per-layer metric -> the span whose summed duration it reports
SPAN_SECONDS = {
    "conflicts.build_s": "conflicts.build_conflict_graph",
    "conflicts.adjacency_s": "conflicts.adjacency",
    "conflicts.save_s": "conflicts.save_graph",
    "conflicts.load_s": "conflicts.load_graph",
    "conflicts.selection_violations_s": "conflicts.selection_violations",
    "cli.conflicts_cached_s": "cli.conflicts",
    "search.evaluate_s": "search.evaluate",
    "search.greedy_random_s": "search.greedy_random",
    "search.greedy_min_degree_s": "search.greedy_min_degree",
    "search.local_s": "search.local_search",
    "search.exact_s": "search.exact_mis",
    "search.graph_violations_s": "search.selection_graph_violations",
    "density.filter_pole_s": "density.filter_pole",
    "density.filter_quad_s": "density.filter_quad",
    "density.filter_mc_s": "density.filter_mc",
    "scaling.scale_s": "scaling.scale_set",
    "scaling.verify_s": "scaling.verify_scaled_opf",
    "convexify.conv1_s": "convexify.conv1",
    "convexify.conv2_s": "convexify.conv2",
    "convexify.certify_s": "convexify.certify_opf_polygons",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(seed: int, workdir: Path):
    """Imports and input generation: everything before the first timed call."""
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads, workloads.make_inputs(seed, workdir)


def probe_setup_seconds(args: argparse.Namespace) -> float:
    """Start a fresh interpreter that stops at the first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    # both processes read CLOCK_MONOTONIC, so the child's timestamp is comparable
    return float(done.stdout.split()[-1]) - start


def environment() -> dict:
    import numpy
    import scipy

    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    caches = {key.strip(): value.strip() for key, _, value in
              (line.partition(":") for line in lscpu.splitlines())
              if key.strip() in ("L2 cache", "L3 cache")}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "thread_env": {k: os.environ.get(k, "unset") for k in thread_vars},
            "l2_cache": caches.get("L2 cache", "unknown"),
            "l3_cache": caches.get("L3 cache", "unknown")}


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(p, tracer) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    seconds, calls = tracer.totals()
    m = {name: seconds.get(span, 0.0) for name, span in SPAN_SECONDS.items()}
    m.update({f"{layer}.self_s": s for layer, s in tracer.self_seconds_by_layer().items()})
    m.update(p.counts)
    m.update(p.outputs)
    m["search.greedy_random_calls"] = calls.get("search.greedy_random", 0)
    m["conflicts.pairs_per_s"] = ratio(p.counts["conflicts.pairs"], m["conflicts.build_s"])
    m["scaling.verify_pairs_per_s"] = ratio(p.counts["scaling.verify_pairs"],
                                            m["scaling.verify_s"])
    m["trace.spans"] = len(tracer.spans)
    return m


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return f"none: {n} passes, a tail needs at least 11"
    return f"p{100.0 * (n - 10) / n:.1f} = {sorted(samples)[n - 11]:.4f} s"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opfsets").is_dir():
        print(f"error: no opfsets sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, value in BLAS_THREAD_DEFAULTS.items():
        os.environ.setdefault(key, value)
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            setup(args.seed, Path(tmp))
            print(time.monotonic())
        return 0

    setup_samples = [probe_setup_seconds(args) for _ in range(SETUP_PROBES)]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workloads, inputs = setup(args.seed, Path(tmp))
        from tracing import NullTracer, Tracer

        run_pass = workloads.WORKLOADS[args.workload]
        modes = (False, True) if args.trace else (False,)
        walls = {False: [], True: []}
        passes = []  # (Pass, tracer) of every pass
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline:
            for traced in modes:
                tracer = Tracer() if traced else NullTracer()
                p = workloads.Pass(tracer)
                start = time.perf_counter()
                try:
                    with tracer.span("bench.pass"):
                        run_pass(p, inputs)
                except workloads.PassFailed:
                    pass
                walls[traced].append(time.perf_counter() - start)
                passes.append((p, tracer))

    attempted = sum(p.attempted for p, _ in passes)
    failures = [f for p, _ in passes for f in p.failures]
    untraced = [p for p, t in passes if not t.enabled]
    wall_s = statistics.median(walls[False])

    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {len(failures)} failed "
          f"(failed_ratio {ratio(len(failures), attempted):.6g})")
    for what in failures[:20]:
        print(f"  FAILED: {what}")
    print(f"setup_s samples: {' '.join(f'{t:.3f}' for t in setup_samples)}")
    print(f"wall_s median {wall_s:.4f} s over {len(walls[False])} untraced passes "
          f"({' '.join(f'{w:.3f}' for w in walls[False])}); "
          f"tail percentile: {tail_percentile(walls[False])}")
    for name, key in (("best_fraction", "search.best_fraction"),
                      ("conv_area_sr", "convexify.area_sr"),
                      ("scaled_area_sr", "scaling.area_sr")):
        values = [p.outputs[key] for p in untraced if key in p.outputs]
        if values:
            print(f"{name} {statistics.median(values):.9f}")

    if args.trace:
        rows = [layer_metrics(p, t) for p, t in passes if t.enabled]
        values = {m["name"]: statistics.median(row.get(m["name"], 0) for row in rows)
                  for m in spec["per_layer"]}
        values["trace.untraced_wall_s"] = wall_s
        values["trace.wall_s"] = statistics.median(walls[True])
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_s
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": env,
            "untraced_wall_s": walls[False], "traced_wall_s": walls[True],
            "passes": [{"spans": t.to_json(), "self_s": t.self_seconds_by_layer()}
                       for _, t in passes if t.enabled]}, indent=1))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        metrics = spec["per_layer"]
    else:
        values = {"wall_s": wall_s,
                  "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  # a pass that failed before its last step has no output
                  "output_sr": statistics.median(
                      [p.outputs["output_sr"] for p in untraced if "output_sr" in p.outputs]
                      or [0.0])}
        metrics = spec["end_to_end"]
    for m in metrics:
        print(f"{m['name']:36s} {values[m['name']]:.9g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
