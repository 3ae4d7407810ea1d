#!/usr/bin/env python3
"""End-to-end benchmark of the ifscert commands, with a per-module traced mode.

Run from the repository root:

    python3 perfbench/run.py                         # all four workloads, untraced
    python3 perfbench/run.py --trace 1               # all four, per-layer tables
    python3 perfbench/run.py --workload needle_profile --seed 3 --trace 0

``--workload all`` runs each workload in its own fresh child process, one
after another, and prints a table. A single workload runs in this process;
its last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones (``setup_s``, ``wall_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones. The error rate is
``failed / attempted``. The run length, ``--seconds``, defaults to
``run_seconds`` in BENCHMARK.json, and the metric units come from there too.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"  # work files (removed after each run) and results
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOAD_NAMES = ("needle_profile", "zigzag_simple", "certify_suite", "attractor_io")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# one process, one BLAS/OpenMP thread: at most nproc, and steady on a shared box
THREADS = "1"
SETUP_REPS = 9
CHILD_TIMEOUT_S = 900


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measuring time per run; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one workload in this process


def _environment() -> dict:
    import numpy
    import platform
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def _run_pass(wl, tracer) -> tuple[float, list[dict]]:
    """One timed pass through the operation list; checks run after the clock stops."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    done = []
    t0 = time.perf_counter()
    with span("bench.pass"):
        for op in wl.ops():
            with span("bench.op"):
                t = time.perf_counter()
                try:
                    out, err = op.run(), None
                except Exception:  # a failed operation is counted, not fatal
                    out, err = None, traceback.format_exc()
                done.append((op, out, err, time.perf_counter() - t))
    wall = time.perf_counter() - t0
    records = []
    for op, out, err, seconds in done:
        if err is None:
            try:
                fails = op.check(out)
            except Exception:
                fails = [f"{op.label}: oracle raised\n{traceback.format_exc()}"]
        else:
            fails = [f"{op.label}: raised\n{err}"]
        records.append({"op": op.label, "seconds": seconds, "failures": fails})
    return wall, records


def _timed_passes(wl, budget: float, tracer=None) -> list[tuple[float, list[dict], tuple[int, int]]]:
    """Passes until another one of median length would overrun ``budget``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        first_span = len(tracer.spans) if tracer else 0
        wall, records = _run_pass(wl, tracer)
        passes.append((wall, records, (first_span, len(tracer.spans) if tracer else 0)))
        median = statistics.median(p[0] for p in passes)
        if time.perf_counter() - start + median > budget:
            return passes


def _median_pass(passes):
    """The pass with the lower-median wall time."""
    return sorted(passes, key=lambda p: p[0])[(len(passes) - 1) // 2]


# the program's import in a fresh interpreter, as a CLI user pays it
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import ifscert.cli; print(time.perf_counter() - t)"
)


def _import_seconds() -> list[float]:
    reps = []
    for _ in range(SETUP_REPS):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                               capture_output=True, text=True, check=True, timeout=120)
        reps.append(float(probe.stdout))
    return reps


def run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import spans
    import workloads  # imports numpy, scipy and ifscert

    env = _environment()
    import_reps = _import_seconds()
    workdir = STATE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        setup_reps = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            wl.setup()
            setup_reps.append(time.perf_counter() - t)
        setup_s = statistics.median(import_reps) + statistics.median(setup_reps)

        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = _timed_passes(wl, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer, missing, traced = None, [], []
        if args.trace:
            tracer = spans.Tracer()
            missing = spans.install(tracer)
            traced = _timed_passes(wl, budget, tracer)
        try:
            run_fails = wl.check_run()
        except Exception:
            run_fails = [f"run-level oracle raised\n{traceback.format_exc()}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [p[0] for p in untraced]
    wall_s = statistics.median(walls)
    # the run-level oracles check the first pass's outputs
    untraced[0][1][0]["failures"] += run_fails
    if args.trace:
        lo, hi = _median_pass(traced)[2]
        layer = spans.layer_metrics(tracer.spans[lo:hi])
        layer["trace.overhead_s"] = statistics.median(p[0] for p in traced) - wall_s
        # a hook that wraps nothing, or a span no layer metric counts, makes
        # the per-layer metrics wrong: the first traced pass fails
        trace_fails = [f"trace hook {hook}" for hook in missing]
        gap = layer["trace.wall_s"] - layer["trace.self_sum_s"] - layer["trace.untracked_s"]
        if abs(gap) > 1e-3:
            trace_fails.append(f"layer self times leave {gap:.4f} s of the traced wall_s unaccounted")
        traced[0][1][0]["failures"] += trace_fails
    all_passes = untraced + traced
    attempted = sum(len(records) for _, records, _ in all_passes)
    failed = sum(1 for _, records, _ in all_passes for r in records if r["failures"])
    failures = [f for _, records, _ in all_passes for r in records for f in r["failures"]]

    if args.trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(layer.items())}
    else:
        e2e = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "import_reps_s": import_reps, "setup_reps_s": setup_reps,
        "untraced_passes": [{"wall_s": w, "ops": ops} for w, ops, _ in untraced],
        "traced_passes": [{"wall_s": w, "ops": ops} for w, ops, _ in traced],
        "failures": failures, "missing_hooks": missing,
        "result": result, "spans": tracer.spans if tracer else [],
    }
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"setup_s={setup_s:.4f} s wall_s={wall_s:.4f} s (median of {len(walls)} pass"
          f"{'es' if len(walls) != 1 else ''}) peak_rss_mb={peak_rss_mb:.1f} MB "
          f"error_rate={failed / attempted:.4g} ({failed}/{attempted}); record {out_path.relative_to(ROOT)}")
    if args.trace:
        _print_layers(args.workload, layer)
    print(json.dumps(result))
    return 0


def _print_layers(workload: str, layer: dict) -> None:
    print(f"per-layer metrics, {workload} (median traced pass; _s = self seconds):")
    for key in sorted(layer):
        print(f"  {key:34s} {layer[key]:>16.6g} {UNITS[key]}")
    wall, sums = layer["trace.wall_s"], layer["trace.self_sum_s"]
    share = sums / wall if wall else 0.0
    print(f"  layer self times sum to {sums:.4f} s of the traced wall_s {wall:.4f} s ({share:.1%})")


# ---------------------------------------------------------------------------
# all workloads, each in a fresh child process


def run_all(args) -> int:
    rows, combined, attempted, failed = [], {}, 0, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            child = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exit {child.returncode} without a result", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in result["metrics"].items():
            combined[f"{name}.{key}"] = m
        rows.append((name, result))
    if not args.trace:
        print(f"\n{'workload':16s} {'setup_s [s]':>12s} {'wall_s [s]':>11s} "
              f"{'peak_rss_mb [MB]':>17s} {'error_rate':>11s}")
        for name, r in rows:
            m = r["metrics"]
            print(f"{name:16s} {m['setup_s']['value']:12.4f} {m['wall_s']['value']:11.4f} "
                  f"{m['peak_rss_mb']['value']:17.1f} {r['failed'] / r['attempted']:11.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
