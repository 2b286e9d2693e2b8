"""Benchmark of the conecurves pipeline: classify, count, ne and the CLI.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]

Runs each workload in its own worker process (bench/worker.py), one at a
time, against the package in src/.  Prints every metric with its unit,
the raw timings beside the scaled ones, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Each run also writes its full result (samples, raw figures, reference
times) to DIR, by default bench/results/; bench/compare.py reads them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("flag-lines", "deep-strata", "catalog-sweep")
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "classify_ms": "ms",
    "count_ms": "ms",
    "ne_ms": "ms",
    "cli_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "rootsys.build_ms": "ms",
    "rootsys.build_calls": "count",
    "parabolic.build_ms": "ms",
    "parabolic.build_calls": "count",
    "conegeom.build_cone_ms": "ms",
    "conegeom.calls": "count",
    "conegeom.calls_per_component": "count",
    "conegeom.self_ms": "ms",
    "components.ne_ms": "ms",
    "components.ne_calls": "count",
    "components.ne_empty_calls": "count",
    "components.ne_classes": "count",
    "components.ne_us_per_class": "us",
    "components.classify_self_ms": "ms",
    "components.lift_us_per_component": "us",
    "components.count_ms": "ms",
    "affine.compare_ms": "ms",
    "cli.serialize_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "cli.start_ms": "ms",
    "cli.import_ms": "ms",
    "selfcheck.run_all_s": "s",
    "selfcheck.root_counts_s": "s",
    "selfcheck.lines_dichotomy_s": "s",
    "selfcheck.dimension_cross_check_s": "s",
    "selfcheck.ne_enumeration_s": "s",
    "selfcheck.classical_oracles_s": "s",
    "selfcheck.checks": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def run_worker(args, workload: str, out_dir: Path) -> dict:
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{time.perf_counter_ns() % 1_000_000:06d}"
    stem = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", str(stem) + ".spans.tsv.gz"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    Path(str(stem) + ".json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict) -> None:
    r = result
    ref = r["reference"]
    print(
        f"== {r['workload']}  seed={r['seed']}  trace={r['trace']}  rounds={r['rounds']}  "
        f"attempted={r['attempted']}  failed={r['failed']}  wall={r['wall_s']:.1f}s  "
        f"python={r['python']}  nproc={r['nproc']}"
    )
    if r["trace"]:
        for name, value in r["metrics"].items():
            print(f"  {name:36s} {PER_LAYER_UNITS.get(name, '?'):6s} {value:14.4f}")
        print(
            f"  tracing overhead: {r['metrics']['trace.overhead_ms']:.1f} ms per round "
            f"({r['untraced_round_ms']:.1f} ms untraced, {r['traced_round_ms']:.1f} ms traced, scaled)"
        )
    else:
        print(f"  {'metric':14s} {'unit':5s} {'scaled median':>14s} {'raw median':>12s} {'raw min':>12s} {'n':>4s}")
        for name, m in r["metrics"].items():
            print(f"  {name:14s} {m['unit']:5s} {m['value']:14.4f} {m['raw_median']:12.4f} {m['raw_min']:12.4f} {m['n']:4d}")
    print(
        f"  reference: nominal {ref['nominal_ms']:.3f} ms, raw median {ref['raw_median_ms']:.3f} ms, "
        f"raw min {ref['raw_min_ms']:.3f} ms over {ref['n']} runs"
    )
    for p in r["problems"]:
        print(f"  FAILED CHECK: {p}")


def summary(result: dict) -> dict:
    units = PER_LAYER_UNITS if result["trace"] else END_TO_END_UNITS
    if result["trace"]:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items() if k in units}
    else:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()}
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=BENCH / "results", help="directory for result files")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "conecurves" / "__init__.py").is_file():
        print(f"bench: no package at {ROOT / 'src' / 'conecurves'}; run from a source checkout", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        try:
            result = run_worker(args, name, args.out)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        report(result)
        summaries[name] = summary(result)
    if len(summaries) == 1:
        print(json.dumps(next(iter(summaries.values()))))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}/{k}": m for w, s in summaries.items() for k, m in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
