"""Compare two sets of benchmark result files, e.g. parent and change.

    python3 bench/compare.py BASE_DIR NEW_DIR [--bench BENCHMARK.json]

Reads every result file (*.json, as written by bench/run.py) in each
directory.  For each workload and end-to-end metric it prints both
sides' medians and quartiles over their runs, the spread (quartile
distance over median), how many seed-matched pairs each side won, and a
verdict under the metric's bound from BENCHMARK.json:

* gain       NEW wins at least 9/10 of the pairs and the medians differ by
             more than BASE's quartile distance (or every NEW run beats
             every BASE run);
* unresolved either side's spread exceeds the bound;
* regressed  NEW's median is worse than BASE's by more than the bound;
* unchanged  otherwise.

It also checks that both sides failed the same share of operations.
Per-layer metrics of traced runs are listed with their medians only.
Exits 1 if any metric regressed or the failure shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> list[dict]:
    runs = []
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and "workload" in doc and "metrics" in doc:
            runs.append(doc)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs on the same seed; runs without a partner are paired in order."""
    by_seed = {r["seed"]: r for r in new}
    matched = [(b, by_seed.pop(b["seed"])) for b in base if b["seed"] in by_seed]
    left_b = [b for b in base if all(b is not m[0] for m in matched)]
    return matched + list(zip(left_b, by_seed.values()))


def verdict(base: list[float], new: list[float], won: int, n_pairs: int, bound: float, lower: bool) -> str:
    q1b, mb, q3b = quartiles(base)
    q1n, mn, q3n = quartiles(new)
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    worse_by = ((mn - mb) if lower else (mb - mn)) / mb
    if all(better(x, y) for x in new for y in base):
        return "gain"
    if max((q3b - q1b) / mb, (q3n - q1n) / mn) > bound:
        return "unresolved"
    if n_pairs and won >= 0.9 * n_pairs and better(mn, mb) and abs(mn - mb) > q3b - q1b:
        return "gain"
    if worse_by > bound:
        return "regressed"
    return "unchanged"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two sets of benchmark result files")
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--bench", type=Path, default=Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    a = ap.parse_args(argv)
    spec = json.loads(a.bench.read_text())
    base_runs, new_runs = load(a.base), load(a.new)
    bad = False
    workloads = sorted({r["workload"] for r in base_runs} & {r["workload"] for r in new_runs})
    for w in workloads:
        base = [r for r in base_runs if r["workload"] == w and not r["trace"]]
        new = [r for r in new_runs if r["workload"] == w and not r["trace"]]
        if base and new:
            share = [sum(r["failed"] for r in side) / sum(r["attempted"] for r in side) for side in (base, new)]
            print(f"== {w}: {len(base)} base runs, {len(new)} new runs; failed share {share[0]:.6f} / {share[1]:.6f}")
            bad |= share[0] != share[1]
            print(f"  {'metric':13s} {'unit':4s} {'bound':>5s}  {'base median [q1, q3] spread':>36s}  "
                  f"{'new median [q1, q3] spread':>36s}  {'change':>7s} {'wins n/b/pairs':>14s}  verdict")
            for m in spec["end_to_end"]:
                name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
                vb = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
                vn = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
                if not vb or not vn:
                    continue
                ps = [(b["metrics"][name]["value"], n["metrics"][name]["value"]) for b, n in pairs(base, new)
                      if name in b["metrics"] and name in n["metrics"]]
                won_new = sum((y < x) if lower else (y > x) for x, y in ps)
                won_base = sum((x < y) if lower else (x > y) for x, y in ps)
                v = verdict(vb, vn, won_new, len(ps), bound, lower)
                bad |= v == "regressed"
                q1b, mb, q3b = quartiles(vb)
                q1n, mn, q3n = quartiles(vn)
                print(
                    f"  {name:13s} {m['unit']:4s} {bound:5.2f}  "
                    f"{mb:10.4g} [{q1b:.4g}, {q3b:.4g}] {(q3b - q1b) / mb:6.1%}  "
                    f"{mn:10.4g} [{q1n:.4g}, {q3n:.4g}] {(q3n - q1n) / mn:6.1%}  "
                    f"{(mn - mb) / mb:+7.1%} {won_new:4d}/{won_base}/{len(ps):<4d}  {v}"
                )
        tb = [r for r in base_runs if r["workload"] == w and r["trace"]]
        tn = [r for r in new_runs if r["workload"] == w and r["trace"]]
        if tb and tn:
            print(f"  per-layer medians ({len(tb)} / {len(tn)} traced runs):")
            for m in spec["per_layer"]:
                xb = [r["metrics"][m["name"]] for r in tb if m["name"] in r["metrics"]]
                xn = [r["metrics"][m["name"]] for r in tn if m["name"] in r["metrics"]]
                if xb and xn:
                    print(f"    {m['name']:36s} {m['unit']:6s} {statistics.median(xb):14.4f} {statistics.median(xn):14.4f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
