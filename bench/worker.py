"""One workload, run in its own process: timed rounds, checks and metrics.

Timing rule.  Every timed pass is bracketed by two runs of
`reference_computation` in the same process (for command-line children,
in this process, which launches them).  A pass is reported as

    wall / mean(bracket before, bracket after) * REF_NOMINAL_S

so a slower or faster host cancels out while a change in the program
moves the figure in full.  The reference computation and its nominal
duration must never change: either change rescales every figure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

REF_NOMINAL_S = 0.005
REF_VALUE = 26163  # return value of reference_computation; guards against edits


@dataclass(frozen=True)
class _Item:
    vec: tuple[int, ...]
    weight: int

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(self.weight)


def _compositions(parts: int, target: int):
    if parts == 0:
        if target == 0:
            yield ()
        return
    for k in range(target + 1):
        for tail in _compositions(parts - 1, target - k):
            yield (k, *tail)


def reference_computation() -> int:
    """Fixed pure-Python work in the library's style: a recursive generator,
    frozen dataclasses, a keyed sort and integer sums."""
    items = [_Item(v, sum(a * b for a, b in zip(v, (1, 2, 1, 3, 1, 2, 1)))) for v in _compositions(7, 6)]
    items.sort(key=lambda it: (it.weight, tuple(-c for c in it.vec)))
    return sum(it.weight * (i % 7) for i, it in enumerate(items))


class Clock:
    """Times passes against the reference computation."""

    def __init__(self):
        self.refs: list[float] = []

    def reference(self) -> float:
        t0 = perf_counter()
        value = reference_computation()
        t = perf_counter() - t0
        if value != REF_VALUE:
            raise RuntimeError(f"reference computation returned {value}, expected {REF_VALUE}")
        self.refs.append(t)
        return t

    def time(self, fn):
        """Run fn once; return its result and (raw, scaled, bracket before, bracket after) seconds.

        A full collection first, so that the cyclic collector's work inside
        the pass depends on the pass alone, not on what ran before it.
        """
        gc.collect()
        before = self.reference()
        t0 = perf_counter()
        out = fn()
        wall = perf_counter() - t0
        after = self.reference()
        return out, (wall, wall / ((before + after) / 2) * REF_NOMINAL_S, before, after)


# End-to-end metrics: name -> (unit, factor from seconds).
END_TO_END = {
    "classify_ms": ("ms", 1e3),
    "count_ms": ("ms", 1e3),
    "ne_ms": ("ms", 1e3),
    "cli_ms": ("ms", 1e3),
    "setup_s": ("s", 1.0),
    "peak_rss_mb": ("MB", 1.0),
}


def peak_rss_mb() -> float:
    """High-water resident set of this process, from /proc (ru_maxrss elsewhere)."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Runner:
    def __init__(self, wl: workloads.Workload, root: Path):
        import conecurves
        from conecurves import affine, cli, components, conegeom, parabolic, rootsys

        self.pkg = conecurves
        self.mods = dict(affine=affine, cli=cli, components=components, conegeom=conegeom,
                         parabolic=parabolic, rootsys=rootsys)
        self.wl = wl
        self.root = root
        self.clock = Clock()
        self.oracle = checks.Oracle()
        self.keys = wl.cone_keys()
        self.key_query = {}
        for q in wl.queries:
            self.key_query.setdefault(q.cone_key, q)
            self.key_query.setdefault(workloads.minimal(q).cone_key, workloads.minimal(q))
        # (cone, minimal-ample cone, degree) per query, so the timed passes only look cones up.
        self.calls = [(q.cone_key, workloads.minimal(q).cone_key, q.degree) for q in wl.queries]
        self.ne_ops = [(q, d) for q in wl.queries for d in self.oracle.strata(q)]
        self.ne_calls = [(q.cone_key, d) for q, d in self.ne_ops]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_stdout_bytes = 0

    # ---- the passes ----------------------------------------------------

    def setup(self) -> dict:
        rootsys, parabolic, conegeom = self.mods["rootsys"], self.mods["parabolic"], self.mods["conegeom"]
        systems, pars, cones = {}, {}, {}
        for key in self.keys:
            t, nodes, lam, n = key
            if t not in systems:
                systems[t] = rootsys.build_root_system(rootsys.CartanType.parse(t))
            if (t, nodes) not in pars:
                pars[t, nodes] = parabolic.build_parabolic(systems[t], nodes)
            cones[key] = conegeom.build_cone(pars[t, nodes], lam, n)
        return cones

    def classify_pass(self, cones):
        classify = self.mods["components"].classify
        return [classify(cones[key], d) for key, _, d in self.calls]

    def count_pass(self, cones):
        count, compare = self.mods["components"].count_components, self.mods["affine"].compare_ne_ir
        return [(count(cones[key], d), compare(cones[min_key], d)) for key, min_key, d in self.calls]

    def ne_pass(self, cones):
        ne = self.mods["components"].ne
        return [ne(cones[key], d) for key, d in self.ne_calls]

    def cli_pass(self):
        cmd = [sys.executable, "-m", "conecurves"]
        return [
            subprocess.run(cmd + list(c.args), capture_output=True, text=True, env=self.env, cwd=self.root, timeout=120)
            for c in self.wl.cli
        ]

    # ---- checks ----------------------------------------------------------

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problems[0])
                print(f"check failed: {problems[0]}", file=sys.stderr)

    def check_setup(self, cones) -> None:
        self.record([p for key in self.keys for p in checks.check_cone(self.oracle, self.key_query[key], cones[key])])

    def check_classify(self, reports) -> None:
        for q, r in zip(self.wl.queries, reports):
            self.record(checks.check_report(self.oracle, q, r))

    def check_count(self, results) -> None:
        for q, (count, cmp) in zip(self.wl.queries, results):
            self.record(checks.check_count(self.oracle, q, count))
            self.record(checks.check_compare(self.oracle, workloads.minimal(q), cmp))

    def check_ne(self, results) -> None:
        for (q, d), classes in zip(self.ne_ops, results):
            self.record(checks.check_ne(self.oracle, q.ell, d, classes))

    def check_cli(self, procs) -> None:
        for call, proc in zip(self.wl.cli, procs):
            if proc.returncode != 0:
                self.record([f"{' '.join(call.args)} exited {proc.returncode}: {proc.stderr.strip()[-200:]}"])
                continue
            q, out = call.query, proc.stdout
            if call.kind == "classify-json":
                bad = checks.check_cli_classify_json(self.oracle, q, out)
            elif call.kind == "classify-tsv":
                bad = checks.check_cli_classify_tsv(self.oracle, q, out)
            elif call.kind == "gp":
                bad = checks.check_cli_gp(self.oracle, q.type_text, q.nodes, out)
            elif call.kind == "ne":
                bad = checks.check_cli_ne(self.oracle, q, out)
            else:
                bad = checks.check_cli_affine(self.oracle, q, out)
            self.record(bad)

    def ops_per_round(self, with_cli: bool) -> int:
        return 1 + 3 * len(self.wl.queries) + len(self.ne_ops) + (len(self.wl.cli) if with_cli else 0)

    # ---- rounds ----------------------------------------------------------

    def guarded(self, fn, ops: int):
        """Time a pass; if it raises, count its operations as failed and return None."""
        try:
            return self.clock.time(fn)
        except Exception as exc:  # one broken pass must not end the run
            self.attempted += ops
            self.failed += ops
            print(f"pass raised {exc!r}", file=sys.stderr)
            return None

    def round(self, samples: dict, with_cli: bool = True, tracer=None) -> list:
        """One round: set-up, classify, count, ne and (optionally) CLI passes.

        Appends each pass's (raw, scaled, bracket, bracket) seconds to
        `samples`; returns the classify reports.
        """
        nq = len(self.wl.queries)
        span = tracer.span if tracer else (lambda name: nullcontext())
        with span("pass.setup"):
            got = self.guarded(self.setup, 1)
        if got is None:
            self.attempted += self.ops_per_round(with_cli) - 1
            self.failed += self.ops_per_round(with_cli) - 1
            return []
        cones = got[0]
        samples["setup_s"].append(got[1])
        self.check_setup(cones)
        reports = []
        for metric, fn, check, ops in (
            ("classify_ms", self.classify_pass, self.check_classify, nq),
            ("count_ms", self.count_pass, self.check_count, 2 * nq),
            ("ne_ms", self.ne_pass, self.check_ne, len(self.ne_ops)),
        ):
            with span("pass." + metric.removesuffix("_ms")):
                got = self.guarded(functools.partial(fn, cones), ops)
            if got is not None:
                samples[metric].append(got[1])
                check(got[0])
                if metric == "classify_ms":
                    reports = got[0]
        if with_cli:
            got = self.guarded(self.cli_pass, len(self.wl.cli))
            if got is not None:
                samples["cli_ms"].append(got[1])
                self.check_cli(got[0])
                self.last_stdout_bytes = sum(len(p.stdout.encode()) for p in got[0])
        return reports


def _summary(passes, factor: float) -> dict:
    raw = [p[0] * factor for p in passes]
    scaled = [p[1] * factor for p in passes]
    return {
        "value": statistics.median(scaled),
        "raw_median": statistics.median(raw),
        "raw_min": min(raw),
        "n": len(passes),
        "samples": scaled,
        "brackets_ms": [[p[2] * 1e3, p[3] * 1e3] for p in passes],
    }


MIN_ROUNDS = 3


def run_untraced(runner: Runner, seconds: float) -> dict:
    samples = {m: [] for m in END_TO_END if m != "peak_rss_mb"}
    runner.round({m: [] for m in samples})  # warm-up: checked, not timed
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        runner.round(samples)
        rounds += 1
    metrics = {m: dict(unit=END_TO_END[m][0], **_summary(samples[m], END_TO_END[m][1])) for m in samples if samples[m]}
    rss = peak_rss_mb()
    metrics["peak_rss_mb"] = {"unit": "MB", "value": rss, "raw_median": rss, "raw_min": rss, "n": 1, "samples": [rss]}
    return {"rounds": rounds, "metrics": metrics}


def _child_ms(runner: Runner, args: list[str]) -> tuple[float, str]:
    """Run a fresh interpreter; return its wall time in ms and its stdout."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable] + args, capture_output=True, text=True, env=runner.env, cwd=runner.root, timeout=60)
    wall = perf_counter() - t0
    runner.record([] if proc.returncode == 0 else [f"{args} exited {proc.returncode}"])
    return wall * 1e3, proc.stdout


_IMPORT_PROBE = "import time; t = time.perf_counter(); import conecurves.cli; print((time.perf_counter() - t) * 1e3)"


def time_selfcheck(runner: Runner) -> dict:
    """selfcheck.run_all with each suite timed; reference figures only."""
    from conecurves import selfcheck

    times: dict[str, float] = {}

    def timed(fn):
        @functools.wraps(fn)
        def run(res):
            t0 = perf_counter()
            try:
                fn(res)
            finally:
                times[fn.__name__.removeprefix("_suite_")] = perf_counter() - t0

        return run

    suites = getattr(selfcheck, "_SUITES", None)
    if suites is not None:
        selfcheck._SUITES = tuple(timed(fn) for fn in suites)
    try:
        t0 = perf_counter()
        results = selfcheck.run_all()
        total = perf_counter() - t0
    finally:
        if suites is not None:
            selfcheck._SUITES = suites
    runner.record([f for r in results for f in r.failures])
    out = {"selfcheck.run_all_s": total, "selfcheck.checks": sum(r.checks for r in results)}
    out.update({f"selfcheck.{name}_s": t for name, t in times.items()})
    return out


def run_traced(runner: Runner, seconds: float, spans_path: Path | None) -> dict:
    """Alternate untraced and traced rounds; per-layer figures are medians over traced rounds."""
    untraced = {m: [] for m in END_TO_END if m != "peak_rss_mb"}
    traced = {m: [] for m in untraced}
    layers: list[dict] = []
    serialize: list[float] = []
    first = None
    cli = runner.mods["cli"]
    runner.round({m: [] for m in untraced})  # warm-up
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        reports = runner.round(untraced)
        t0 = perf_counter()
        for r in reports:
            json.dumps(cli.report_to_dict(r), indent=2)
        serialize.append((perf_counter() - t0) * 1e3)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, runner.pkg)
        try:
            reports = runner.round(traced, with_cli=False, tracer=tracer)
        finally:
            undo()
        layers.append(tracing.layer_metrics(tracer, sum(len(r.components) for r in reports)))
        first = first or tracer
        rounds += 1
    if spans_path is not None:
        first.dump(spans_path)
    metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    # Library time of a round: the sum of the median scaled set-up, classify, count and ne passes.
    per_round = lambda s: sum(statistics.median(p[1] for p in s[m]) for m in s if m != "cli_ms") * 1e3  # noqa: E731
    base, with_trace = per_round(untraced), per_round(traced)
    metrics["trace.overhead_ms"] = with_trace - base
    metrics["trace.overhead_pct"] = (with_trace - base) / base * 100
    metrics["cli.serialize_ms"] = statistics.median(serialize)
    metrics["cli.stdout_bytes"] = runner.last_stdout_bytes
    metrics["cli.start_ms"] = statistics.median(
        _child_ms(runner, ["-m", "conecurves", "gp", "--type", "A1", "--parabolic", "1"])[0] for _ in range(5))
    metrics["cli.import_ms"] = statistics.median(float(_child_ms(runner, ["-c", _IMPORT_PROBE])[1]) for _ in range(5))
    metrics.update(time_selfcheck(runner))
    return {"rounds": rounds, "metrics": metrics, "untraced_round_ms": base, "traced_round_ms": with_trace}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans")
    a = ap.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and the CLI children it starts, so that a
        # pass and its brackets run on the same, equally loaded CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(workloads.build(a.workload, a.seed), root)
    t0 = perf_counter()
    if a.trace:
        body = run_traced(runner, a.seconds, Path(a.spans) if a.spans else None)
    else:
        body = run_untraced(runner, a.seconds)
    refs = runner.clock.refs
    result = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "wall_s": perf_counter() - t0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "reference": {
            "nominal_ms": REF_NOMINAL_S * 1e3,
            "raw_median_ms": statistics.median(refs) * 1e3,
            "raw_min_ms": min(refs) * 1e3,
            "n": len(refs),
        },
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **body,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
