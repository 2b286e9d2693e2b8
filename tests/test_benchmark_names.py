"""The traced benchmark names one metric per selfcheck suite; the declared names must match the suites."""

import json
from pathlib import Path

from conecurves import selfcheck

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_per_suite_metrics_name_the_selfcheck_suites():
    # bench/worker.py::time_selfcheck reports selfcheck.<name>_s for each _suite_<name> in _SUITES, so a
    # renamed or retired suite leaves a declared per-layer metric missing from the traced result line.
    layers = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    declared = {
        name.removeprefix("selfcheck.").removesuffix("_s")
        for name in layers
        if name.startswith("selfcheck.") and name.endswith("_s") and name != "selfcheck.run_all_s"
    }
    assert declared == {fn.__name__.removeprefix("_suite_") for fn in selfcheck._SUITES}


def test_each_suite_counts_its_checks_in_the_call_the_benchmark_times():
    # time_selfcheck times fn(res) for each entry of _SUITES, as run_all calls it. A suite that deferred its
    # checks, say by turning into a generator, would be timed doing nothing, and its checks would never run.
    for fn in selfcheck._SUITES:
        res = selfcheck.SuiteResult(fn.__name__.removeprefix("_suite_").replace("_", "-"))
        assert fn(res) is None
        assert res.checks > 0 and res.ok, (res.name, res.checks, res.failures[:5])
