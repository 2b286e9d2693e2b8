"""Streamed CLI output: the hand-laid writers against their oracles, write
counts, failure mid-stream, peak memory and start-up imports."""

import contextlib
import io
import json
import os
import subprocess
import sys
import types
from itertools import combinations

import pytest

from conecurves import build_cone, build_parabolic, build_root_system, CartanType, classify, components
from conecurves.cli import _WRITE_BATCH, main, report_to_dict
from conecurves.components import iter_components
from conecurves.parabolic import minimal_ample

RANK_AT_MOST_3 = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]
E8_FLAG = ["--type", "E8", "--parabolic", "1,2,3,4,5,6,7,8", "--lambda", "min", "--vertex-dim", "1"]


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def grid(type_name):
    """(cone, argv without --degree) for every marked diagram of the type, ell in {min, 2 min}, n in {1, 2}."""
    rs = build_root_system(CartanType.parse(type_name))
    for size in range(1, rs.rank + 1):
        for nodes in combinations(range(1, rs.rank + 1), size):
            p = build_parabolic(rs, nodes)
            for lam in (minimal_ample(p), tuple(2 * x for x in minimal_ample(p))):
                for n in (1, 2):
                    argv = ["--type", type_name, "--parabolic", ",".join(map(str, nodes)),
                            "--lambda", ",".join(map(str, lam)), "--vertex-dim", str(n)]
                    yield build_cone(p, lam, n), argv


@pytest.mark.parametrize("type_name", RANK_AT_MOST_3)
def test_classify_json_equals_json_dumps_of_report_to_dict(type_name):
    for cone, argv in grid(type_name):
        for degree in range(5):
            report = classify(cone, degree)
            doc = report_to_dict(report)
            want = json.dumps(doc, indent=2) + "\n"
            assert stdout_of(["classify", *argv, "--degree", str(degree)]) == want
            kept = [c for c in doc["components"] if any(c["beta"])]
            doc.update(components=kept, count=len(kept), equidimensional=len({c["dimension"] for c in kept}) <= 1)
            want = json.dumps(doc, indent=2) + "\n"
            assert stdout_of(["classify", "--exclude-vertex-stratum", *argv, "--degree", str(degree)]) == want


@pytest.mark.parametrize("type_name", RANK_AT_MOST_3)
def test_iter_components_is_classify_one_at_a_time(type_name):
    for cone, _ in grid(type_name):
        for degree in range(5):
            assert tuple(iter_components(cone, degree)) == classify(cone, degree).components


@pytest.mark.parametrize("after", [3, _WRITE_BATCH + 3], ids=["first-batch", "later-batch"])
def test_lift_failure_mid_stream_exits_3_with_one_line(monkeypatch, capsys, after):
    argv = ["classify", *E8_FLAG, "--degree", "8"]  # 6,435 components, more than one batch
    full = stdout_of(argv)
    real = components.lift
    calls = []

    def corrupted(cone, beta, d):
        calls.append(None)
        lf = real(cone, beta, d)
        return lf._replace(e=lf.e + 1) if len(calls) > after else lf

    monkeypatch.setattr(components, "lift", corrupted)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err.startswith("internal error:") and err.count("\n") == 1
    # Writing starts before the last check, so stdout holds a truncated document.
    assert full.startswith(out) and len(out) < len(full)


@pytest.mark.parametrize(
    "argv,lines",
    [
        (["classify", "--format", "tsv", *E8_FLAG, "--degree", "6"], 1717),  # header + 1,716 components
        (["ne", *E8_FLAG, "--degree", "10"], 19449),  # 19,448 classes + count
    ],
    ids=["classify-tsv", "ne"],
)
def test_line_output_is_written_in_few_writes(monkeypatch, argv, lines):
    writes = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append, flush=lambda: None))
    assert main(argv) == 0
    assert len(writes) <= 10
    assert "".join(writes).count("\n") == lines


def child_peak_rss_mb(argv):
    proc = subprocess.Popen([sys.executable, "-m", "conecurves", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units are platform-specific")
def test_streamed_output_memory_barely_grows_with_the_degree():
    # d=8: 6,435 components; d=14: 116,280 components (28.8 MB of JSON).
    json8, json14 = (child_peak_rss_mb(["classify", *E8_FLAG, "--degree", d]) for d in ("8", "14"))
    assert json14 - json8 < 30
    ne8, ne14 = (child_peak_rss_mb(["ne", *E8_FLAG, "--degree", d]) for d in ("8", "14"))
    assert ne14 - ne8 < 5


def test_cli_import_leaves_selfcheck_and_json_unloaded():
    probe = (
        "import sys, conecurves.cli; "
        "print(sorted({'json', 'conecurves.selfcheck', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"
