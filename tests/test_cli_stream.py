"""Streamed CLI output: the hand-laid writers against their oracles, write
counts, failure mid-stream, peak memory and start-up imports."""

import contextlib
import gc
import hashlib
import importlib
import io
import json
import re
import runpy
import subprocess
import sys
import types
from dataclasses import replace
from itertools import chain, combinations
from pathlib import Path

import pytest

from conecurves import cli
from conecurves import (
    CartanType,
    ConeSpace,
    EffectiveClass,
    InputError,
    InternalError,
    build_cone,
    build_parabolic,
    build_root_system,
    classify,
    components,
    ne,
)
from conecurves.cli import _WRITE_BATCH, main, report_to_dict
from conecurves.components import iter_rows
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


# No lines: strata d' = 14 and 12 hold 3,432 + 1,716 rows (d' = 13 is empty), so row
# 664 of the d' = 12 stratum is the first row of the second batch: 3,432 + 664 = _WRITE_BATCH.
E8_NO_LINES = ["--type", "E8", "--parabolic", "1,2,3,4,5,6,7,8", "--lambda", "2,2,2,2,2,2,2,2",
               "--vertex-dim", "1", "--degree", "14"]


@pytest.mark.parametrize("index", [663, 664], ids=["first-batch", "later-batch"])
def test_row_off_its_stratum_mid_stream_exits_3_with_one_line(monkeypatch, capsys, index):
    argv = ["classify", *E8_NO_LINES]
    full = stdout_of(argv)
    assert 3432 + 664 == _WRITE_BATCH
    v = list(components.graded_solutions((2,) * 8, 12))[index]
    shifted_row(monkeypatch, 12, index, (1,) + (0,) * 7)  # one degree above its stratum
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err == f"internal error: enumerated class {(v[0] + 1, *v[1:])} is not an effective class of degree 12\n"
    if index < 664:
        assert out == ""  # the bad row falls within the first batch
    else:
        # Writing starts before the last check, so stdout holds a truncated document: one batch.
        assert full.startswith(out) and 0 < len(out) < len(full)
        assert out.count('"beta"') == _WRITE_BATCH


def shifted_row(monkeypatch, stratum, index, shift):
    """Patch the enumerator so that row `index` of the `stratum` listing has `shift` added."""
    real = components.graded_solutions

    def patched(weights, target):
        for i, v in enumerate(real(weights, target)):
            yield tuple(map(sum, zip(v, shift))) if (target, i) == (stratum, index) else v

    monkeypatch.setattr(components, "graded_solutions", patched)


# A2 full flag, ell = (2, 2), degree 4: strata d' = 4 (3 rows), 2 (2 rows), 0 (1 row).
A2_NO_LINES = build_cone(build_parabolic(build_root_system(CartanType.parse("A2")), (1, 2)), (2, 2), 1)
A2_ARGV = ["--type", "A2", "--parabolic", "1,2", "--lambda", "2,2", "--vertex-dim", "1", "--degree", "4"]
# The d' = 2 stratum of the same cone, listed by the ne command.
A2_NE_ARGV = ["ne", *A2_ARGV[:-1], "2"]


def refused_by_the_cli(capsys, message):
    """classify and ne each exit 3 with the one stderr line `message` and write no count."""
    for argv in (["classify", *A2_ARGV], A2_NE_ARGV):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert err == f"internal error: {message}\n"
        assert "count" not in out


@pytest.mark.parametrize(
    "index,shifted",
    [(0, "(2, 0)"), (1, "(1, 1)")],  # (1, 0) and (0, 1) of the d' = 2 stratum, moved to degree 4
    ids=["lifted-row", "later-row"],
)
def test_row_outside_its_stratum_is_refused(monkeypatch, capsys, index, shifted):
    shifted_row(monkeypatch, 2, index, (1, 0))
    message = f"enumerated class {shifted} is not an effective class of degree 2"
    for run in (lambda: tuple(iter_rows(A2_NO_LINES, 4)), lambda: classify(A2_NO_LINES, 4)):
        with pytest.raises(InternalError) as exc:
            run()
        assert str(exc.value) == message
    refused_by_the_cli(capsys, message)


@pytest.mark.parametrize(
    "shift,shifted", [((2, -1), "(4, 0)"), ((0, -1), "(2, 0)")], ids=["one-above", "one-below"]
)
def test_row_one_degree_off_on_a_chern_free_coordinate_is_refused(monkeypatch, shift, shifted):
    # The edges of the packed check: with the first Chern degree set to 0, row (2, 1) of the
    # one stratum d' = 3 moved to (4, 0) or (2, 0) pairs to exactly m or -m past its stratum.
    p = build_parabolic(build_root_system(CartanType.parse("A2")), (1, 2))
    cone = ConeSpace(replace(p, chern_degrees=(0, p.chern_degrees[1])), (1, 1), 1)
    shifted_row(monkeypatch, 3, 1, shift)
    for run in (lambda: tuple(iter_rows(cone, 3)), lambda: classify(cone, 3)):
        with pytest.raises(InternalError) as exc:
            run()
        assert str(exc.value) == f"enumerated class {shifted} is not an effective class of degree 3"


def test_negative_row_is_refused(monkeypatch, capsys):
    shifted_row(monkeypatch, 2, 1, (-1, 1))  # (0, 1) becomes (-1, 2), still of degree 2
    message = "enumerated class (-1, 2) is not an effective class of degree 2"
    runs = (lambda: tuple(iter_rows(A2_NO_LINES, 4)), lambda: classify(A2_NO_LINES, 4), lambda: ne(A2_NO_LINES, 2))
    for run in runs:
        with pytest.raises(InternalError) as exc:
            run()
        assert str(exc.value) == message
    refused_by_the_cli(capsys, message)
    # The same refusal of a class the caller built is an input error.
    with pytest.raises(InputError, match=r"nonnegative coordinates, got \(-1,\)"):
        EffectiveClass((-1,))


@pytest.mark.parametrize(
    "argv,what",
    [
        (["classify", *A2_ARGV], "5 components, but the generating function counts 6"),
        (["classify", "--format", "tsv", *A2_ARGV], "5 components, but the generating function counts 6"),
        (["classify", "--exclude-vertex-stratum", *A2_ARGV], "5 components, but the generating function counts 6"),
        (["ne", *A2_ARGV], "2 effective classes, but the generating function counts 3"),
    ],
    ids=["classify-json", "classify-tsv", "classify-excluding", "ne"],
)
def test_dropped_row_exits_3(monkeypatch, capsys, argv, what):
    real = components.graded_solutions
    monkeypatch.setattr(components, "graded_solutions", lambda w, t: (v for v in real(w, t) if v != (1, 1)))
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err == f"internal error: enumerated {what}\n"
    assert "count" not in out


# A2 full flag, ell = (1, 1), degree 2: lines, one stratum of 3 rows, no vertex row.
A2_LINES_ARGV = ["--type", "A2", "--parabolic", "1,2", "--lambda", "1,1", "--vertex-dim", "1", "--degree", "2"]


@pytest.mark.parametrize("size", range(1, 8))
def test_output_does_not_depend_on_the_batch_size(monkeypatch, size):
    # Sizes 1, 2, 3 and 6 end the six A2_ARGV rows on a full batch, and 5 leaves the
    # vertex row alone in the last batch; 1 and 3 end the three lines rows on a full batch.
    runs = [
        ["classify", *A2_ARGV],
        ["classify", "--exclude-vertex-stratum", *A2_ARGV],
        ["classify", "--format", "tsv", "--exclude-vertex-stratum", *A2_ARGV],
        ["classify", "--exclude-vertex-stratum", *A2_LINES_ARGV],
        ["classify", "--exclude-vertex-stratum", *A2_ARGV[:-1], "0"],
        ["ne", *A2_ARGV],
    ]
    want = [stdout_of(argv) for argv in runs]
    monkeypatch.setattr(cli, "_WRITE_BATCH", size)
    assert [stdout_of(argv) for argv in runs] == want


@pytest.mark.parametrize(
    "fault,taken,before_vertex",
    [
        (lambda real: lambda w, t: (v for v in real(w, t) if v != (1, 1)), 5, 4),
        (lambda real: lambda w, t: chain(real(w, t), [(0,) * len(w)] if t == 0 else []), 7, 5),
    ],
    ids=["dropped-row", "vertex-row-twice"],
)
@pytest.mark.parametrize("size", range(1, 8))
def test_a_count_mismatch_leaves_full_batches_only(monkeypatch, capsys, fault, taken, before_vertex, size):
    # The batches before the one that ends the stream go out, and that one does not,
    # whether or not it loses the vertex row; a row after the vertex row is counted too.
    monkeypatch.setattr(components, "graded_solutions", fault(components.graded_solutions))
    monkeypatch.setattr(cli, "_WRITE_BATCH", size)
    for flags, rows in (([], size * (taken // size)), (["--exclude-vertex-stratum"], size * (before_vertex // size))):
        assert main(["classify", *flags, *A2_ARGV]) == 3
        out, err = capsys.readouterr()
        assert err == f"internal error: enumerated {taken} components, but the generating function counts 6\n"
        assert out.count('"beta"') == rows and "count" not in out


@pytest.mark.parametrize(
    "name,patch,message",
    [
        (
            "graded_solutions",
            lambda real: lambda w, t: (v for v in real(w, t) if v != (1, 1)),
            "5 components, but the generating function counts 6",
        ),
        (
            "count_solutions",
            lambda real: lambda w, t: real(w, t) + 1,
            "6 components, but the generating function counts 7",
        ),
    ],
    ids=["dropped-row", "count-plus-one"],
)
def test_library_classify_checks_its_count(monkeypatch, name, patch, message):
    # The two faults the command line refuses (test_dropped_row_exits_3), in the same words.
    monkeypatch.setattr(components, name, patch(getattr(components, name)))
    with pytest.raises(InternalError) as exc:
        classify(A2_NO_LINES, 4)
    assert str(exc.value) == f"enumerated {message}"


@pytest.mark.parametrize(
    "fmt,digest",
    [
        # sha256 of the stdout recorded before classify streamed rows instead of records.
        ("json", "be875238341e98698311298ae453be163819463c447f49731afb262dc27cbbfe"),
        ("tsv", "679cad2732f35bb1ac234e6073777bbde09ebbe5962deea244daf65cb0841891"),
    ],
)
def test_cli_classify_builds_no_records(monkeypatch, fmt, digest):
    def refuse(*args, **kwargs):
        raise AssertionError("the classify command built a record")

    for name in ("ComponentDescriptor", "EffectiveClass", "ne"):
        monkeypatch.setattr(components, name, refuse)
    out = stdout_of(["classify", "--format", fmt, *E8_FLAG, "--degree", "8"])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


# Linux carries the starting process's resident high-water mark across exec
# into the child's ru_maxrss, so a bare interpreter starts the child: started
# from the test process, the child would read at least the test process's size.
SPAWN = (
    "import os, sys\n"
    "argv = [sys.executable, '-m', 'conecurves', *sys.argv[1:]]\n"
    "devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]\n"
    "_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ, file_actions=devnull), 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def child_peak_rss_mb(argv):
    proc = subprocess.run([sys.executable, "-c", SPAWN, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, kib = map(int, proc.stdout.split())
    assert code == 0
    return kib / 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units are platform-specific")
def test_streamed_output_memory_barely_grows_with_the_degree():
    # d=8: 6,435 components; d=14: 116,280 components (28.8 MB of JSON).
    for fmt in ("json", "tsv"):
        at8, at14 = (child_peak_rss_mb(["classify", "--format", fmt, *E8_FLAG, "--degree", d]) for d in ("8", "14"))
        assert at14 - at8 < 5, fmt
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


LAZY_MODULES = {"conecurves.components", "conecurves.conegeom", "conecurves.affine"}


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["roots", "--type", "A1"], LAZY_MODULES | {"conecurves.parabolic"}),
        (["gp", "--type", "F4", "--parabolic", "2,3"], LAZY_MODULES),
        (["ne", *E8_FLAG, "--degree", "2"], {"conecurves.affine"}),
        (["classify", *E8_FLAG, "--degree", "2"], {"conecurves.affine"}),
    ],
    ids=["roots", "gp", "ne", "classify"],
)
def test_commands_import_only_the_modules_they_use(argv, absent):
    probe = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('conecurves', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print(sorted(m for m in sys.modules if m.startswith('conecurves')), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert proc.returncode == 0
    loaded = set(eval(proc.stderr.splitlines()[-1]))
    assert "conecurves.cli" in loaded
    assert not loaded & absent


# The fault of test_dropped_row_exits_3 as source, run in the child and in
# process alike: the enumerator drops the class (1, 1).
DROP_11 = (
    "from conecurves import components\n"
    "real = components.graded_solutions\n"
    "components.graded_solutions = lambda w, t: (v for v in real(w, t) if v != (1, 1))\n"
)


@pytest.mark.parametrize(
    "argv,fault,code",
    [
        (["gp", "--type", "A1", "--parabolic", "1"], False, 0),
        (["gp", "--type", "A0", "--parabolic", "1"], False, 2),
        (["classify", *A2_ARGV], True, 3),
    ],
    ids=["exit-0", "exit-2", "exit-3"],
)
def test_python_m_freezes_the_heap_and_prints_what_main_prints(monkeypatch, capsys, argv, fault, code):
    probe = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
        + (DROP_11 if fault else "")
        + "runpy.run_module('conecurves', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    if fault:
        monkeypatch.setattr(components, "graded_solutions", components.graded_solutions)  # restored after the test
        exec(DROP_11, {})
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err + "True\n")


def test_only_the_process_entry_freezes_the_heap(monkeypatch, capsys):
    argv = ["gp", "--type", "A1", "--parabolic", "1"]
    assert main(argv) == 0
    assert gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["conecurves", *argv])
    try:
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out == stdout_of(argv) * 2


def test_console_script_is_the_function_python_m_calls(monkeypatch):
    # A regex, not tomllib: the tests also run on Python 3.10.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    ((module, name),) = re.findall(r'^conecurves = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE)
    target = importlib.import_module(module)
    assert getattr(target, name) is cli.entry
    callers = []
    monkeypatch.setattr(target, name, lambda: callers.append(sys._getframe(1).f_globals["__name__"]))
    runpy.run_module("conecurves", run_name="__main__")
    assert callers == ["__main__"]  # called by conecurves/__main__.py itself, not through another function


def test_package_resolves_its_names_on_first_access():
    probe = (
        "import sys, conecurves\n"
        "before = dir(conecurves)\n"
        "print(sorted(m for m in sys.modules if m.startswith('conecurves.')))\n"
        "values = [getattr(conecurves, n) for n in conecurves.__all__]\n"
        "print(before == dir(conecurves), len(conecurves.__all__))\n"
        "mods = [m for name, m in sys.modules.items() if name.startswith('conecurves.')]\n"
        "print(all(any(vars(m).get(n) is v for m in mods) for n, v in zip(conecurves.__all__, values)))\n"
        "subs = {'affine', 'components', 'conegeom', 'errors', 'parabolic', 'rootsys'}\n"
        "dunders = {n for n in vars(conecurves) if n.startswith('__')} - {'__getattr__', '__dir__'}\n"
        "print(sorted(set(before) ^ (set(conecurves.__all__) | subs | dunders)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nTrue 43\nTrue\n[]\n"
    import conecurves

    assert conecurves.__all__ == sorted(conecurves.__all__)
    assert conecurves.components.count_components is conecurves.count_components
    with pytest.raises(AttributeError, match="no attribute 'count_solutions'"):
        conecurves.count_solutions
