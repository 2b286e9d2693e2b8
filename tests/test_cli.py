"""Command-line interface: output shapes, exit codes, determinism."""

import dataclasses
import json
import subprocess
import sys
import time
import types

import pytest

from conecurves import cli, components, conegeom, parabolic, rootsys, selfcheck
from conecurves.cli import main, report_to_dict
from conecurves import CartanType, build_cone, build_parabolic, build_root_system, classify
from conecurves.parabolic import parse_alpha_p, parse_lambda

QUADRIC = ["--type", "A1", "--parabolic", "1", "--lambda", "2", "--vertex-dim", "1", "--degree", "2"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_a2(capsys):
    code, out, _ = run(capsys, ["roots", "--type", "A2"])
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("root ")) == 3
    assert "count 3" in lines
    assert "rho 1,1" in lines
    assert "highest_root 1,1" in lines


def test_roots_a1(capsys):
    code, out, _ = run(capsys, ["roots", "--type", "A1"])
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("root ")) == 1


def test_roots_bad_type_exits_2(capsys):
    code, _, err = run(capsys, ["roots", "--type", "Z9"])
    assert code == 2
    assert err.strip().startswith("input error:")
    assert "\n" not in err.strip()


def test_gp_grassmannian(capsys):
    code, out, _ = run(capsys, ["gp", "--type", "A3", "--parabolic", "2"])
    assert code == 0
    lines = out.splitlines()
    assert "dim_gp 4" in lines
    assert "picard_rank 1" in lines
    assert "chern 4" in lines


def test_gp_projective_line(capsys):
    code, out, _ = run(capsys, ["gp", "--type", "A1", "--parabolic", "1"])
    assert code == 0
    assert "dim_gp 1" in out.splitlines()
    assert "chern 2" in out.splitlines()


def test_gp_empty_parabolic_exits_2(capsys):
    code, _, err = run(capsys, ["gp", "--type", "A2", "--parabolic", ""])
    assert code == 2
    assert "input error" in err


def test_ne_command(capsys):
    code, out, _ = run(
        capsys,
        ["ne", "--type", "A2", "--parabolic", "1,2", "--lambda", "1,1", "--vertex-dim", "1", "--degree", "2"],
    )
    assert code == 0
    assert out.splitlines() == ["ne 2,0", "ne 1,1", "ne 0,2", "count 3"]
    # The quadric has no class of odd degree: nothing listed, and the count agrees.
    code, out, err = run(capsys, ["ne", *QUADRIC[:-1], "3"])
    assert (code, out, err) == (0, "count 0\n", "")


def test_classify_quadric_cone_json(capsys):
    code, out, _ = run(capsys, ["classify", *QUADRIC])
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "no_lines"
    assert doc["count"] == 2
    assert [c["dimension"] for c in doc["components"]] == [6, 6]
    assert doc["equidimensional"] is True
    assert doc["cone"] == {
        "type": "A1",
        "parabolic": [1],
        "lambda": [2],
        "ell": [2],
        "vertex_dim": 1,
        "dim_x": 2,
    }
    assert doc["components"][0] == {
        "beta": [1],
        "alpha_prime": 2,
        "vertex_multiplicity": 0,
        "relative_degree": 2,
        "e": 0,
        "dimension": 6,
    }


def test_classify_plane_cone_json(capsys):
    code, out, _ = run(
        capsys,
        ["classify", "--type", "A1", "--parabolic", "1", "--lambda", "1", "--vertex-dim", "1", "--degree", "2"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "lines"
    assert doc["count"] == 1
    assert doc["components"][0]["dimension"] == 8


def test_classify_degree_zero(capsys):
    code, out, _ = run(
        capsys,
        ["classify", "--type", "A3", "--parabolic", "1,3", "--lambda", "min", "--vertex-dim", "2", "--degree", "0"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["components"][0]["dimension"] == doc["cone"]["dim_x"]


def test_classify_min_lambda_token(capsys):
    code, out, _ = run(
        capsys,
        ["classify", "--type", "A2", "--parabolic", "1,2", "--lambda", "min", "--vertex-dim", "1", "--degree", "1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cone"]["lambda"] == [1, 1]
    assert doc["case"] == "lines"


def test_classify_json_is_byte_stable(capsys):
    _, first, _ = run(capsys, ["classify", *QUADRIC])
    _, second, _ = run(capsys, ["classify", *QUADRIC])
    assert first == second


def test_classify_round_trips(capsys):
    _, out, _ = run(capsys, ["classify", *QUADRIC])
    doc = json.loads(out)
    rs = build_root_system(CartanType.parse(doc["cone"]["type"]))
    p = build_parabolic(rs, tuple(doc["cone"]["parabolic"]))
    cone = build_cone(p, tuple(doc["cone"]["lambda"]), doc["cone"]["vertex_dim"])
    rebuilt = report_to_dict(classify(cone, doc["total_degree"]))
    assert json.dumps(rebuilt, indent=2) + "\n" == out


def test_classify_tsv(capsys):
    code, out, _ = run(capsys, ["classify", *QUADRIC, "--format", "tsv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "beta\talpha_prime\tvertex_multiplicity\trelative_degree\te\tdimension"
    assert lines[1:] == ["1\t2\t0\t2\t0\t6", "0\t0\t2\t4\t2\t6"]


def test_classify_exclude_vertex_stratum(capsys):
    code, out, _ = run(capsys, ["classify", *QUADRIC, "--exclude-vertex-stratum"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["components"][0]["beta"] == [1]


def test_classify_invalid_lambda_exits_2(capsys):
    code, _, err = run(
        capsys,
        ["classify", "--type", "A2", "--parabolic", "1", "--lambda", "1,1", "--vertex-dim", "1", "--degree", "2"],
    )
    assert code == 2
    assert "lambda[2]" in err


def test_classify_unknown_flag_exits_2(capsys):
    code = main(["classify", "--bogus"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip().startswith("input error:")
    assert "\n" not in err.strip()


def missing_argument_cases():
    cone = {"--type": "A1", "--parabolic": "1", "--lambda": "2", "--vertex-dim": "1", "--degree": "2"}
    commands = {
        "roots": ["--type"],
        "gp": ["--type", "--parabolic"],
        "ne": list(cone),
        "affine-compare": ["--type", "--degree"],
    }
    yield pytest.param([], "command", id="command")
    for command, options in commands.items():
        for missing in options:
            argv = [command] + [a for o in options if o != missing for a in (o, cone[o])]
            yield pytest.param(argv, missing, id=f"{command}{missing}")


@pytest.mark.parametrize("argv,missing", missing_argument_cases())
def test_a_missing_required_argument_exits_2(capsys, argv, missing):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"input error: the following arguments are required: {missing}\n"


def test_a_request_at_the_class_limit_is_admitted(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_MAX_CLASSES", 3)
    flag = ["ne", "--type", "A2", "--parabolic", "1,2", "--lambda", "1,1", "--vertex-dim", "1", "--degree"]
    code, out, _ = run(capsys, [*flag, "2"])
    assert code == 0 and out.endswith("count 3\n")
    code, out, err = run(capsys, [*flag, "3"])
    assert (code, out) == (2, "")
    assert err == "input error: the request has 4 effective classes, more than the limit 3\n"


def test_negative_degree_exits_2(capsys):
    code, _, err = run(
        capsys,
        ["ne", "--type", "A1", "--parabolic", "1", "--lambda", "1", "--vertex-dim", "1", "--degree", "-1"],
    )
    assert code == 2
    assert "input error" in err


def test_affine_compare_mismatch(capsys):
    code, out, _ = run(capsys, ["affine-compare", "--type", "A1", "--degree", "1"])
    assert code == 0
    assert "ne=1 ir=2 MISMATCH" in out.splitlines()


def test_affine_compare_match_at_zero(capsys):
    code, out, _ = run(capsys, ["affine-compare", "--type", "A1", "--degree", "0"])
    assert code == 0
    assert "ne=1 ir=1 MATCH" in out.splitlines()


def test_affine_compare_a2(capsys):
    code, out, _ = run(capsys, ["affine-compare", "--type", "A2", "--degree", "2"])
    assert code == 0
    assert "ne=3 ir=6 MISMATCH" in out.splitlines()


SELFCHECK_PASS = """\
root-counts: 99 checks, 0 failures
lines-dichotomy: 1192 checks, 0 failures
dimension-cross-check: 2724 checks, 0 failures
ne-enumeration: 2772 checks, 0 failures
classical-oracles: 29 checks, 0 failures
selfcheck PASS
"""


def test_selfcheck_passes(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["selfcheck"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 2.0
    # The whole output, so a rewrite that drops or merges a check fails here.
    assert out == SELFCHECK_PASS


def _selfcheck_counts(capsys) -> dict[str, tuple[int, int]]:
    """Run a failing selfcheck; each suite's (checks, failures), read from its summary line."""
    code, out, _ = run(capsys, ["selfcheck"])
    assert code == 3
    lines = out.splitlines()
    assert lines[-1] == "selfcheck FAIL"
    assert not [l for l in lines if l.startswith("  FAIL aborted:")]
    counts = {}
    for line in lines:
        if not line.startswith(("  FAIL ", "selfcheck ")):
            name, rest = line.split(": ")
            checks, failures = rest.removesuffix(" failures").split(" checks, ")
            counts[name] = (int(checks), int(failures))
    return counts


def test_selfcheck_detects_flipped_cartan_sign(monkeypatch, capsys):
    real = rootsys.cartan_matrix

    def flipped(ctype):
        M = [list(row) for row in real(ctype)]
        if ctype.series == "A" and ctype.rank == 2:
            M[0][1] = 1
        return tuple(tuple(row) for row in M)

    monkeypatch.setattr(rootsys, "cartan_matrix", flipped)
    # A2's comarks raise InternalError: one failed check, and root-counts goes on to the next type.
    assert _selfcheck_counts(capsys) == {
        "root-counts": (99, 2),
        "lines-dichotomy": (1192, 0),
        "dimension-cross-check": (2724, 336),
        "ne-enumeration": (2772, 0),
        "classical-oracles": (29, 2),
    }


def _wrong_count(monkeypatch):
    """count_solutions answers one more than the true count."""
    real = components.count_solutions
    monkeypatch.setattr(components, "count_solutions", lambda weights, target: real(weights, target) + 1)


def _dropped_row(monkeypatch):
    """The enumerator drops the last vector of every list of two or more."""
    real = components.graded_solutions

    def graded_solutions(weights, target):
        vectors = list(real(weights, target))
        return iter(vectors[:-1] if len(vectors) > 1 else vectors)

    monkeypatch.setattr(components, "graded_solutions", graded_solutions)


def _wrong_root_length(monkeypatch):
    """B3 with its long and short roots swapped in the Dynkin table.

    That is C3's table: same bonds, same number of roots, but the Cartan
    matrix is transposed.
    """
    real = rootsys._DYNKIN["B"]
    monkeypatch.setitem(rootsys._DYNKIN, "B", lambda n: (real(n)[0], (1, 1, 2)) if n == 3 else real(n))
    assert build_root_system(CartanType("B", 3)).cartan == build_root_system(CartanType("C", 3)).cartan


def _empty_point_lifts(monkeypatch):
    """n = 1 classes with e < 0 (the d = -l point) come back empty."""
    real = conegeom.lift

    def lift(cone, beta, relative_degree):
        lf = real(cone, beta, relative_degree)
        if cone.vertex_dim == 1 and lf.e < 0:
            return lf._replace(nonempty=False, fiber_dim=None, dim_branch=None, dim_base_fiber=None)
        return lf

    monkeypatch.setattr(conegeom, "lift", lift)


def _raise_a3_node_1_chern_degree(monkeypatch):
    """A3 node 1 (P^3) gets Chern degree 5 in place of 4."""
    real = parabolic.build_parabolic

    def build(rs, alpha_p):
        p = real(rs, alpha_p)
        if rs.cartan_type == CartanType("A", 3) and p.alpha_p == (1,):
            return dataclasses.replace(p, chern_degrees=(p.chern_degrees[0] + 1,))
        return p

    monkeypatch.setattr(parabolic, "build_parabolic", build)


# Each suite's (checks, failures) under each fault, in _SUITES order: root-counts,
# lines-dichotomy, dimension-cross-check, ne-enumeration, classical-oracles.
# Under a wrong count, every classify call raises InternalError, one failed check
# each.  dimension-cross-check reads its dimensions from iter_rows, which does not
# count, so it still checks every row and fails two checks per degree: the row
# count against count_components, and the classify call.
FAULT_COUNTS = {
    _wrong_count: ((99, 0), (1192, 315), (2724, 504), (2772, 1848), (29, 8)),
    _dropped_row: ((99, 0), (1192, 0), (2724, 0), (2772, 1758), (29, 0)),
    _wrong_root_length: ((99, 1), (1192, 0), (2724, 0), (2772, 0), (29, 0)),
    _empty_point_lifts: ((99, 0), (1192, 0), (2724, 48), (2772, 0), (29, 0)),
    _raise_a3_node_1_chern_degree: ((99, 0), (1192, 0), (2724, 336), (2772, 0), (29, 1)),
}


@pytest.mark.parametrize("mutate", list(FAULT_COUNTS))
def test_selfcheck_fault_matrix(mutate, monkeypatch, capsys):
    # Every fault fails selfcheck without aborting a suite, and each suite's
    # counts are pinned; root-counts and lines-dichotomy run in full under all.
    mutate(monkeypatch)
    names = ("root-counts", "lines-dichotomy", "dimension-cross-check", "ne-enumeration", "classical-oracles")
    assert _selfcheck_counts(capsys) == dict(zip(names, FAULT_COUNTS[mutate]))


def test_a_suite_that_raises_is_reported_aborted_and_the_others_run(monkeypatch, capsys):
    # An exception other than InputError or InternalError ends its suite: the suite
    # keeps the checks it counted (none here) and one "aborted:" failure.
    def crash(*args):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(selfcheck, "_toric_dimension", crash)
    results = selfcheck.run_all()
    assert {r.name: (r.checks, r.failures) for r in results} == {
        "root-counts": (99, []),
        "lines-dichotomy": (1192, []),
        "dimension-cross-check": (0, ["aborted: ZeroDivisionError('injected')"]),
        "ne-enumeration": (2772, []),
        "classical-oracles": (29, []),
    }
    code, out, _ = run(capsys, ["selfcheck"])
    assert code == 3
    assert "dimension-cross-check: 0 checks, 1 failures\n  FAIL aborted: ZeroDivisionError('injected')\n" in out
    assert out.endswith("selfcheck FAIL\n")
    code, out, _ = run(capsys, ["selfcheck", "--json"])
    assert code == 3
    failed = {s["name"]: s["failed"] for s in json.loads(out)["suites"]}
    assert failed == {name: int(name == "dimension-cross-check") for name in failed}


def test_selfcheck_json_reports_what_the_text_form_prints(monkeypatch, capsys):
    # Under a wrong count: the same exit code, counts and shown failures as the text form.
    _wrong_count(monkeypatch)
    code, text, _ = run(capsys, ["selfcheck"])
    assert code == 3
    shown = {}
    for line in text.splitlines()[:-1]:
        if line.startswith("  FAIL "):
            shown[name][1].append(line.removeprefix("  FAIL "))
        else:
            name, rest = line.split(": ")
            checks, failures = rest.removesuffix(" failures").split(" checks, ")
            shown[name] = ((int(checks), int(failures)), [])
    code, out, err = run(capsys, ["selfcheck", "--json"])
    assert code == 3 and err == ""
    doc = json.loads(out)
    assert doc["pass"] is False
    assert {s["name"]: ((s["checks"], s["failed"]), s["failures"]) for s in doc["suites"]} == shown
    assert [s["name"] for s in doc["suites"]] == list(shown)
    assert dict(zip(shown, FAULT_COUNTS[_wrong_count])) == {n: c for n, (c, _) in shown.items()}
    assert all(len(s["failures"]) == 5 for s in doc["suites"] if s["failed"] >= 5)
    assert all(isinstance(s["seconds"], float) and s["seconds"] >= 0 for s in doc["suites"])


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "conecurves", "classify", *QUADRIC],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 2


def test_parsers_reused_by_cli():
    assert parse_alpha_p("1,3") == (1, 3)
    assert parse_lambda("0,1,0", 3) == (0, 1, 0)


def test_help_exits_zero(capsys):
    code = main(["--help"])
    capsys.readouterr()
    assert code == 0


def test_reader_closing_stdout_early_exits_0_quietly():
    argv = ["ne", "--type", "E8", "--parabolic", "1,2,3,4,5,6,7,8", "--lambda", "min", "--vertex-dim", "1", "--degree", "9"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "conecurves", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # ne at degree 9 prints about 250 KB, far more than a pipe buffer
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert first == b"ne 9,0,0,0,0,0,0,0\n"
    assert err == b""
    assert code == 0


def test_classify_json_reader_closing_stdout_early_exits_0_quietly():
    argv = ["classify", "--type", "E8", "--parabolic", "1,2,3,4,5,6,7,8", "--lambda", "min", "--vertex-dim", "1",
            "--degree", "6"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "conecurves", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # the JSON report is about 420 KB, far more than a pipe buffer
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert first == b"{\n"
    assert err == b""
    assert code == 0


def test_classify_json_is_written_in_few_writes(monkeypatch):
    # Under python -u every stdout write is a system call, and the encoder
    # yields one chunk per token (about 64,000 for this report).
    writes = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append, flush=lambda: None))
    argv = ["classify", "--type", "E8", "--parabolic", "1,2,3,4,5,6,7,8", "--lambda", "min", "--vertex-dim", "1",
            "--degree", "6"]
    assert main(argv) == 0
    assert len(writes) <= 10
    assert json.loads("".join(writes))["count"] == 1716


@pytest.mark.parametrize("name,count", [("A21", 231), ("B15", 225), ("C15", 225), ("D16", 240)])
def test_roots_at_the_largest_classical_ranks(capsys, name, count):
    code, out, err = run(capsys, ["roots", "--type", name])
    assert code == 0
    assert err == ""
    assert f"count {count}" in out.splitlines()


@pytest.mark.parametrize("name", ["A22", "B16", "C16", "D17", "A1000000000"])
def test_roots_above_the_largest_classical_ranks_exit_2_at_once(capsys, name):
    start = time.perf_counter()
    code, out, err = run(capsys, ["roots", "--type", name])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "maximum" in err
    assert err.count("\n") == 1
    assert elapsed < 1.0


def integer_field(field, value):
    """(argv, argparse's prefix, the field's name) for a good request with `value` in one integer field."""
    cone = ["classify", "--type", "A1", "--parabolic", "1"]
    return {
        "type": (["gp", "--type", "A" + value, "--parabolic", "1"], "", "rank"),
        "node": (["gp", "--type", "A3", "--parabolic", "1," + value], "", "parabolic index"),
        "lambda": ([*cone, "--lambda", value, "--vertex-dim", "1", "--degree", "2"], "", "lambda coordinate"),
        "vertex-dim": ([*cone, "--lambda", "2", "--vertex-dim", value, "--degree", "2"], "argument --vertex-dim: ",
                       "value"),
        "degree": ([*cone, "--lambda", "2", "--vertex-dim", "1", "--degree", value], "argument --degree: ", "value"),
        "affine-degree": (["affine-compare", "--type", "A2", "--degree", value], "argument --degree: ", "value"),
    }[field]


FIELDS = ["type", "node", "lambda", "vertex-dim", "degree", "affine-degree"]


def non_decimal_cases():
    # Every integer field is read by rootsys.parse_decimal, so each refuses the same spellings in the same words.
    for field in FIELDS:
        for kind, value in [("sign", "+2"), ("underscore", "1_0"), ("arabic-digit", "٣"), ("empty", "")]:
            argv, prefix, what = integer_field(field, value)
            message = f"{prefix}bad {what} {value!r}; expected ASCII decimal digits"
            if (field, kind) == ("type", "empty"):
                message = "cannot parse Cartan type 'A'; expected e.g. 'A3'"  # too short to hold a rank
            yield pytest.param(argv, message, id=f"{field}-{kind}")
    yield pytest.param(
        ["gp", "--type", "A3", "--parabolic", "1,1,2"], "repeated parabolic index in '1,1,2'", id="repeated-node"
    )


@pytest.mark.parametrize("argv,message", non_decimal_cases())
def test_non_decimal_or_repeated_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"input error: {message}\n"


def too_long_cases():
    nines = "9" * 5000
    yield pytest.param(["roots", "--type", "A" + nines], "rank has 5000 digits", id="roots-type")
    yield pytest.param(["gp", "--type", "A3", "--parabolic", nines], "parabolic index has 5000 digits", id="gp-parabolic")
    for field, ident in [("lambda", "classify-lambda"), ("vertex-dim", "classify-vertex-dim")]:
        argv, prefix, what = integer_field(field, nines)
        yield pytest.param(argv, f"{prefix}{what} has 5000 digits", id=ident)
    for field in FIELDS:
        argv, prefix, what = integer_field(field, "9" * 101)
        yield pytest.param(argv, f"{prefix}{what} has 101 digits", id=f"{field}-101-digits")


@pytest.mark.parametrize("argv,message", too_long_cases())
def test_integer_longer_than_the_digit_limit_exits_2(capsys, argv, message):
    # int() itself refuses more than 4,300 digits with a ValueError.
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"input error: {message}, more than the limit 100\n"


E8_FLAG = ["--type", "E8", "--parabolic", "1,2,3,4,5,6,7,8", "--vertex-dim", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["ne", *E8_FLAG, "--lambda", "min", "--degree", "40"],
        ["classify", *E8_FLAG, "--lambda", "min", "--degree", "40"],
        ["classify", *E8_FLAG, "--lambda", "2,2,2,2,2,2,2,2", "--degree", "60"],
    ],
    ids=["ne-lines", "classify-lines", "classify-no-lines"],
)
def test_oversized_enumeration_is_refused_before_it_starts(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "more than the limit 1000000" in err
    assert err.count("\n") == 1
    assert elapsed < 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ["ne", *E8_FLAG, "--lambda", "min"],
        ["classify", "--type", "A1", "--parabolic", "1", "--lambda", "2", "--vertex-dim", "1"],
        ["affine-compare", "--type", "A1"],
    ],
    ids=["ne", "classify", "affine-compare"],
)
def test_degree_above_the_limit_exits_2(capsys, argv):
    code, out, err = run(capsys, [*argv, "--degree", str(cli._MAX_DEGREE + 1)])
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "exceeds the limit 100000" in err
    assert err.count("\n") == 1
