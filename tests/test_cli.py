"""Command-line interface: output shapes, exit codes, determinism."""

import json
import subprocess
import sys
import time
import types

import pytest

from conecurves import cli, components, rootsys
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


def test_selfcheck_passes(capsys):
    import time

    start = time.perf_counter()
    code, out, _ = run(capsys, ["selfcheck"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 10.0
    lines = out.splitlines()
    assert lines[-1] == "selfcheck PASS"
    assert any(l.startswith("root-counts:") for l in lines)
    assert any(l.startswith("dimension-cross-check:") for l in lines)


def test_selfcheck_detects_flipped_cartan_sign(monkeypatch, capsys):
    real = rootsys.cartan_matrix

    def flipped(ctype):
        M = [list(row) for row in real(ctype)]
        if ctype.series == "A" and ctype.rank == 2:
            M[0][1] = 1
        return tuple(tuple(row) for row in M)

    monkeypatch.setattr(rootsys, "cartan_matrix", flipped)
    code, out, _ = run(capsys, ["selfcheck"])
    assert code == 3
    assert "selfcheck FAIL" in out


def test_selfcheck_detects_a_wrong_count(monkeypatch, capsys):
    real = components.count_solutions
    monkeypatch.setattr(components, "count_solutions", lambda weights, target: real(weights, target) + 1)
    code, out, _ = run(capsys, ["selfcheck"])
    assert code == 3
    assert "selfcheck FAIL" in out


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
