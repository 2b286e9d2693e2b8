"""Command-line interface: output shapes, exit codes, determinism."""

import json
import subprocess
import sys
import time

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


@pytest.mark.parametrize(
    "argv",
    [
        ["gp", "--type", "A1_0", "--parabolic", "1"],
        ["gp", "--type", "A+3", "--parabolic", "1"],
        ["gp", "--type", "A٣", "--parabolic", "1"],
        ["gp", "--type", "A3", "--parabolic", "1,1,2"],
        ["gp", "--type", "A3", "--parabolic", "1,+2"],
        ["classify", "--type", "A1", "--parabolic", "1", "--lambda", "1_0", "--vertex-dim", "1", "--degree", "2"],
        ["classify", "--type", "A1", "--parabolic", "1", "--lambda", "+2", "--vertex-dim", "1", "--degree", "2"],
        ["classify", "--type", "A1", "--parabolic", "1", "--lambda", "2", "--vertex-dim", "+2", "--degree", "2"],
        ["classify", "--type", "A1", "--parabolic", "1", "--lambda", "2", "--vertex-dim", "1", "--degree", "1_0"],
        ["classify", "--type", "A1", "--parabolic", "1", "--lambda", "2", "--vertex-dim", "1", "--degree", "٣"],
        ["affine-compare", "--type", "A2", "--degree", "+2"],
    ],
    ids=["type-underscore", "type-sign", "type-arabic-digit", "repeated-node", "node-sign", "lambda-underscore",
         "lambda-sign", "vertex-dim-sign", "degree-underscore", "degree-arabic-digit", "affine-degree-sign"],
)
def test_non_decimal_or_repeated_input_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert err.count("\n") == 1


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
