"""Tests of the benchmark: every check accepts the library's real output and
rejects a corrupted copy of it.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from checks import Query  # noqa: E402

import conecurves  # noqa: E402
from conecurves import affine, cli, components, conegeom  # noqa: E402
from conecurves.components import EffectiveClass  # noqa: E402

ORACLE = checks.Oracle()


def cone_of(q: Query):
    return worker.Runner(workloads.Workload("t", (q,), ()), BENCH.parent).setup()[q.cone_key]


LINES = Query("A3", (1, 3), (2, 0, 1), 1, 3)  # ell = (2, 1): has lines
NO_LINES = Query("B3", (2, 3), (0, 2, 3), 2, 5)  # ell = (2, 3): no lines
FLAG = workloads.flag_lines().queries[0]
CONIC = Query("A1", (1,), (2,), 3, 40, closed_count=21, closed_dim=164)


def cli_stdout(args) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(args)) == 0
    return buf.getvalue()


def bump(text: str, prefix: str) -> str:
    """Change the last digit of the first line starting with `prefix`."""
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    line = lines[i].rstrip("\n")
    lines[i] = line[:-1] + str((int(line[-1]) + 1) % 10) + "\n"
    return "".join(lines)


def drop_and_swap(text: str, prefix: str) -> list[str]:
    """Copies of text with the first `prefix` line dropped, and with the first two swapped."""
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    swapped = lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]
    return ["".join(lines[:i] + lines[i + 1:]), "".join(swapped)]


# ---- the oracle itself --------------------------------------------------


def test_oracle_tables():
    for series, ranks, h_dual in (("A", range(1, 8), lambda r: r + 1), ("B", range(2, 8), lambda r: 2 * r - 1),
                                  ("C", range(3, 8), lambda r: r + 1), ("D", range(4, 8), lambda r: 2 * r - 2)):
        for r in ranks:
            assert sum(checks._COMARKS[series](r)) == h_dual(r)
            assert checks.subdiagram_type(checks.cartan(series, r), range(1, r + 1)) == (series, r)
    for t, h in (("E6", 12), ("E7", 18), ("E8", 30), ("F4", 9), ("G2", 4)):
        s, r = checks.parse_type(t)
        assert sum(checks._COMARKS[s](r)) == h
        assert checks.subdiagram_type(checks.cartan(s, r), range(1, r + 1)) == (s, r)
    assert checks.diagram("A3", (1,)).chern == (4,)
    assert checks.diagram("A3", (2,)) .chern == (4,) and checks.diagram("A3", (2,)).dim_gp == 4
    assert checks.diagram("E8", range(1, 9)).chern == (2,) * 8
    assert checks.diagram("E8", range(1, 9)).dim_gp == 120
    assert len(checks.box_scan((1,) * 8, 8)) == 6435
    assert checks.box_scan((1, 2), 2) == [(0, 1), (2, 0)]


def test_closed_forms_match_the_oracle():
    for q in workloads.flag_lines().queries + workloads.deep_strata().queries + (CONIC,):
        assert ORACLE.component_count(q) == q.closed_count
        dg = ORACLE.diagram(q.type_text, q.nodes)
        dims = {sum(b * (c - l) for b, c, l in zip(beta, dg.chern, q.ell)) + (q.n + 1) * q.degree + dg.dim_gp + q.n
                for d in ORACLE.strata(q) for beta in ORACLE.scan(q.ell, d)}
        assert dims == {q.closed_dim}


# ---- library outputs ----------------------------------------------------


@pytest.mark.parametrize("q", [LINES, NO_LINES, FLAG, CONIC], ids=["lines", "no-lines", "flag", "conic"])
def test_check_report(q):
    rep = components.classify(cone_of(q), q.degree)
    assert checks.check_report(ORACLE, q, rep) == []
    comps = list(rep.components)
    c0, c1 = comps[0], comps[1]
    corrupt = [
        replace(rep, components=tuple(comps[:-1])),
        replace(rep, case="lines" if rep.case == "no_lines" else "no_lines"),
        replace(rep, equidimensional=not rep.equidimensional),
        replace(rep, total_degree=q.degree + 1),
        replace(rep, components=tuple([replace(c0, dimension=c0.dimension + 1)] + comps[1:])),
        replace(rep, components=tuple([replace(c0, vertex_multiplicity=c0.vertex_multiplicity + 1)] + comps[1:])),
        replace(rep, components=tuple([replace(c0, alpha_prime=c0.alpha_prime + 1)] + comps[1:])),
        replace(rep, components=tuple([replace(c0, tilde=replace(c0.tilde, relative_degree=c0.tilde.relative_degree + 2))] + comps[1:])),
        replace(rep, components=tuple([replace(c0, beta=EffectiveClass(tuple(b + 1 for b in c0.beta.coeffs)))] + comps[1:])),
        replace(rep, components=tuple(comps + [comps[-1]])),
    ]
    if c0.alpha_prime == c1.alpha_prime:
        corrupt.append(replace(rep, components=tuple([c1, c0] + comps[2:])))
    for bad in corrupt:
        assert checks.check_report(ORACLE, q, bad), bad


def test_check_report_closed_form():
    q = replace(CONIC, closed_dim=CONIC.closed_dim + 1)
    assert checks.check_report(ORACLE, q, components.classify(cone_of(q), q.degree))
    q = replace(CONIC, closed_count=CONIC.closed_count + 1)
    assert checks.check_report(ORACLE, q, components.classify(cone_of(q), q.degree))


@pytest.mark.parametrize("q", [LINES, NO_LINES, CONIC], ids=["lines", "no-lines", "conic"])
def test_check_count(q):
    n = components.count_components(cone_of(q), q.degree)
    assert checks.check_count(ORACLE, q, n) == []
    assert checks.check_count(ORACLE, q, n + 1)
    assert checks.check_count(ORACLE, q, n - 1)


@pytest.mark.parametrize("q", [LINES, NO_LINES, FLAG, Query("D4", (1, 3, 4), (1, 0, 1, 1), 2, 4)])
def test_check_compare(q):
    m = workloads.minimal(q)
    cmp = affine.compare_ne_ir(cone_of(m), m.degree)
    assert checks.check_compare(ORACLE, m, cmp) == []
    marks = list(cmp.factor_comarks)
    marks[0] = marks[0][:-1] + (marks[0][-1] + 1,)
    for bad in (
        replace(cmp, ne_count=cmp.ne_count + 1),
        replace(cmp, ir_count=cmp.ir_count + 1),
        replace(cmp, match=not cmp.match),
        replace(cmp, degree=cmp.degree + 1),
        replace(cmp, factor_comarks=tuple(marks)),
        replace(cmp, factor_nodes=cmp.factor_nodes + ((9,),)),
    ):
        assert checks.check_compare(ORACLE, m, bad), bad


def test_check_ne():
    for q in (LINES, NO_LINES, FLAG):
        for d in ORACLE.strata(q)[:3]:
            classes = components.ne(cone_of(q), d)
            assert checks.check_ne(ORACLE, q.ell, d, classes) == []
            if len(classes) > 1:
                assert checks.check_ne(ORACLE, q.ell, d, classes[1:])
                assert checks.check_ne(ORACLE, q.ell, d, [classes[1], classes[0]] + classes[2:])


def test_check_cone():
    cone = cone_of(NO_LINES)
    assert checks.check_cone(ORACLE, NO_LINES, cone) == []
    p = cone.parabolic
    for bad in (
        replace(cone, ell=(3, 3)),
        replace(cone, vertex_dim=1),
        replace(cone, parabolic=replace(p, dim_gp=p.dim_gp + 1)),
        replace(cone, parabolic=replace(p, chern_degrees=(p.chern_degrees[0] + 1,) + p.chern_degrees[1:])),
    ):
        assert checks.check_cone(ORACLE, NO_LINES, bad), bad


# ---- command-line outputs -----------------------------------------------


def test_cli_classify_json_and_tsv():
    for q, lam in ((FLAG, "min"), (CONIC, "2"), (NO_LINES, "0,2,3")):
        out = cli_stdout(workloads.classify_args(q, lam, "json"))
        assert checks.check_cli_classify_json(ORACLE, q, out) == []
        doc = json.loads(out)
        for mutate in (
            lambda d: d["components"].pop(),
            lambda d: d["components"][0].update(dimension=d["components"][0]["dimension"] + 1),
            lambda d: d["components"][0].update(e=d["components"][0]["e"] + 1),
            lambda d: d.update(count=d["count"] + 1),
            lambda d: d["cone"].update(dim_x=0),
            lambda d: d.update(equidimensional=not d["equidimensional"]),
        ):
            bad = json.loads(out)
            mutate(bad)
            assert checks.check_cli_classify_json(ORACLE, q, json.dumps(bad)), doc
        assert checks.check_cli_classify_json(ORACLE, q, out[:-20])
        tsv = cli_stdout(workloads.classify_args(q, lam, "tsv"))
        assert checks.check_cli_classify_tsv(ORACLE, q, tsv) == []
        lines = tsv.splitlines()
        assert checks.check_cli_classify_tsv(ORACLE, q, "\n".join(lines[:-1]))
        assert checks.check_cli_classify_tsv(ORACLE, q, "\n".join(lines[:1] + lines[2:] + lines[1:2]))
        row = lines[1].split("\t")
        row[-1] = str(int(row[-1]) + 1)
        assert checks.check_cli_classify_tsv(ORACLE, q, "\n".join(lines[:1] + ["\t".join(row)] + lines[2:]))


def test_cli_text_commands():
    for call in workloads.catalog_sweep(1).cli:
        out = cli_stdout(call.args)
        if call.kind == "gp":
            check = lambda text: checks.check_cli_gp(ORACLE, call.query.type_text, call.query.nodes, text)  # noqa: E731
            corrupt = [bump(out, "chern "), bump(out, "dim_gp "), bump(out, "kappa ")]
        elif call.kind == "ne":
            check = lambda text: checks.check_cli_ne(ORACLE, call.query, text)  # noqa: E731
            corrupt = [bump(out, "count "), bump(out, "ne ")] + drop_and_swap(out, "ne ")
        else:
            check = lambda text: checks.check_cli_affine(ORACLE, call.query, text)  # noqa: E731
            corrupt = [bump(out, "factor "), bump(out, "degree "), out.replace("ne=", "ne=1"),
                       out.replace("MATCH", "MISMATCH") if "MISMATCH" not in out else out.replace("MISMATCH", "MATCH")]
        assert check(out) == [], out
        for bad in corrupt:
            assert check(bad), bad


# ---- harness ------------------------------------------------------------


def test_reference_computation_is_unchanged():
    assert worker.reference_computation() == worker.REF_VALUE


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES) == list(run.WORKLOADS)
    assert set(worker.END_TO_END) == set(run.END_TO_END_UNITS)


def test_catalog_shape_and_seed():
    wl = workloads.catalog_sweep(1)
    assert len(wl.queries) == 2784
    assert len({(q.type_text, q.nodes) for q in wl.queries}) == 116
    assert sorted(wl.queries, key=repr) == sorted(workloads.catalog_sweep(2).queries, key=repr)
    assert wl.queries != workloads.catalog_sweep(2).queries


def test_tracing_wraps_imported_names_and_undoes():
    original = components.e_intersection
    tr = tracing.Tracer()
    undo = tracing.install(tr, conecurves)
    try:
        assert components.e_intersection is not original
        assert conegeom.e_intersection is components.e_intersection
        with tr.span("pass.classify"):
            rep = components.classify(cone_of(FLAG), FLAG.degree)
    finally:
        undo()
    assert components.e_intersection is original
    m = tracing.layer_metrics(tr, len(rep.components))
    assert m["components.ne_calls"] == 1 and m["components.ne_classes"] == len(rep.components)
    assert m["conegeom.calls"] > 0 and m["conegeom.calls_per_component"] == m["conegeom.calls"] / len(rep.components)
