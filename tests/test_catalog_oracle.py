"""Every admitted type against the benchmark's independent oracle.

bench/checks.py derives Chern degrees, dim G/P, index sets and component
values without calling the library.  This sweep runs it over the whole
type catalogue, ranks 9 to 21 included: seeded random cones on every
type, and the full flag of the largest classical types.  The seeds are
fixed here, so a failure names a reproducible query.

The sweep is sized to run in about 3 s: degrees are lowered until a
cone has at most MAX_COMPONENTS components, and the TSV writer, whose
rows are the JSON writer's, is run on the first cone of each type and on
the full flags only.  Most of the time goes to the in-process CLI runs
and to the oracle's Levi solves and box scans.
"""

import contextlib
import io
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from checks import Query  # noqa: E402

from conecurves import (  # noqa: E402
    CartanType,
    build_cone,
    build_parabolic,
    build_root_system,
    classify,
    count_components,
    ne,
)
from conecurves.cli import main  # noqa: E402

# The admitted types, written out here rather than read from the library.
TYPES = (
    [f"A{r}" for r in range(1, 22)]
    + [f"B{r}" for r in range(2, 16)]
    + [f"C{r}" for r in range(2, 16)]
    + [f"D{r}" for r in range(3, 17)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
SEED = 20040601
CONES_PER_TYPE = 3
MAX_COMPONENTS = 500
# Deterministic stand-ins for the time budget: the sweep's size.
MAX_QUERIES = 220
MAX_TOTAL_COMPONENTS = 1000


def _rank(type_text):
    return int(type_text[1:])


def _lowered(q, oracle):
    """q at the largest degree not above its own with at most MAX_COMPONENTS components."""
    while q.degree and oracle.component_count(q) > MAX_COMPONENTS:
        q = replace(q, degree=q.degree - 1)
    return q


def sweep_queries(oracle):
    """(query, with TSV) pairs: up to CONES_PER_TYPE seeded random cones per type, with ell in
    [1, 3], n in [1, 3] and at most 4 marked nodes, then the full flags of A21, B15, C15, D16."""
    rng = random.Random(SEED)
    queries = {}
    for t in TYPES:
        r = _rank(t)
        for i in range(CONES_PER_TYPE):
            nodes = tuple(sorted(rng.sample(range(1, r + 1), rng.randint(1, min(4, r)))))
            ell = [rng.randint(1, 3) for _ in nodes]
            lam = tuple(ell[nodes.index(j)] if j in nodes else 0 for j in range(1, r + 1))
            q = _lowered(Query(t, nodes, lam, rng.randint(1, 3), rng.randint(0, 5)), oracle)
            queries.setdefault(q, i == 0)  # a repeated draw is checked once
    for t in ("A21", "B15", "C15", "D16"):
        flag = tuple(range(1, _rank(t) + 1))
        # Small degrees keep the oracle's box scans over 15 to 21 coordinates short; each
        # unit vector in ne(1) or ne(2) is a component whose dimension takes one Chern degree.
        queries[Query(t, flag, (1,) * len(flag), 1, 1)] = True  # lines
        queries[Query(t, flag, (2,) * len(flag), 2, 2)] = True  # no lines
    return list(queries.items())


def _text(v):
    return ",".join(map(str, v))


def cli_stdout(q, fmt):
    argv = ["classify", "--type", q.type_text, "--parabolic", _text(q.nodes), "--lambda", _text(q.lam),
            "--vertex-dim", str(q.n), "--degree", str(q.degree), "--format", fmt]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0, argv
    return buf.getvalue()


class Library:
    """Cones built through the public API, each root system built once."""

    def __init__(self):
        self.systems = {}

    def cone(self, q):
        if q.type_text not in self.systems:
            self.systems[q.type_text] = build_root_system(CartanType.parse(q.type_text))
        return build_cone(build_parabolic(self.systems[q.type_text], q.nodes), q.lam, q.n)


def problems_of(oracle, library, q, tsv):
    cone = library.cone(q)
    bad = checks.check_cone(oracle, q, cone)
    bad += checks.check_report(oracle, q, classify(cone, q.degree))
    bad += checks.check_cli_classify_json(oracle, q, cli_stdout(q, "json"))
    if tsv:
        bad += checks.check_cli_classify_tsv(oracle, q, cli_stdout(q, "tsv"))
    bad += checks.check_ne(oracle, q.ell, q.degree, ne(cone, q.degree))
    bad += checks.check_count(oracle, q, count_components(cone, q.degree))
    return [f"{q}: {p}" for p in bad]


def test_every_admitted_type_agrees_with_the_oracle():
    assert len(TYPES) == 68
    oracle, library = checks.Oracle(), Library()
    queries = sweep_queries(oracle)
    assert {q.type_text for q, tsv in queries if tsv} == {q.type_text for q, _ in queries} == set(TYPES)
    assert sum(_rank(q.type_text) >= 9 for q, _ in queries) >= 100
    assert len(queries) <= MAX_QUERIES
    assert sum(oracle.component_count(q) for q, _ in queries) <= MAX_TOTAL_COMPONENTS
    problems = [p for q, tsv in queries for p in problems_of(oracle, library, q, tsv)]
    assert problems == []


# ---- the checks can fail ---------------------------------------------------

A21_FLAG = Query("A21", tuple(range(1, 22)), (1,) * 21, 1, 1)
D16_NODES = Query("D16", (2, 9, 15), (0, 1, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 2, 0), 2, 3)


@pytest.mark.parametrize("q", [A21_FLAG, D16_NODES], ids=["A21-flag", "D16-three-nodes"])
def test_a_raised_chern_degree_is_caught(q):
    oracle, cone = checks.Oracle(), Library().cone(q)
    assert checks.check_cone(oracle, q, cone) == []
    assert checks.check_report(oracle, q, classify(cone, q.degree)) == []
    p = cone.parabolic
    raised = replace(p, chern_degrees=(p.chern_degrees[0] + 1, *p.chern_degrees[1:]))
    bad = build_cone(raised, q.lam, q.n)
    assert checks.check_cone(oracle, q, bad)
    assert checks.check_report(oracle, q, classify(bad, q.degree))


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_two_swapped_rows_are_caught(fmt):
    q, oracle = D16_NODES, checks.Oracle()
    out = cli_stdout(q, fmt)
    check = checks.check_cli_classify_json if fmt == "json" else checks.check_cli_classify_tsv
    assert check(oracle, q, out) == []
    if fmt == "json":
        doc = json.loads(out)
        rows = doc["components"]
        rows[1], rows[2] = rows[2], rows[1]
        swapped = json.dumps(doc, indent=2) + "\n"
    else:
        head, first, second, *rest = out.splitlines(keepends=True)
        swapped = "".join([head, second, first, *rest])
    assert swapped != out
    assert check(oracle, q, swapped)


def test_swapped_components_in_a_report_are_caught():
    q, oracle = A21_FLAG, checks.Oracle()
    report = classify(Library().cone(q), q.degree)
    rows = list(report.components)
    rows[0], rows[-1] = rows[-1], rows[0]
    assert checks.check_report(oracle, q, replace(report, components=tuple(rows)))
