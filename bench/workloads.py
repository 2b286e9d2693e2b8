"""The three benchmark workloads: their queries and command-line invocations.

Each workload is built from its name and a seed.  Only catalog-sweep
uses the seed (it shuffles the query order); the other two have no
randomness.  README.md gives the reasons for each choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from checks import Query

NAMES = ("flag-lines", "deep-strata", "catalog-sweep")

E8_FLAG = tuple(range(1, 9))


@dataclass(frozen=True)
class CliCall:
    """One command-line invocation; `kind` names the check its stdout gets."""

    kind: str  # classify-json | classify-tsv | gp | ne | affine-compare
    query: Query
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    queries: tuple[Query, ...]
    cli: tuple[CliCall, ...]

    def cone_keys(self) -> list:
        """Every cone the workload builds, in first-use order: each query's
        cone, then its diagram's cone with the minimal ample weight."""
        keys = {}
        for q in self.queries:
            keys.setdefault(q.cone_key, None)
            keys.setdefault(minimal(q).cone_key, None)
        return list(keys)


def minimal(q: Query) -> Query:
    """The query on the same diagram and degree with the minimal ample weight and n = 1."""
    lam = tuple(1 if i in q.nodes else 0 for i in range(1, len(q.lam) + 1))
    return Query(q.type_text, q.nodes, lam, 1, q.degree)


def _fmt(v) -> str:
    return ",".join(map(str, v))


def classify_args(q: Query, lam_text: str, fmt: str) -> tuple[str, ...]:
    return (
        "classify", "--type", q.type_text, "--parabolic", _fmt(q.nodes), "--lambda", lam_text,
        "--vertex-dim", str(q.n), "--degree", str(q.degree), "--format", fmt,
    )


def flag_lines() -> Workload:
    queries = tuple(
        Query("E8", E8_FLAG, (1,) * 8, 1, d, closed_count=comb(d + 7, 7), closed_dim=3 * d + 121)
        for d in (6, 8)
    )
    q8 = queries[1]
    return Workload("flag-lines", queries, (CliCall("classify-json", q8, classify_args(q8, "min", "json")),))


def deep_strata() -> Workload:
    conic = Query("A1", (1,), (2,), 3, 1500, closed_count=1500 // 2 + 1, closed_dim=4 * 1500 + 4)
    e8 = Query("E8", E8_FLAG, (2,) * 8, 2, 12, closed_count=comb(14, 8), closed_dim=158)
    return Workload("deep-strata", (conic, e8), (CliCall("classify-tsv", conic, classify_args(conic, "2", "tsv")),))


CATALOG_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "G2", "F4")


def catalog_sweep(seed: int) -> Workload:
    queries = []
    for t in CATALOG_TYPES:
        rank = int(t[1:])
        for size in range(1, rank + 1):
            for nodes in combinations(range(1, rank + 1), size):
                for scale in (1, 2):
                    lam = tuple(scale if i in nodes else 0 for i in range(1, rank + 1))
                    for n in (1, 2):
                        for d in range(6):
                            queries.append(Query(t, nodes, lam, n, d))
    random.Random(seed).shuffle(queries)
    gp = Query("F4", (2, 3), (0, 1, 1, 0), 1, 0)
    ne = Query("B4", (1, 2, 3, 4), (1, 1, 1, 1), 1, 5)
    f4 = Query("F4", (1, 2, 3, 4), (1, 1, 1, 1), 1, 6)
    cli = (
        CliCall("gp", gp, ("gp", "--type", "F4", "--parabolic", "2,3")),
        CliCall("ne", ne, ("ne", "--type", "B4", "--parabolic", "1,2,3,4", "--lambda", "min",
                           "--vertex-dim", "1", "--degree", "5")),
        CliCall("affine-compare", f4, ("affine-compare", "--type", "F4", "--degree", "6")),
    )
    return Workload("catalog-sweep", tuple(queries), cli)


def build(name: str, seed: int) -> Workload:
    if name == "flag-lines":
        return flag_lines()
    if name == "deep-strata":
        return deep_strata()
    if name == "catalog-sweep":
        return catalog_sweep(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
