"""Built-in oracle suites: independent recomputations of the library's promises.

Each oracle check recomputes a result by a route that shares no code
with the implementation it checks (closed-form count tables, naive box
scans, a toric count of binary forms, hand-counted moduli dimensions)
and records every disagreement.  The one exception is labelled where it
runs: half of lines-dichotomy's checks restate has_lines through
conegeom.lemma_equiv_check and cannot disagree with it.  The CLI
`selfcheck` command runs all suites and prints their results as text,
or with --json through to_json.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations, product
from time import perf_counter

from . import affine, components, conegeom, parabolic, rootsys
from .errors import InputError, InternalError

# Closed-form positive root counts per type (classical tables).
_POS_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

# Dual Coxeter numbers per type.
_DUAL_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 9,
    "G": lambda n: 4,
}


def all_types(max_rank: int) -> list[rootsys.CartanType]:
    return [
        rootsys.CartanType(s, r)
        for s in rootsys.SERIES
        for r in range(rootsys._MIN_RANK[s], min(max_rank, rootsys._MAX_RANK[s]) + 1)
    ]


def _nonempty_subsets(rank: int):
    for size in range(1, rank + 1):
        yield from combinations(range(1, rank + 1), size)


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, where: object, checks: Iterator[str | bool]) -> None:
        """Run one input's checks, counting each that `checks` yields.

        A check yields False when it passes and its failure text when it
        fails; the text is kept as "where: text".  An InputError or
        InternalError raised by the code under check counts as one failed
        check carrying the exception, and the input's remaining checks are
        skipped.  Any other exception propagates, and run_all reports the
        suite as aborted.
        """
        try:
            for failure in checks:
                self.checks += 1
                if failure:
                    self.failures.append(f"{where}: {failure}")
        except (InputError, InternalError) as exc:
            self.checks += 1
            self.failures.append(f"{where}: {exc!r}")


def _suite_root_counts(res: SuiteResult) -> None:
    """Positive-root counts, rho pairings and comark sums against the tables."""

    def checks(ctype):
        rs = rootsys.build_root_system(ctype)
        count, want = len(rs.positive_roots), _POS_COUNT[ctype.series](ctype.rank)
        yield count != want and f"{count} positive roots, table says {want}"
        # 2*rho is the sum of the positive roots: each coroot pairing must be 2.
        totals = [sum(rootsys.pair(rs, i, g) for g in rs.positive_roots) for i in range(1, rs.rank + 1)]
        yield set(totals) != {2} and f"positive roots pair to {totals} at nodes 1..{rs.rank}, not all 2"
        csum, hv = sum(affine.comarks(ctype).comarks), _DUAL_COXETER[ctype.series](ctype.rank)
        yield csum != hv and f"comark sum {csum}, dual Coxeter number is {hv}"

    for ctype in all_types(8):
        res.record(ctype, checks(ctype))


def _suite_lines_dichotomy(res: SuiteResult) -> None:
    """Lines iff a degree-1 class exists, plus a restatement of has_lines.

    The oracle half compares has_lines with count_solutions(ell, 1) > 0,
    the generating function's count of degree-1 classes.  The other half,
    conegeom.lemma_equiv_check, restates has_lines (min(ell) == 1 against
    all(ell >= 2)) and is kept as a smoke test, not counted as an oracle.
    """

    def checks(cone):
        yield not conegeom.lemma_equiv_check(cone) and "dichotomy equivalence failed"
        counted = components.count_solutions(cone.ell, 1) > 0
        yield conegeom.has_lines(cone) != counted and "has_lines disagrees with the degree-1 count"

    for ctype in all_types(3):
        rs = rootsys.build_root_system(ctype)
        for subset in _nonempty_subsets(rs.rank):
            p = parabolic.build_parabolic(rs, subset)
            for ell in product(range(1, 5), repeat=len(subset)):
                res.record(f"{ctype} {subset} ell={ell}", checks(conegeom.cone_from_ell(p, ell, 1)))


def _toric_dimension(m: int, ell: int, n: int, a: int, e: int) -> int | None:
    """Dimension of the maps P^1 -> P(O^n + O(ell)) over P^m in class (a, e), or None if there are none.

    a is the base degree and e the degree on the exceptional divisor E.
    The resolution is a smooth toric variety of Picard rank 2, and a map
    is a tuple of binary forms modulo (C*)^2 (Cox, "The functor of a
    smooth toric variety", 1995): m + 1 forms of degree a, n of degree
    x = ell*a + e, and one of degree e that cuts out E.  When e < 0 that
    form vanishes and the map lies in E = P^m x P^(n-1), which needs
    x >= 0, and x = 0 when n = 1.
    """
    x = ell * a + e
    if e >= 0:
        return (m + 1) * (a + 1) + n * (x + 1) + e - 1
    if x < 0 or (n == 1 and x):
        return None
    return (m + 1) * (a + 1) + n * (x + 1) - 2


def _suite_dimension_cross_check(res: SuiteResult) -> None:
    """Classes on the resolution of cones over P^m against the toric count of binary forms.

    On A_m node 1 (m <= 4, ell <= 3, n <= 3): lift's nonemptiness and both
    of its dimension routes for base degree a <= 4 and every E-degree
    from -ell*a - 2 to 3, and every component iter_rows lists at degrees
    0-6, vertex strata included, whose E-degree is its multiplicity.  At
    each degree, two more checks: the number of rows against
    count_components, and classify's records against the rows.  The
    dimensions are read from the rows, so they are checked even when
    classify raises on a wrong count.
    """

    def lift_check(cone, m, a, e):
        ell, n = cone.ell[0], cone.vertex_dim
        want = _toric_dimension(m, ell, n, a, e)
        lf = conegeom.lift(cone, (a,), (n + 1) * e + n * ell * a)
        got = (lf.nonempty, lf.dim_branch, lf.dim_base_fiber)
        yield got != (want is not None, want, want) and f"lift {lf}, toric count {want}"

    def component_checks(cone, m, degree):
        # One marked node: a row is (a, alpha_prime, multiplicity, relative degree, e, dimension).
        rows = list(components.iter_rows(cone, degree))
        for row in rows:
            a, _, mult, _, _, dim = row
            want = _toric_dimension(m, cone.ell[0], cone.vertex_dim, a, mult)
            yield dim != want and f"row {row}, toric count {want}"
        count = components.count_components(cone, degree)
        yield len(rows) != count and f"iter_rows lists {len(rows)}, count_components says {count}"
        # A record holds its row, with the class once more in its lift.
        listed = [
            (c.beta.coeffs, c.alpha_prime, c.vertex_multiplicity, c.tilde.beta, c.tilde.relative_degree, c.dimension)
            for c in components.classify(cone, degree).components
        ]
        from_rows = [((a,), ap, mult, (a,), rel, dim) for a, ap, mult, rel, _, dim in rows]
        yield listed != from_rows and f"classify lists {listed}, iter_rows lists {from_rows}"

    for m in range(1, 5):
        p = parabolic.build_parabolic(rootsys.build_root_system(rootsys.CartanType("A", m)), (1,))
        for ell, n in product(range(1, 4), repeat=2):
            cone = conegeom.cone_from_ell(p, (ell,), n)
            for a in range(5):
                for e in range(-ell * a - 2, 4):
                    res.record(f"P^{m} ell={ell} n={n} a={a} e={e}", lift_check(cone, m, a, e))
            for degree in range(7):
                res.record(f"P^{m} ell={ell} n={n} degree {degree}", component_checks(cone, m, degree))


def _box_scan(ell: tuple[int, ...], degree: int) -> list[tuple[int, ...]]:
    """Naive oracle: scan the integer box and keep exact-degree vectors."""
    boxes = [range(degree // l + 1) for l in ell]
    sols = [v for v in product(*boxes) if sum(a * b for a, b in zip(v, ell)) == degree]
    return sorted(sols, key=lambda v: (sum(v), tuple(-c for c in v)))


def _suite_ne_enumeration(res: SuiteResult) -> None:
    """ne equals the box-scan oracle as ordered lists; the counts equal the listed sizes."""

    def checks(cone, degree):
        got, want = [b.coeffs for b in components.ne(cone, degree)], _box_scan(cone.ell, degree)
        yield got != want and f"{got} != {want}"
        count = components.count_solutions(cone.ell, degree)
        yield len(got) != count and f"ne lists {len(got)}, count_solutions says {count}"
        listed = len(components.classify(cone, degree).components)
        count = components.count_components(cone, degree)
        yield listed != count and f"classify lists {listed}, count_components says {count}"

    for k in (1, 2, 3):
        p = parabolic.build_parabolic(rootsys.build_root_system(rootsys.CartanType("A", k)), tuple(range(1, k + 1)))
        for ell in product(range(1, 5), repeat=k):
            cone = conegeom.cone_from_ell(p, ell, 1)
            for degree in range(11):
                res.record(f"ell={ell} degree={degree}", checks(cone, degree))


def _suite_classical_oracles(res: SuiteResult) -> None:
    """Hand-counted moduli dimensions and Fano indices of familiar spaces."""
    p1 = parabolic.build_parabolic(rootsys.build_root_system(rootsys.CartanType("A", 1)), (1,))

    def classified(lam, d, want):
        rep = components.classify(conegeom.build_cone(p1, lam, 1), d)
        facts = sorted((c.beta.coeffs, c.vertex_multiplicity, c.dimension) for c in rep.components)
        yield (facts != want or not rep.equidimensional) and f"{facts} equidim={rep.equidimensional}"

    def fano(ctype, alpha_p, chern, dim):
        p = parabolic.build_parabolic(rootsys.build_root_system(ctype), alpha_p)
        yield (p.chern_degrees, p.dim_gp) != (chern, dim) and f"c={p.chern_degrees} dim={p.dim_gp}"

    # Cone over a line is the projective plane; maps of degree d form one
    # component of dimension 3d + 2.
    for d in range(7):
        res.record(f"plane cone degree {d}", classified((1,), d, [((d,), 0, 3 * d + 2)]))
    # Cone over a conic: two components at degree 2, both of dimension 6.
    res.record("quadric cone", classified((2,), 2, [((0,), 2, 6), ((1,), 0, 6)]))
    # Projective spaces: anticanonical degree on a line is n + 1.
    for n in range(1, 7):
        res.record(f"projective space A{n}", fano(rootsys.CartanType("A", n), (1,), (n + 1,), n))
    # The Grassmannian of planes in 4-space has index 4 and dimension 4.
    res.record("Gr(2,4)", fano(rootsys.CartanType("A", 3), (2,), (4,), 4))
    # Full flag varieties: every anticanonical degree is 2, and the dimension
    # is the number of positive roots.
    for ctype in all_types(4):
        full, count = tuple(range(1, ctype.rank + 1)), _POS_COUNT[ctype.series](ctype.rank)
        res.record(f"{ctype} full flag", fano(ctype, full, (2,) * ctype.rank, count))


_SUITES = (
    _suite_root_counts,
    _suite_lines_dichotomy,
    _suite_dimension_cross_check,
    _suite_ne_enumeration,
    _suite_classical_oracles,
)


# How many of a suite's failures each form of the report shows.
SHOWN_FAILURES = 5


def run_all() -> list[SuiteResult]:
    results = []
    for fn in _SUITES:
        res = SuiteResult(fn.__name__.removeprefix("_suite_").replace("_", "-"))
        start = perf_counter()
        try:
            fn(res)
        except Exception as exc:  # a crashed suite is a failed suite
            res.failures.append(f"aborted: {exc!r}")
        res.seconds = perf_counter() - start
        results.append(res)
    return results


def to_json(results: list[SuiteResult]) -> str:
    """The results as one JSON object, for `selfcheck --json`.

    "pass" says whether every suite passed; "suites" gives each suite's
    name, checks, failed (the number of failures), failures (the first
    SHOWN_FAILURES of them) and seconds.
    """
    suites = [
        {
            "name": r.name,
            "checks": r.checks,
            "failed": len(r.failures),
            "failures": r.failures[:SHOWN_FAILURES],
            "seconds": r.seconds,
        }
        for r in results
    ]
    return json.dumps({"pass": all(r.ok for r in results), "suites": suites}, indent=2)
