"""Built-in oracle suites: independent recomputations of the library's promises.

Each oracle check recomputes a result by a route that shares no code
with the implementation it checks (closed-form count tables, naive box
scans, a toric count of binary forms, hand-counted moduli dimensions)
and records every disagreement.  The one exception is labelled where it
runs: half of lines-dichotomy's checks restate has_lines through
conegeom.lemma_equiv_check and cannot disagree with it.  The CLI
`selfcheck` command runs all suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from . import affine, components, conegeom, parabolic, rootsys

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

    @property
    def ok(self) -> bool:
        return not self.failures


def _suite_root_counts(res: SuiteResult) -> None:
    """Positive-root counts, rho pairings and comark sums against the tables."""
    for ctype in all_types(8):
        rs = rootsys.build_root_system(ctype)
        res.checks += 1
        expect = _POS_COUNT[ctype.series](ctype.rank)
        if len(rs.positive_roots) != expect:
            res.failures.append(f"{ctype}: {len(rs.positive_roots)} positive roots, table says {expect}")
        res.checks += 1
        # 2*rho is the sum of the positive roots: each coroot pairing must be 2.
        for i in range(1, rs.rank + 1):
            total = sum(rootsys.pair(rs, i, g) for g in rs.positive_roots)
            if total != 2:
                res.failures.append(f"{ctype}: positive roots pair to {total} != 2 at node {i}")
        res.checks += 1
        hv = _DUAL_COXETER[ctype.series](ctype.rank)
        csum = sum(affine.comarks(ctype).comarks)
        if csum != hv:
            res.failures.append(f"{ctype}: comark sum {csum}, dual Coxeter number is {hv}")


def _suite_lines_dichotomy(res: SuiteResult) -> None:
    """Lines iff a degree-1 class exists, plus a restatement of has_lines.

    The oracle half compares has_lines with count_solutions(ell, 1) > 0,
    the generating function's count of degree-1 classes.  The other half,
    conegeom.lemma_equiv_check, restates has_lines (min(ell) == 1 against
    all(ell >= 2)) and is kept as a smoke test, not counted as an oracle.
    """
    for ctype in all_types(3):
        rs = rootsys.build_root_system(ctype)
        for subset in _nonempty_subsets(rs.rank):
            p = parabolic.build_parabolic(rs, subset)
            for ell in product(range(1, 5), repeat=len(subset)):
                cone = conegeom.cone_from_ell(p, ell, 1)
                res.checks += 1
                if not conegeom.lemma_equiv_check(cone):
                    res.failures.append(f"{ctype} {subset} ell={ell}: dichotomy equivalence failed")
                res.checks += 1
                if conegeom.has_lines(cone) != (components.count_solutions(cone.ell, 1) > 0):
                    res.failures.append(f"{ctype} {subset} ell={ell}: has_lines disagrees with the degree-1 count")


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
    from -ell*a - 2 to 3, and every component classify lists at degrees
    0-6, vertex strata included, whose E-degree is its multiplicity.
    """
    for m in range(1, 5):
        p = parabolic.build_parabolic(rootsys.build_root_system(rootsys.CartanType("A", m)), (1,))
        for ell, n in product(range(1, 4), repeat=2):
            cone = conegeom.cone_from_ell(p, (ell,), n)
            for a in range(5):
                for e in range(-ell * a - 2, 4):
                    res.checks += 1
                    want = _toric_dimension(m, ell, n, a, e)
                    lf = conegeom.lift(cone, (a,), (n + 1) * e + n * ell * a)
                    if (lf.nonempty, lf.dim_branch, lf.dim_base_fiber) != (want is not None, want, want):
                        res.failures.append(f"P^{m} ell={ell} n={n} a={a} e={e}: lift {lf}, toric count {want}")
            for degree in range(7):
                for c in components.classify(cone, degree).components:
                    res.checks += 1
                    want = _toric_dimension(m, ell, n, c.beta.coeffs[0], c.vertex_multiplicity)
                    if c.dimension != want:
                        res.failures.append(f"P^{m} ell={ell} n={n} degree {degree}: {c}, toric count {want}")


def _box_scan(ell: tuple[int, ...], degree: int) -> list[tuple[int, ...]]:
    """Naive oracle: scan the integer box and keep exact-degree vectors."""
    boxes = [range(degree // l + 1) for l in ell]
    sols = [v for v in product(*boxes) if sum(a * b for a, b in zip(v, ell)) == degree]
    return sorted(sols, key=lambda v: (sum(v), tuple(-c for c in v)))


def _suite_ne_enumeration(res: SuiteResult) -> None:
    """ne equals the box-scan oracle as ordered lists; the counts equal the listed sizes."""
    bases = {
        1: parabolic.build_parabolic(rootsys.build_root_system(rootsys.CartanType("A", 1)), (1,)),
        2: parabolic.build_parabolic(rootsys.build_root_system(rootsys.CartanType("A", 2)), (1, 2)),
        3: parabolic.build_parabolic(rootsys.build_root_system(rootsys.CartanType("A", 3)), (1, 2, 3)),
    }
    for k in (1, 2, 3):
        for ell in product(range(1, 5), repeat=k):
            for degree in range(11):
                cone = conegeom.cone_from_ell(bases[k], ell, 1)
                res.checks += 1
                got = [b.coeffs for b in components.ne(cone, degree)]
                want = _box_scan(ell, degree)
                if got != want:
                    res.failures.append(f"ell={ell} degree={degree}: {got} != {want}")
                res.checks += 1
                count = components.count_solutions(ell, degree)
                if len(got) != count:
                    res.failures.append(f"ell={ell} degree={degree}: ne lists {len(got)}, count_solutions says {count}")
                res.checks += 1
                listed = len(components.classify(cone, degree).components)
                count = components.count_components(cone, degree)
                if listed != count:
                    res.failures.append(f"ell={ell} degree={degree}: classify lists {listed}, count_components says {count}")


def _suite_classical_oracles(res: SuiteResult) -> None:
    """Hand-counted moduli dimensions and Fano indices of familiar spaces."""
    a1 = rootsys.build_root_system(rootsys.CartanType("A", 1))
    p1 = parabolic.build_parabolic(a1, (1,))

    # Cone over a line is the projective plane; maps of degree d form one
    # component of dimension 3d + 2.
    plane = conegeom.build_cone(p1, (1,), 1)
    for d in range(7):
        res.checks += 1
        rep = components.classify(plane, d)
        if len(rep.components) != 1 or rep.components[0].dimension != 3 * d + 2:
            res.failures.append(f"plane cone degree {d}: {rep.components}")

    # Cone over a conic: two components at degree 2, both of dimension 6.
    res.checks += 1
    quad = components.classify(conegeom.build_cone(p1, (2,), 1), 2)
    facts = sorted((c.beta.coeffs, c.vertex_multiplicity, c.dimension) for c in quad.components)
    if facts != [((0,), 2, 6), ((1,), 0, 6)] or not quad.equidimensional:
        res.failures.append(f"quadric cone: {facts} equidim={quad.equidimensional}")

    # Projective spaces: anticanonical degree on a line is n + 1.
    for n in range(1, 7):
        res.checks += 1
        rs = rootsys.build_root_system(rootsys.CartanType("A", n))
        p = parabolic.build_parabolic(rs, (1,))
        if p.chern_degrees != (n + 1,) or p.dim_gp != n:
            res.failures.append(f"projective space A{n}: c={p.chern_degrees} dim={p.dim_gp}")

    # The Grassmannian of planes in 4-space has index 4 and dimension 4.
    res.checks += 1
    gr = parabolic.build_parabolic(rootsys.build_root_system(rootsys.CartanType("A", 3)), (2,))
    if gr.chern_degrees != (4,) or gr.dim_gp != 4:
        res.failures.append(f"Gr(2,4): c={gr.chern_degrees} dim={gr.dim_gp}")

    # Full flag varieties: every anticanonical degree is 2.
    for ctype in all_types(4):
        res.checks += 1
        rs = rootsys.build_root_system(ctype)
        p = parabolic.build_parabolic(rs, tuple(range(1, rs.rank + 1)))
        if any(c != 2 for c in p.chern_degrees):
            res.failures.append(f"{ctype} full flag: c={p.chern_degrees}")


_SUITES = (
    _suite_root_counts,
    _suite_lines_dichotomy,
    _suite_dimension_cross_check,
    _suite_ne_enumeration,
    _suite_classical_oracles,
)


def run_all() -> list[SuiteResult]:
    results = []
    for fn in _SUITES:
        res = SuiteResult(fn.__name__.removeprefix("_suite_").replace("_", "-"))
        try:
            fn(res)
        except Exception as exc:  # a crashed suite is a failed suite
            res.failures.append(f"aborted: {exc!r}")
        results.append(res)
    return results
