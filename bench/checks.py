"""Independent oracles for every output the benchmark measures.

Nothing here calls into `conecurves`; every expected value is derived
from closed forms, published tables or naive scans written in this
file, so a check can disagree with the library.  Each check returns a
list of problems (empty when the output is right); the benchmark counts
an operation as failed when its check returns any problem.

* Cartan matrices are rebuilt from the Bourbaki diagrams.
* Component counts come from the coefficients of prod 1/(1 - t^l_i).
* Index sets come from a meet-in-the-middle box scan ordered by KEY,
  strata by descending d'.
* Anticanonical degrees and dim G/P come from the Levi subsystem:
  c_i = 2 - <alpha_i^vee, 2 rho_L> and dim G/P = |Phi+| - |Phi+_L|.
* Affine comarks come from Kac, *Infinite-dimensional Lie algebras*,
  Table Aff 1, looked up by the type of each marked subdiagram.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

# Order of integer vectors: ascending coordinate sum, then larger leading
# coordinates first.
KEY = lambda v: (sum(v), [-c for c in v])  # noqa: E731

# Number of positive roots per type.
_POSITIVE = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}

# Comarks (dual Kac labels) of the untwisted affine algebras, affine node
# first, simple nodes in Bourbaki order (Kac, Table Aff 1).
_COMARKS = {
    "A": lambda r: [1] * (r + 1),
    "B": lambda r: [1, 1, 1] if r == 2 else [1, 1] + [2] * (r - 2) + [1],
    "C": lambda r: [1] * (r + 1),
    "D": lambda r: [1, 1] + [2] * (r - 3) + [1, 1],
    "E": lambda r: {
        6: [1, 1, 2, 2, 3, 2, 1],
        7: [1, 2, 2, 3, 4, 3, 2, 1],
        8: [1, 2, 3, 4, 6, 5, 4, 3, 2],
    }[r],
    "F": lambda r: [1, 2, 3, 2, 1],
    "G": lambda r: [1, 1, 2],
}


def parse_type(text: str) -> tuple[str, int]:
    return text[0].upper(), int(text[1:])


def cartan(series: str, r: int) -> list[list[int]]:
    """C[i][j] = <alpha_i^vee, alpha_j>, 0-based, Bourbaki numbering."""
    C = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def bond(i, j, cij=-1, cji=-1):
        C[i - 1][j - 1], C[j - 1][i - 1] = cij, cji

    chain = {"A": r, "B": r - 1, "C": r - 1, "D": r - 1, "F": 2, "G": 1}.get(series, 0)
    for i in range(1, chain):
        bond(i, i + 1)
    if series == "B":
        bond(r - 1, r, -1, -2)  # alpha_r short
    elif series == "C":
        bond(r - 1, r, -2, -1)  # alpha_r long
    elif series == "D":
        bond(r - 2, r)
    elif series == "E":
        for i, j in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)):
            if j <= r:
                bond(i, j)
    elif series == "F":
        bond(2, 3, -1, -2)  # alpha_3, alpha_4 short
        bond(3, 4)
    elif series == "G":
        bond(1, 2, -3, -1)  # alpha_1 short
    return C


def connected_parts(C, nodes) -> list[tuple[int, ...]]:
    """Connected components (1-based labels, sorted) of the subdiagram on `nodes`."""
    left = set(nodes)
    parts = []
    while left:
        stack = [min(left)]
        part = set(stack)
        while stack:
            i = stack.pop()
            for j in left - part:
                if C[i - 1][j - 1]:
                    part.add(j)
                    stack.append(j)
        left -= part
        parts.append(tuple(sorted(part)))
    return sorted(parts)


def subdiagram_type(C, nodes) -> tuple[str, int]:
    """Series and rank of a connected subdiagram, read off its shape."""
    nodes = list(nodes)
    r = len(nodes)
    nbrs = {i: [j for j in nodes if j != i and C[i - 1][j - 1]] for i in nodes}
    bonds = {(i, j): C[i - 1][j - 1] * C[j - 1][i - 1] for i in nodes for j in nbrs[i]}
    if 3 in bonds.values():
        return "G", 2
    if 2 in bonds.values():
        if r == 2:
            return "B", 2
        ends = [(i, j) for (i, j), m in bonds.items() if m == 2 and len(nbrs[j]) == 1]
        if not ends:
            return "F", 4
        i, j = ends[0]
        # The end node j is short exactly when <alpha_j^vee, alpha_i> = -2.
        return ("B" if C[j - 1][i - 1] == -2 else "C"), r
    branch = [i for i in nodes if len(nbrs[i]) == 3]
    if not branch:
        return "A", r
    b = branch[0]
    legs = []
    for start in nbrs[b]:
        prev, cur, length = b, start, 1
        while len(nbrs[cur]) == 2:
            prev, cur = cur, next(k for k in nbrs[cur] if k != prev)
            length += 1
        legs.append(length)
    legs.sort()
    if legs[:2] == [1, 1]:
        return "D", r
    return "E", r


def series_counts(weights, top: int) -> list[int]:
    """Coefficients of t^0..t^top in prod 1/(1 - t^w) (integer DP)."""
    c = [1] + [0] * top
    for w in weights:
        for i in range(w, top + 1):
            c[i] += c[i - w]
    return c


def box_scan(ell: tuple[int, ...], degree: int) -> list[tuple[int, ...]]:
    """All v >= 0 with <v, ell> = degree, by scanning the box, ordered by KEY.

    The box is split into two halves whose scans are joined on degree, so
    an 8-coordinate box costs two 4-coordinate scans.
    """
    half = len(ell) // 2

    def scan(ws):
        by_deg: dict[int, list[tuple[int, ...]]] = {}
        for v in product(*(range(degree // w + 1) for w in ws)):
            s = sum(a * w for a, w in zip(v, ws))
            if s <= degree:
                by_deg.setdefault(s, []).append(v)
        return by_deg

    left, right = scan(ell[:half]), scan(ell[half:])
    out = [a + b for s, bs in right.items() for b in bs for a in left.get(degree - s, ())]
    return sorted(out, key=KEY)


def _solve(A, b):
    """Exact solution of the square system A x = b (Gaussian elimination)."""
    n = len(b)
    M = [[Fraction(v) for v in row] + [Fraction(bv)] for row, bv in zip(A, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col])
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col] / M[col][col]
                M[r] = [a - f * p for a, p in zip(M[r], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


@dataclass(frozen=True)
class Diagram:
    """Oracle data of a marked diagram: G/P invariants and affine factors."""

    type_text: str
    nodes: tuple[int, ...]
    rank: int
    positive_roots: int
    dim_gp: int
    chern: tuple[int, ...]
    factors: tuple[tuple[int, ...], ...]
    factor_comarks: tuple[tuple[int, ...], ...]  # sorted multisets


def diagram(type_text: str, nodes) -> Diagram:
    series, r = parse_type(type_text)
    C = cartan(series, r)
    marked = tuple(sorted(set(nodes)))
    levi = [i for i in range(1, r + 1) if i not in marked]
    levi_roots = sum(_POSITIVE[s](k) for s, k in (subdiagram_type(C, p) for p in connected_parts(C, levi)))
    # 2 rho_L = sum_j x_j alpha_j with <alpha_k^vee, 2 rho_L> = 2 on the Levi nodes.
    x = _solve([[C[k - 1][j - 1] for j in levi] for k in levi], [2] * len(levi)) if levi else []
    chern = []
    for i in marked:
        c = 2 - sum(C[i - 1][j - 1] * xj for j, xj in zip(levi, x))
        if c.denominator != 1:
            raise ValueError(f"{type_text} {marked}: non-integral anticanonical degree {c}")
        chern.append(int(c))
    factors = tuple(connected_parts(C, marked))
    comarks = tuple(tuple(sorted(_COMARKS[s](k))) for s, k in (subdiagram_type(C, f) for f in factors))
    total = _POSITIVE[series](r)
    return Diagram(type_text, marked, r, total, total - levi_roots, tuple(chern), factors, comarks)


@dataclass(frozen=True)
class Query:
    """One classification request: a cone given in text form and a degree.

    closed_count and closed_dim, when set, are the workload's closed forms
    for the number of components and their common dimension.
    """

    type_text: str
    nodes: tuple[int, ...]
    lam: tuple[int, ...]  # full-rank weight, 0 off the marked nodes
    n: int
    degree: int
    closed_count: int | None = None
    closed_dim: int | None = None

    @property
    def ell(self) -> tuple[int, ...]:
        return tuple(self.lam[i - 1] for i in sorted(set(self.nodes)))

    @property
    def cone_key(self):
        return (self.type_text, self.nodes, self.lam, self.n)


class Oracle:
    """Expected values, computed once per distinct input and memoised."""

    def __init__(self):
        self._diagrams: dict = {}
        self._scans: dict = {}
        self._series: dict = {}

    def diagram(self, type_text, nodes) -> Diagram:
        key = (type_text, tuple(nodes))
        if key not in self._diagrams:
            self._diagrams[key] = diagram(type_text, nodes)
        return self._diagrams[key]

    def scan(self, ell, degree) -> list[tuple[int, ...]]:
        key = (ell, degree)
        if key not in self._scans:
            self._scans[key] = box_scan(ell, degree)
        return self._scans[key]

    def counts(self, weights, degree) -> list[int]:
        key = tuple(weights)
        if len(self._series.get(key, ())) <= degree:
            self._series[key] = series_counts(key, degree)
        return self._series[key]

    def has_lines(self, ell) -> bool:
        """The base contains a line iff some effective class has degree 1."""
        return self.counts(ell, 1)[1] > 0

    def strata(self, q: Query) -> list[int]:
        """The degrees d' whose effective classes index the components."""
        return [q.degree] if self.has_lines(q.ell) else list(range(q.degree, -1, -1))

    def component_count(self, q: Query) -> int:
        c = self.counts(q.ell, q.degree)
        return sum(c[d] for d in self.strata(q))

    def affine_counts(self, q: Query) -> tuple[int, int]:
        """(effective classes, level-d affine weights) under the minimal ample weight."""
        dg = self.diagram(q.type_text, q.nodes)
        ne_count = self.counts((1,) * len(dg.nodes), q.degree)[q.degree]
        comarks = [m for marks in dg.factor_comarks for m in marks]
        return ne_count, self.counts(comarks, q.degree)[q.degree]


def check_components(oracle: Oracle, q: Query, case: str, rows: list[tuple], equidim) -> list[str]:
    """Index set, per-component values, count, case and equidimensionality.

    A row is (beta, alpha_prime, vertex_multiplicity, relative_degree, e,
    dimension); e is None where the output does not carry it.
    """
    dg = oracle.diagram(q.type_text, q.nodes)
    ell, d, n = q.ell, q.degree, q.n
    bad = []
    want_case = "lines" if oracle.has_lines(ell) else "no_lines"
    if case != want_case:
        bad.append(f"case {case!r}, expected {want_case!r}")
    want = oracle.component_count(q)
    if len(rows) != want or (q.closed_count is not None and len(rows) != q.closed_count):
        bad.append(f"{len(rows)} components, expected {want} (closed form {q.closed_count})")
    # Index set: strata by descending d', each stratum in KEY order.
    want_betas = [b for s in oracle.strata(q) for b in oracle.scan(ell, s)]
    if [tuple(r[0]) for r in rows] != want_betas:
        bad.append("index set differs from the box scan")
    dims = set()
    for beta, ap, mult, rel, e, dim in rows:
        beta = tuple(beta)
        want_ap = sum(b * l for b, l in zip(beta, ell))
        want_dim = sum(b * (c - l) for b, c, l in zip(beta, dg.chern, ell)) + (n + 1) * d + dg.dim_gp + n
        if q.closed_dim is not None and want_dim != q.closed_dim:
            bad.append(f"oracle dimension {want_dim} disagrees with the closed form {q.closed_dim}")
        got = (ap, mult, rel, dim)
        expect = (want_ap, d - want_ap, (n + 1) * (d - want_ap) + n * want_ap, want_dim)
        if got != expect or (e is not None and e != d - want_ap):
            bad.append(f"beta {beta}: (d', mult, rel, dim, e) = {got + (e,)}, expected {expect}")
        dims.add(dim)
        if len(bad) > 20:
            break
    if equidim != (len(dims) <= 1):
        bad.append(f"equidimensional {equidim} with {len(dims)} distinct dimensions")
    return bad


def check_report(oracle: Oracle, q: Query, report) -> list[str]:
    """A library ComponentReport."""
    rows = [
        (c.beta.coeffs, c.alpha_prime, c.vertex_multiplicity, c.tilde.relative_degree, None, c.dimension)
        for c in report.components
    ]
    bad = check_components(oracle, q, report.case, rows, report.equidimensional)
    if report.total_degree != q.degree:
        bad.append(f"total degree {report.total_degree}, expected {q.degree}")
    return bad


def check_count(oracle: Oracle, q: Query, count: int) -> list[str]:
    want = oracle.component_count(q)
    if count != want or (q.closed_count is not None and count != q.closed_count):
        return [f"count {count}, expected {want} (closed form {q.closed_count})"]
    return []


def check_compare(oracle: Oracle, q: Query, cmp) -> list[str]:
    """An AffineComparison on the query's diagram with the minimal ample weight."""
    dg = oracle.diagram(q.type_text, q.nodes)
    ne_count, ir_count = oracle.affine_counts(q)
    got = (
        cmp.degree,
        cmp.ne_count,
        cmp.ir_count,
        cmp.match,
        tuple(cmp.factor_nodes),
        tuple(tuple(sorted(m)) for m in cmp.factor_comarks),
    )
    want = (q.degree, ne_count, ir_count, ne_count == ir_count, dg.factors, dg.factor_comarks)
    return [] if got == want else [f"affine comparison {got}, expected {want}"]


def check_ne(oracle: Oracle, ell, degree, classes) -> list[str]:
    got = [c.coeffs for c in classes]
    return [] if got == oracle.scan(ell, degree) else [f"ne(d={degree}) differs from the box scan ({len(got)} classes)"]


def check_cone(oracle: Oracle, q: Query, cone) -> list[str]:
    """A ConeSpace built from the query's text form."""
    dg = oracle.diagram(q.type_text, q.nodes)
    p = cone.parabolic
    got = (p.alpha_p, cone.ell, cone.vertex_dim, p.dim_gp, p.chern_degrees, cone.dim_x, len(p.rs.positive_roots))
    want = (dg.nodes, q.ell, q.n, dg.dim_gp, dg.chern, dg.dim_gp + q.n, dg.positive_roots)
    return [] if got == want else [f"cone {q.cone_key}: {got}, expected {want}"]


# ---- command-line outputs -------------------------------------------------


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def check_cli_classify_json(oracle: Oracle, q: Query, out: str) -> list[str]:
    try:
        doc = json.loads(out)
        cone = doc["cone"]
        rows = [
            (c["beta"], c["alpha_prime"], c["vertex_multiplicity"], c["relative_degree"], c["e"], c["dimension"])
            for c in doc["components"]
        ]
        dg = oracle.diagram(q.type_text, q.nodes)
        echo = (cone["type"], tuple(cone["parabolic"]), tuple(cone["lambda"]), tuple(cone["ell"]),
                cone["vertex_dim"], cone["dim_x"], doc["total_degree"], doc["count"])
        want = (q.type_text, dg.nodes, q.lam, q.ell, q.n, dg.dim_gp + q.n, q.degree, len(rows))
        bad = [] if echo == want else [f"JSON header {echo}, expected {want}"]
        return bad + check_components(oracle, q, doc["case"], rows, doc["equidimensional"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable JSON report: {exc!r}"]


_TSV_HEADER = "beta\talpha_prime\tvertex_multiplicity\trelative_degree\te\tdimension"


def check_cli_classify_tsv(oracle: Oracle, q: Query, out: str) -> list[str]:
    lines = out.splitlines()
    if not lines or lines[0] != _TSV_HEADER:
        return ["TSV header missing or wrong"]
    try:
        rows = []
        for line in lines[1:]:
            beta, *rest = line.split("\t")
            ap, mult, rel, e, dim = (int(v) for v in rest)
            rows.append((_ints(beta), ap, mult, rel, e, dim))
    except ValueError as exc:
        return [f"unreadable TSV row: {exc!r}"]
    dims = {r[5] for r in rows}
    case = "lines" if oracle.has_lines(q.ell) else "no_lines"  # TSV does not carry the case
    return check_components(oracle, q, case, rows, len(dims) <= 1)


def check_cli_gp(oracle: Oracle, type_text: str, nodes, out: str) -> list[str]:
    dg = oracle.diagram(type_text, nodes)
    fmt = lambda v: ",".join(map(str, v))  # noqa: E731
    kappa = [2 if i in dg.nodes else 0 for i in range(1, dg.rank + 1)]
    minimal = [1 if i in dg.nodes else 0 for i in range(1, dg.rank + 1)]
    want = [
        f"type {type_text}",
        f"parabolic {fmt(dg.nodes)}",
        f"dim_gp {dg.dim_gp}",
        f"picard_rank {len(dg.nodes)}",
        f"chern {fmt(dg.chern)}",
        f"kappa {fmt(kappa)}",
        f"minimal_ample {fmt(minimal)}",
    ]
    got = out.splitlines()
    return [] if got == want else [f"gp output {got}, expected {want}"]


def check_cli_ne(oracle: Oracle, q: Query, out: str) -> list[str]:
    lines = out.splitlines()
    want = oracle.scan(q.ell, q.degree)
    try:
        got = [_ints(line.split(" ", 1)[1]) for line in lines[:-1] if line.startswith("ne ")]
    except ValueError as exc:
        return [f"unreadable ne line: {exc!r}"]
    if len(got) != len(lines) - 1 or got != want or lines[-1:] != [f"count {len(want)}"]:
        return [f"ne output ({len(got)} classes) differs from the box scan ({len(want)})"]
    return []


def check_cli_affine(oracle: Oracle, q: Query, out: str) -> list[str]:
    """affine-compare output for the full flag of q's type at q's degree."""
    dg = oracle.diagram(q.type_text, q.nodes)
    ne_count, ir_count = oracle.affine_counts(q)
    body = [line for line in out.splitlines() if not line.startswith("#")]
    try:
        factors = []
        for line in body[2:-1]:
            parts = dict(kv.split("=") for kv in line.split()[1:])
            factors.append((_ints(parts["nodes"]), tuple(sorted(_ints(parts["comarks"])))))
    except (ValueError, KeyError) as exc:
        return [f"unreadable factor line: {exc!r}"]
    verdict = "MATCH" if ne_count == ir_count else "MISMATCH"
    got = (body[:2], factors, body[-1:])
    want = (
        [f"type {q.type_text}", f"degree {q.degree}"],
        list(zip(dg.factors, dg.factor_comarks)),
        [f"ne={ne_count} ir={ir_count} {verdict}"],
    )
    return [] if got == want else [f"affine-compare output {got}, expected {want}"]
