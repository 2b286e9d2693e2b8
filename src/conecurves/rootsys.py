"""Exact root-system kernel for the simple Lie types A through G.

Conventions, fixed package-wide:

* Bourbaki numbering of the simple roots.  Node labels per series::

      A_n   1 - 2 - ... - n
      B_n   1 - 2 - ... - (n-1) = n     double bond, alpha_n short
      C_n   1 - 2 - ... - (n-1) = n     double bond, alpha_n long
      D_n   1 - ... - (n-2) - (n-1)     with n also attached to n-2
      E_n   1 - 3 - 4 - 5 - 6 [- 7 [- 8]],  2 attached to 4
      F_4   1 - 2 = 3 - 4               double bond, alpha_3 and alpha_4 short
      G_2   1 = 2                       triple bond, alpha_1 short

* A root is a tuple of integer coefficients on the simple roots.
* A weight is a tuple of integer coefficients on the fundamental
  weights, i.e. the tuple of values <alpha_i^vee, weight>.
* cartan[i][j] = <alpha_i^vee, alpha_j>.  The Cartan matrix is the only
  bridge between the two coordinate systems.
* Simple-root indices in the public API are 1-based, matching the
  Bourbaki node labels above.

Everything is exact integer arithmetic; nothing here is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import lcm, gcd
from operator import gt, mul

from .errors import InputError, InternalError

Root = tuple[int, ...]
Weight = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

SERIES = "ABCDEFG"

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
# _MAX_ROOTS caps the generated positive roots; the classical maximal ranks
# are the largest that fit it (A21 has 231, B15 and C15 225, D16 240).
_MAX_RANK = {"A": 21, "B": 15, "C": 15, "D": 16, "E": 8, "F": 4, "G": 2}
_MAX_ROOTS = 240
_MAX_HEIGHT = 64
# Longest decimal field a parser converts: int() refuses strings of more
# than 4,300 digits, and no admissible rank, node or weight needs many.
_MAX_DIGITS = 100


@dataclass(frozen=True)
class CartanType:
    """A simple type: series letter plus rank, e.g. CartanType("A", 3)."""

    series: str
    rank: int

    def __post_init__(self) -> None:
        lo = _MIN_RANK.get(self.series)
        if lo is None:
            raise InputError(f"unknown series {self.series!r}; expected one of {SERIES}")
        hi = _MAX_RANK[self.series]
        if self.rank < lo:
            raise InputError(f"rank {self.rank} too small for series {self.series} (minimum {lo})")
        if self.rank > hi:
            raise InputError(f"rank {self.rank} invalid for series {self.series} (maximum {hi})")

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        """Parse strings like "A3" or "e6" (case-insensitive letter + ASCII decimal rank)."""
        s = text.strip()
        if len(s) < 2:
            raise InputError(f"cannot parse Cartan type {text!r}; expected e.g. 'A3'")
        return cls(s[0].upper(), parse_decimal(s[1:], "rank"))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def parse_decimal(text: str, what: str) -> int:
    """The integer `what` in `text`, unstripped: ASCII decimal digits, at most _MAX_DIGITS."""
    if not (text.isascii() and text.isdigit()):
        raise InputError(f"bad {what} {text!r}; expected ASCII decimal digits")
    if len(text) > _MAX_DIGITS:
        raise InputError(f"{what} has {len(text)} digits, more than the limit {_MAX_DIGITS}")
    return int(text)


@dataclass(frozen=True)
class RootSystem:
    """Cartan data of a simple type, with all derived tables precomputed.

    positive_roots are sorted by height (coordinate sum) and, within a
    height, by decreasing leading coefficients; the first `rank` entries
    are therefore the simple roots themselves.  symmetrizer is the
    minimal positive integer vector d with diag(d) * cartan symmetric.
    """

    cartan_type: CartanType
    cartan: Matrix
    positive_roots: tuple[Root, ...]
    symmetrizer: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.cartan_type.rank


def grade_key(vec: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key for the package-wide ordering of integer vectors.

    Ascending coordinate sum; within a sum, larger leading coordinates
    first.  E.g. (1,0) < (0,1) < (2,0) < (1,1) < (0,2).
    """
    return (sum(vec), tuple(-c for c in vec))


def cartan_matrix(ctype: CartanType) -> Matrix:
    """Cartan matrix in Bourbaki numbering, C[i][j] = <alpha_i^vee, alpha_j>."""
    n = ctype.rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        # 1-based node labels; cij sits in row i.
        C[i - 1][j - 1] = cij
        C[j - 1][i - 1] = cji

    s = ctype.series
    if s == "A":
        for i in range(1, n):
            bond(i, i + 1)
    elif s == "B":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 1, n, -1, -2)
    elif s == "C":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 1, n, -2, -1)
    elif s == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 2, n)
    elif s == "E":
        for i, j in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)):
            if j <= n:
                bond(i, j)
        bond(2, 4)
    elif s == "F":
        bond(1, 2)
        bond(2, 3, -1, -2)
        bond(3, 4)
    elif s == "G":
        bond(1, 2, -3, -1)
    return tuple(tuple(row) for row in C)


def _validate_cartan(C: Matrix) -> None:
    n = len(C)
    for i in range(n):
        if len(C[i]) != n:
            raise InternalError("Cartan matrix is not square")
        if C[i][i] != 2:
            raise InternalError(f"Cartan diagonal entry C[{i + 1}][{i + 1}] = {C[i][i]} != 2")
        for j in range(n):
            if i == j:
                continue
            if C[i][j] > 0:
                raise InternalError(f"positive off-diagonal Cartan entry C[{i + 1}][{j + 1}]")
            if (C[i][j] == 0) != (C[j][i] == 0):
                raise InternalError(f"Cartan zero pattern not symmetric at ({i + 1},{j + 1})")


def _symmetrizer(C: Matrix) -> tuple[int, ...]:
    """Minimal positive integers d with d_i * C[i][j] = d_j * C[j][i].

    d is spread from node 1 along the edges as reduced integer ratios
    num_j / den_j with den_j > 0, using d_j = d_i * C[i][j] / C[j][i],
    and the denominators are cleared at the end.
    """
    n = len(C)
    num: list[int | None] = [None] * n
    den = [1] * n
    num[0] = 1
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and C[i][j] != 0 and num[j] is None:
                a, b = num[i] * C[i][j], den[i] * C[j][i]
                g = gcd(a, b) if b > 0 else -gcd(a, b)
                num[j], den[j] = a // g, b // g
                stack.append(j)
    if None in num:
        raise InternalError("Dynkin diagram is disconnected; not a simple type")
    for i in range(n):
        for j in range(n):
            if num[i] * den[j] * C[i][j] != num[j] * den[i] * C[j][i]:
                raise InternalError("Cartan matrix is not symmetrizable")
    if any(v <= 0 for v in num):
        raise InternalError("symmetrizer is not positive; invalid Cartan data")
    scale = lcm(*den)
    ints = [v * (scale // q) for v, q in zip(num, den)]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _generate_positive_roots(C: Matrix) -> tuple[Root, ...]:
    """All positive roots by simple-reflection closure from the simple roots.

    Every positive root that is not simple is lowered by some simple
    reflection (Humphreys, Introduction to Lie Algebras, 10.2-10.3): it
    pairs positively with some alpha_i, and s_i permutes the positive
    roots other than alpha_i.  So each positive root is reached from a
    simple root by reflections that raise the height, and a root g has
    the root s_i(g) = g - q alpha_i above it exactly when
    q = <alpha_i^vee, g> < 0.  Each root is kept with its pairings
    <alpha_j^vee, g> for every j: s_i(g) pairs as g minus q times
    column i of the Cartan matrix, so the test reads one entry.
    """
    n = len(C)
    columns = tuple(zip(*C))
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    pairings: dict[Root, tuple[int, ...]] = dict(zip(simples, columns))
    frontier: list[Root] = simples
    rounds = 0
    while frontier:
        rounds += 1
        # A root found in round r has height >= r + 1, so a finite type stops within its highest root's height.
        if rounds > _MAX_HEIGHT:
            raise InternalError("root generation did not terminate; invalid Cartan data")
        grown: list[Root] = []
        for g in frontier:
            gp = pairings[g]
            for i, q in enumerate(gp):
                if q < 0:
                    up = g[:i] + (g[i] - q,) + g[i + 1:]
                    if up not in pairings:
                        pairings[up] = tuple([p - q * c for p, c in zip(gp, columns[i])])
                        grown.append(up)
        if len(pairings) > _MAX_ROOTS:
            raise InternalError("too many positive roots generated; invalid Cartan data")
        frontier = grown
    return tuple(sorted(pairings, key=grade_key))


def build_root_system(ctype: CartanType) -> RootSystem:
    """Construct the full root system of a simple type."""
    C = cartan_matrix(ctype)
    _validate_cartan(C)
    sym = _symmetrizer(C)
    roots = _generate_positive_roots(C)
    return RootSystem(ctype, C, roots, sym)


def pair(rs: RootSystem, i: int, root: Root) -> int:
    """Pairing <alpha_i^vee, root> of the i-th simple coroot (1-based) with a root."""
    if not 1 <= i <= rs.rank:
        raise InputError(f"simple-root index {i} out of range 1..{rs.rank}")
    if len(root) != rs.rank:
        raise InputError(f"root has {len(root)} coordinates, expected {rs.rank}")
    return sum(map(mul, rs.cartan[i - 1], root))


def rho(rs: RootSystem) -> Weight:
    """Half the sum of the positive roots, as a weight: all fundamental coordinates 1."""
    return (1,) * rs.rank


def highest_roots(rs: RootSystem, nodes: tuple[int, ...]) -> list[tuple[tuple[int, ...], Root]]:
    """Components of the subdiagram on `nodes`, by smallest node, each with its highest root.

    One downward pass over the positive roots.  A highest root dominates
    every root of its component and is supported on all of it, so a root
    whose support avoids the components found so far is the highest root
    of a new component, its support.  Any other root supported on `nodes`
    must lie in one component and be dominated by its highest root, or
    InternalError is raised.
    """
    # owner[i]: index in `found` of node i+1's component, None while uncovered, -1 outside `nodes`.
    owner: list[int | None] = [None if i in nodes else -1 for i in range(1, rs.rank + 1)]
    found: list[tuple[tuple[int, ...], Root]] = []
    for g in reversed(rs.positive_roots):
        owners = set(compress(owner, g))
        if -1 in owners:
            continue
        if owners == {None}:
            support = tuple(i for i, c in enumerate(g, 1) if c)
            for i in support:
                owner[i - 1] = len(found)
            found.append((support, g))
        elif len(owners) > 1:
            raise InternalError(f"root {g} straddles components of the subdiagram on nodes {sorted(nodes)}")
        elif any(map(gt, g, theta := found[owners.pop()][1])):
            raise InternalError(f"root {g} is not dominated by the highest root {theta} of its component")
    return sorted(found)


def highest_root(rs: RootSystem) -> Root:
    """The unique positive root that dominates all others coordinatewise."""
    found = highest_roots(rs, tuple(range(1, rs.rank + 1)))
    if len(found) != 1:
        raise InternalError(f"Dynkin diagram has {len(found)} components; not a simple type")
    return found[0][1]


def subsystem_comarks(rs: RootSystem, theta: Root) -> tuple[int, ...]:
    """Comark vector of the simple subsystem whose highest root is theta.

    The subsystem's nodes are the support of theta, and comark_j =
    theta_j * d_j / d_theta there, with d the symmetrizer and d_theta the
    half square length of theta in the same normalization.  The affine
    node contributes comark 1.
    """
    d = rs.symmetrizer
    norm = sum(t * dt * sum(c * u for c, u in zip(row, theta)) for t, dt, row in zip(theta, d, rs.cartan))
    if norm <= 0 or norm % 2:
        raise InternalError(f"square length {norm} of the highest root is not a positive even integer")
    d_theta = norm // 2
    out = [1]
    for j, (t, dj) in enumerate(zip(theta, d), 1):
        if t:
            c, r = divmod(t * dj, d_theta)
            if r or c < 1:
                raise InternalError(f"comark {t * dj}/{d_theta} at node {j} is not a positive integer")
            out.append(c)
    return tuple(out)


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Dimension of the irreducible representation with dominant highest weight lam.

    Product over positive roots of (lam + rho, gamma) / (rho, gamma),
    evaluated with the symmetrized form (alpha_i, alpha_j) =
    d_i * C[i][j], so (mu, gamma) = sum_j gamma_j * d_j * mu_j for a
    weight mu.  Numerator and denominator are accumulated as exact
    integers and divided once.
    """
    if len(lam) != rs.rank:
        raise InputError(f"weight has {len(lam)} coordinates, expected {rs.rank}")
    if any(c < 0 for c in lam):
        raise InputError(f"weight {lam} is not dominant")
    d = rs.symmetrizer
    num = 1
    den = 1
    for gamma in rs.positive_roots:
        num *= sum(g * di * (li + 1) for g, di, li in zip(gamma, d, lam))
        den *= sum(g * di for g, di in zip(gamma, d))
    if num % den:
        raise InternalError("Weyl dimension product is not an integer")
    return num // den
