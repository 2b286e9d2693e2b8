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
* One table, _DYNKIN, states each series once: its bonds and the half
  square length d_i of each simple root (1 for short roots, 2 for long
  roots in B, C and F, 3 in G).  The Cartan matrix and the symmetrizer
  are both read from it, so d symmetrizes the Cartan matrix by
  construction.
* Simple-root indices in the public API are 1-based, matching the
  Bourbaki node labels above.

Everything is exact integer arithmetic; nothing here is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
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
    are therefore the simple roots themselves.  symmetrizer holds the
    half square lengths d_i of the simple roots, short roots 1, so that
    diag(d) * cartan is symmetric.
    """

    cartan_type: CartanType
    cartan: Matrix
    positive_roots: tuple[Root, ...]
    symmetrizer: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @cached_property
    def support_masks(self) -> tuple[int, ...]:
        """The support of each positive root as a bitmask, bit i - 1 for node i, in root order.

        build_root_system fills it from the reflection closure, which
        carries each root's mask up from the simple roots; any other
        instance, such as one dataclasses.replace makes, computes it here
        from its own roots on first use and keeps it.  It is not a field,
        so equality, hashing and repr ignore it.
        """
        bits = [1 << i for i in range(self.rank)]
        return tuple(map(sum, map(compress, repeat(bits), self.positive_roots)))


def grade_key(vec: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key for the package-wide ordering of integer vectors.

    Ascending coordinate sum; within a sum, larger leading coordinates
    first.  E.g. (1,0) < (0,1) < (2,0) < (1,1) < (0,2).
    """
    return (sum(vec), tuple(-c for c in vec))


def _path(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(1, n))


# Per series, at rank n: the bonds of the Dynkin diagram as 1-based node
# pairs, and the half square length d_i of each simple root.
_DYNKIN = {
    "A": lambda n: (_path(n), (1,) * n),
    "B": lambda n: (_path(n), (2,) * (n - 1) + (1,)),
    "C": lambda n: (_path(n), (1,) * (n - 1) + (2,)),
    "D": lambda n: (_path(n - 1) + ((n - 2, n),), (1,) * n),
    "E": lambda n: (((1, 3), (2, 4)) + _path(n)[2:], (1,) * n),
    "F": lambda n: (_path(4), (2, 2, 1, 1)),
    "G": lambda n: (_path(2), (1, 3)),
}


def cartan_matrix(ctype: CartanType) -> Matrix:
    """Cartan matrix in Bourbaki numbering, C[i][j] = <alpha_i^vee, alpha_j>.

    On a bond C[i][j] = -max(d_i, d_j) / d_i, so d_i * C[i][j] =
    d_j * C[j][i] and the half square lengths d symmetrize C.
    """
    bonds, d = _DYNKIN[ctype.series](ctype.rank)
    C = [[2 if i == j else 0 for j in range(len(d))] for i in range(len(d))]
    for i, j in bonds:
        top = max(d[i - 1], d[j - 1])
        C[i - 1][j - 1] = -top // d[i - 1]
        C[j - 1][i - 1] = -top // d[j - 1]
    return tuple(map(tuple, C))


def _generate_positive_roots(C: Matrix) -> tuple[tuple[Root, ...], tuple[int, ...]]:
    """All positive roots by simple-reflection closure from the simple roots, with their support masks.

    Every positive root that is not simple is lowered by some simple
    reflection (Humphreys, Introduction to Lie Algebras, 10.2-10.3): it
    pairs positively with some alpha_i, and s_i permutes the positive
    roots other than alpha_i.  So each positive root is reached from a
    simple root by reflections that raise the height, and a root g has
    the root s_i(g) = g - q alpha_i above it exactly when
    q = <alpha_i^vee, g> < 0.  Each root is kept with its pairings
    <alpha_j^vee, g> for every j: s_i(g) is a copy of g with coordinate
    i raised by -q, and its pairings are g's less q times column i of
    the Cartan matrix, which moves only the entries at i and at the
    nodes bonded to i, so the test reads one entry.  After the pairings
    the same list holds g's support mask (bit j for node j + 1), which
    is positive, so the test never picks it; s_i(g)'s mask is g's with
    bit i set.  Each round's new roots travel with their lists, so no
    root's list is looked up again to raise it.

    The roots are returned in grade_key order by two stable sorts:
    descending, which orders each height by decreasing leading
    coefficients, then by height (coordinate sum); the masks follow in
    the same order.
    """
    n = len(C)
    # bonds[i]: the nonzero entries (j, C[j][i]) of column i, the only pairings s_i moves.
    bonds = [[(j, row[i]) for j, row in enumerate(C) if row[i]] for i in range(n)]
    bits = [1 << i for i in range(n)]
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    # Each root with its list: <alpha_j^vee, g> for each j, then g's support mask.
    frontier: list[tuple[Root, list[int]]] = [(g, [*col, bit]) for g, col, bit in zip(simples, zip(*C), bits)]
    pairings: dict[Root, list[int]] = dict(frontier)
    # A root found in round r has height >= r + 1, so a finite type stops within its highest root's height.
    for _ in range(_MAX_HEIGHT):
        grown: list[tuple[Root, list[int]]] = []
        for g, gp in frontier:
            for i, q in enumerate(gp):
                if q < 0:
                    raised = list(g)
                    raised[i] -= q
                    up = tuple(raised)
                    if up not in pairings:
                        pairings[up] = moved = list(gp)
                        for j, c in bonds[i]:
                            moved[j] -= q * c
                        moved[n] |= bits[i]
                        grown.append((up, moved))
        if len(pairings) > _MAX_ROOTS:
            raise InternalError("too many positive roots generated; invalid Cartan data")
        if not grown:
            roots = tuple(sorted(sorted(pairings, reverse=True), key=sum))
            return roots, tuple([pairings[g][n] for g in roots])
        frontier = grown
    raise InternalError("root generation did not terminate; invalid Cartan data")


def build_root_system(ctype: CartanType) -> RootSystem:
    """Construct the full root system of a simple type, with its support masks filled in."""
    C = cartan_matrix(ctype)
    roots, masks = _generate_positive_roots(C)
    rs = RootSystem(ctype, C, roots, _DYNKIN[ctype.series](ctype.rank)[1])
    rs.__dict__["support_masks"] = masks  # where cached_property would keep it
    return rs


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

    `nodes` is any subset of 1..rank.  Callers pass validated nodes
    (build_parabolic's marked nodes, or all of them), and a node outside
    that range is not checked for.

    One downward pass over the positive roots, on their support masks.
    A highest root dominates every root of its component and is
    supported on all of it, so a root whose support meets no component
    found so far is the highest root of a new component, its support.
    A root whose support leaves `nodes` is skipped.  Any other root must
    lie in one component, or InternalError "straddles" is raised, and
    every component's roots must be dominated by its highest root: the
    componentwise max of them is compared with it once per component,
    and InternalError "not dominated" names the first root that is not.
    """
    outside = ~sum({1 << i - 1 for i in nodes})
    # One (support mask, highest root, its roots) per component, in the order found.
    found: list[tuple[int, Root, list[Root]]] = []
    for g, m in zip(reversed(rs.positive_roots), reversed(rs.support_masks)):
        if m & outside:
            continue
        for mask, _, roots in found:
            if m & mask:
                if m & ~mask:
                    raise InternalError(f"root {g} straddles components of the subdiagram on nodes {sorted(nodes)}")
                roots.append(g)
                break
        else:
            found.append((m, g, [g]))
    for _, theta, roots in found:
        if tuple(map(max, zip(*roots))) != theta:
            bad = next(g for g in roots if any(map(gt, g, theta)))
            raise InternalError(f"root {bad} is not dominated by the highest root {theta} of its component")
    return sorted((tuple(i for i, c in enumerate(theta, 1) if c), theta) for _, theta, _ in found)


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
    weighted = list(map(mul, theta, rs.symmetrizer))  # theta_j * d_j
    # (theta, theta) = sum_j theta_j * d_j * <alpha_j^vee, theta>
    norm = sum(map(mul, weighted, [sum(map(mul, row, theta)) for row in rs.cartan]))
    if norm <= 0 or norm % 2:
        raise InternalError(f"square length {norm} of the highest root is not a positive even integer")
    d_theta = norm // 2
    out = [1]
    for j, (t, w) in enumerate(zip(theta, weighted), 1):
        if t:
            c, r = divmod(w, d_theta)
            if r or c < 1:
                raise InternalError(f"comark {w}/{d_theta} at node {j} is not a positive integer")
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
