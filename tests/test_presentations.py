"""One variety, several presentations: a metamorphic check on dimensions.

Every other oracle derives an answer for one presentation of a base
G/P.  Here two presentations of one variety must give one cone: the same
Chern degrees, the same dim G/P and the same rows of iter_rows, once the
Picard coordinates are matched.  A fault that stays consistent within
one type's root data (a Dynkin table, a Cartan convention, a node
numbering) moves one presentation and not the other, so this check can
fail on a dimension, where the identities of the stratum lift cannot.

The presentations:

* Diagram automorphisms (Bourbaki, Lie Groups and Lie Algebras, ch. VI,
  Plates I, IV and V): A_n, i <-> n + 1 - i; D_n, n - 1 <-> n; D4's
  triality, 1 -> 3 -> 4 -> 1; E6, 1 <-> 6 and 3 <-> 5.  The marked nodes
  and ell move with the nodes.  The rows agree as multisets after the
  coordinates are permuted, because the grade order does not survive
  the permutation.
* Isomorphic types of low rank: B2 = C2 (nodes 1 <-> 2), and D3 = A3
  (D3's branch node 1 <-> A3 node 2, D3 nodes 2 and 3 <-> A3 nodes 1
  and 3).  Compared as the automorphisms are.
* Homogeneous varieties of different groups (Demazure, "Automorphismes
  et déformations des variétés de Borel", Invent. Math. 39, 1977):
  G2/P1 = B3/P1, the 5-dimensional quadric; C_n/P1 = A_{2n-1}/P1 =
  P^{2n-1}; B_n/P_n = D_{n+1}/P_{n+1}, the spinor varieties; and,
  through triality, D4/P1 = B3/P3, the 6-dimensional quadric.  Each side
  has one Picard coordinate, so the same ell and n give the same rows in
  the same order.

The grid: every marked diagram of each automorphism's type, with ell,
n and the degree drawn from a generator seeded in this file; each
exceptional pair at every ell <= 3, n <= 2 and degree <= 7.  The
negative controls patch in five faults, and the grid must catch each.
"""

import random
from dataclasses import replace
from itertools import combinations

import pytest

from conecurves import CartanType, cone_from_ell, parabolic, rootsys
from conecurves.components import iter_rows

SEED = 1977
# Comparisons per marked diagram of an automorphism's type, each with its own ell, n and degree.
DRAWS = 4

# (type, type, sigma): node i of the first type is node sigma[i - 1] of the second.
AUTOMORPHISMS = [
    *[(f"A{r}", f"A{r}", tuple(range(r, 0, -1))) for r in range(2, 7)],
    *[(f"D{r}", f"D{r}", (*range(1, r - 1), r, r - 1)) for r in range(4, 7)],
    ("D4", "D4", (3, 2, 4, 1)),  # triality
    ("E6", "E6", (6, 2, 5, 4, 3, 1)),
    ("B2", "C2", (2, 1)),
    ("D3", "A3", (2, 1, 3)),
]

# (type, node, type, node): the one-node bases G/P that are one variety.
EXCEPTIONAL = [
    ("G2", 1, "B3", 1),
    *[(f"C{r}", 1, f"A{2 * r - 1}", 1) for r in (2, 3, 4)],
    *[(f"B{r}", r, f"D{r + 1}", r + 1) for r in (2, 3, 4, 5)],
    ("D4", 1, "B3", 3),
]


def presentation_mismatches():
    """The comparisons of the grid on which two presentations differ, and the number made.

    A presentation is summed up as (Chern degrees, dim G/P, rows), with
    the Chern degrees and each row's beta in the second presentation's
    coordinate order.
    """
    systems = {}

    def summary(type_name, nodes, ell, n, degree, order):
        if type_name not in systems:
            systems[type_name] = rootsys.build_root_system(CartanType.parse(type_name))
        cone = cone_from_ell(parabolic.build_parabolic(systems[type_name], nodes), ell, n)

        def moved(vec):
            return tuple(vec[j] for j in order)

        rows = [moved(r[: len(nodes)]) + r[len(nodes):] for r in iter_rows(cone, degree)]
        return moved(cone.parabolic.chern_degrees), cone.parabolic.dim_gp, rows

    rng = random.Random(SEED)
    bad, cases = [], 0
    for left, right, sigma in AUTOMORPHISMS:
        rank = len(sigma)
        for size in range(1, rank + 1):
            for nodes in combinations(range(1, rank + 1), size):
                image = tuple(sorted(sigma[i - 1] for i in nodes))
                # Coordinate j of the image is node image[j], which is node nodes[order[j]] on the left.
                order = [nodes.index(sigma.index(i) + 1) for i in image]
                for _ in range(DRAWS):
                    ell = tuple(rng.randint(1, 3) for _ in nodes)
                    n, degree = rng.randint(1, 2), rng.randint(0, 6)
                    chern, dim, rows = summary(left, nodes, ell, n, degree, order)
                    want = summary(right, image, tuple(ell[j] for j in order), n, degree, range(size))
                    cases += 1
                    if (chern, dim, sorted(rows)) != (want[0], want[1], sorted(want[2])):
                        bad.append((left, right, nodes, ell, n, degree))
    for left, i, right, j in EXCEPTIONAL:
        for ell in (1, 2, 3):
            for n in (1, 2):
                for degree in range(8):
                    cases += 1
                    if summary(left, (i,), (ell,), n, degree, [0]) != summary(right, (j,), (ell,), n, degree, [0]):
                        bad.append((left, right, (i,), (ell,), n, degree))
    return bad, cases


def test_presentations_of_one_variety_agree():
    bad, cases = presentation_mismatches()
    assert not bad
    assert cases == DRAWS * (3 + 7 + 15 + 31 + 63 + 15 + 31 + 63 + 15 + 63 + 3 + 7) + 9 * 3 * 2 * 8


def _transposed_cartan(monkeypatch):
    """Every Cartan matrix transposed: each non-simply-laced type becomes its dual."""
    real = rootsys.cartan_matrix
    monkeypatch.setattr(rootsys, "cartan_matrix", lambda ctype: tuple(zip(*real(ctype))))


def _e6_bond_moved(monkeypatch):
    """E_n's bond (2, 4) moved to (2, 5)."""
    real = rootsys._DYNKIN["E"]

    def dynkin(r):
        bonds, d = real(r)
        return tuple((2, 5) if b == (2, 4) else b for b in bonds), d

    monkeypatch.setitem(rootsys._DYNKIN, "E", dynkin)


def _d_branch_moved_left(monkeypatch):
    """D_n's branch bond (n - 2, n) moved one node left, to (n - 3, n), for n >= 5."""
    real = rootsys._DYNKIN["D"]

    def dynkin(r):
        bonds, d = real(r)
        return tuple((r - 3, r) if b == (r - 2, r) and r >= 5 else b for b in bonds), d

    monkeypatch.setitem(rootsys._DYNKIN, "D", dynkin)


def _b3_all_roots_short(monkeypatch):
    """B3 with every half square length 1: the Cartan matrix of A3."""
    real = rootsys._DYNKIN["B"]
    monkeypatch.setitem(rootsys._DYNKIN, "B", lambda r: (real(r)[0], (1,) * r) if r == 3 else real(r))


def _raise_b3_node_1_chern_degree(monkeypatch):
    """B3 node 1's Chern degree raised by one wherever node 1 is marked."""
    real = parabolic.build_parabolic

    def build(rs, alpha_p):
        p = real(rs, alpha_p)
        if str(rs.cartan_type) == "B3" and p.alpha_p[0] == 1:
            return replace(p, chern_degrees=(p.chern_degrees[0] + 1, *p.chern_degrees[1:]))
        return p

    monkeypatch.setattr(parabolic, "build_parabolic", build)


@pytest.mark.parametrize(
    "fault,caught_on",
    [
        # Transposing leaves the simply-laced types alone and swaps B2 with C2: every exceptional pair fails.
        (_transposed_cartan, {(left, right) for left, _, right, _ in EXCEPTIONAL}),
        (_e6_bond_moved, {("E6", "E6")}),
        # D5 with its branch at node 2 is D5 again, with node 5 still a spinor node: B4/P4 = D5/P5 holds.
        (_d_branch_moved_left, {("D5", "D5"), ("D6", "D6"), ("B5", "D6")}),
        (_b3_all_roots_short, {("G2", "B3"), ("B3", "D4"), ("D4", "B3")}),
        (_raise_b3_node_1_chern_degree, {("G2", "B3")}),
    ],
    ids=["cartan-transposed", "e6-bond-moved", "d-branch-moved-left", "b3-all-short", "b3-node-1-chern-degree"],
)
def test_presentations_catch_a_fault(monkeypatch, fault, caught_on):
    fault(monkeypatch)
    bad, _ = presentation_mismatches()
    assert {(left, right) for left, right, *_ in bad} == caught_on
