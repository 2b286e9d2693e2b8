"""Root-system kernel: counts, pairings, highest roots, Weyl dimensions."""

import hashlib
import random
import re
from dataclasses import replace
from itertools import combinations, product

import pytest

from conecurves import (
    CartanType,
    InputError,
    InternalError,
    build_root_system,
    highest_root,
    pair,
    rho,
    weyl_dim,
)
from conecurves.rootsys import (
    _MAX_RANK,
    _MIN_RANK,
    _generate_positive_roots,
    cartan_matrix,
    grade_key,
    highest_roots,
    parse_decimal,
    subsystem_comarks,
)
from conecurves.parabolic import parse_alpha_p, parse_lambda

# Closed-form positive-root counts, frozen from the classical tables.
POSITIVE_ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15, "A6": 21, "A7": 28, "A8": 36,
    "B2": 4, "B3": 9, "B4": 16, "B5": 25, "B6": 36, "B7": 49, "B8": 64,
    "C2": 4, "C3": 9, "C4": 16, "C5": 25, "C6": 36, "C7": 49, "C8": 64,
    "D3": 6, "D4": 12, "D5": 20, "D6": 30, "D7": 42, "D8": 56,
    "E6": 36, "E7": 63, "E8": 120,
    "F4": 24,
    "G2": 6,
    # The largest classical ranks admitted: their counts fit the generator's cap of 240.
    "A21": 231, "B15": 225, "C15": 225, "D16": 240,
}

ALL_TYPES = sorted(POSITIVE_ROOT_COUNTS)


def types_up_to(max_rank):
    return [t for t in ALL_TYPES if int(t[1:]) <= max_rank]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_positive_root_counts_match_table(name):
    rs = build_root_system(CartanType.parse(name))
    assert len(rs.positive_roots) == POSITIVE_ROOT_COUNTS[name]
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)


@pytest.mark.parametrize("name", types_up_to(4))
def test_positive_roots_are_positive_and_contain_simples(name):
    rs = build_root_system(CartanType.parse(name))
    units = {tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)}
    for g in rs.positive_roots:
        assert all(c >= 0 for c in g) and any(c > 0 for c in g)
    assert {g for g in rs.positive_roots if sum(g) == 1} == units
    # Listing starts at the simple roots: height ascending.
    assert set(rs.positive_roots[: rs.rank]) == units


def test_cartan_matrices_frozen_examples():
    assert build_root_system(CartanType("A", 2)).cartan == ((2, -1), (-1, 2))
    assert build_root_system(CartanType("A", 1)).cartan == ((2,),)
    assert build_root_system(CartanType("B", 2)).cartan == ((2, -1), (-2, 2))
    assert build_root_system(CartanType("C", 2)).cartan == ((2, -2), (-1, 2))
    assert build_root_system(CartanType("G", 2)).cartan == ((2, -3), (-1, 2))
    f4 = build_root_system(CartanType("F", 4)).cartan
    assert f4 == ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))


def test_a2_positive_roots():
    rs = build_root_system(CartanType("A", 2))
    assert rs.positive_roots == ((1, 0), (0, 1), (1, 1))


def test_a1_single_root():
    rs = build_root_system(CartanType("A", 1))
    assert rs.positive_roots == ((1,),)


def test_g2_six_roots():
    rs = build_root_system(CartanType("G", 2))
    assert len(rs.positive_roots) == 6
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


@pytest.mark.parametrize("n", range(1, 7))
def test_a_series_roots_match_interval_oracle(n):
    # Independent oracle: positive roots of A_n are exactly the interval
    # indicator vectors alpha_i + ... + alpha_j.
    intervals = set()
    for i in range(n):
        for j in range(i, n):
            intervals.add(tuple(1 if i <= k <= j else 0 for k in range(n)))
    rs = build_root_system(CartanType("A", n))
    assert set(rs.positive_roots) == intervals


def test_pair_examples():
    a2 = build_root_system(CartanType("A", 2))
    assert pair(a2, 1, (1, 1)) == 1
    assert pair(a2, 2, (1, 0)) == -1
    for name in types_up_to(4):
        rs = build_root_system(CartanType.parse(name))
        for i in range(1, rs.rank + 1):
            unit = tuple(1 if j == i - 1 else 0 for j in range(rs.rank))
            assert pair(rs, i, unit) == 2


def test_pair_errors():
    a2 = build_root_system(CartanType("A", 2))
    with pytest.raises(InputError):
        pair(a2, 0, (1, 0))
    with pytest.raises(InputError):
        pair(a2, 3, (1, 0))
    with pytest.raises(InputError):
        pair(a2, 1, (1, 0, 0))


def test_rho_examples():
    assert rho(build_root_system(CartanType("A", 1))) == (1,)
    assert rho(build_root_system(CartanType("A", 3))) == (1, 1, 1)


@pytest.mark.parametrize("name", types_up_to(4))
def test_two_rho_is_sum_of_positive_roots(name):
    rs = build_root_system(CartanType.parse(name))
    for i in range(1, rs.rank + 1):
        assert sum(pair(rs, i, g) for g in rs.positive_roots) == 2


def test_highest_root_examples():
    assert highest_root(build_root_system(CartanType("A", 3))) == (1, 1, 1)
    assert highest_root(build_root_system(CartanType("A", 1))) == (1,)
    assert highest_root(build_root_system(CartanType("C", 2))) == (2, 1)
    assert highest_root(build_root_system(CartanType("B", 2))) == (1, 2)
    assert highest_root(build_root_system(CartanType("G", 2))) == (3, 2)


@pytest.mark.parametrize("name", types_up_to(4))
def test_highest_root_is_unique_string_top(name):
    rs = build_root_system(CartanType.parse(name))
    roots = set(rs.positive_roots)
    tops = []
    for g in roots:
        ups = []
        for i in range(rs.rank):
            up = tuple(c + (1 if j == i else 0) for j, c in enumerate(g))
            ups.append(up in roots)
        if not any(ups):
            tops.append(g)
    assert tops == [highest_root(rs)]


def test_highest_roots_split_subdiagrams():
    d4 = build_root_system(CartanType("D", 4))
    assert highest_roots(d4, (1, 3, 4)) == [((1,), (1, 0, 0, 0)), ((3,), (0, 0, 1, 0)), ((4,), (0, 0, 0, 1))]
    assert highest_roots(d4, (4, 2, 1)) == [((1, 2, 4), (1, 1, 0, 1))]
    e8 = build_root_system(CartanType("E", 8))
    assert highest_roots(e8, (8, 6, 5, 3, 2, 1)) == [
        ((1, 3), (1, 0, 1, 0, 0, 0, 0, 0)),
        ((2,), (0, 1, 0, 0, 0, 0, 0, 0)),
        ((5, 6), (0, 0, 0, 0, 1, 1, 0, 0)),
        ((8,), (0, 0, 0, 0, 0, 0, 0, 1)),
    ]
    assert highest_roots(e8, ()) == []


@pytest.mark.parametrize("name", ALL_TYPES)
def test_highest_roots_on_all_nodes_is_the_highest_root(name):
    rs = build_root_system(CartanType.parse(name))
    nodes = tuple(range(1, rs.rank + 1))
    assert highest_roots(rs, nodes) == [(nodes, highest_root(rs))]
    assert highest_root(rs) == max(rs.positive_roots, key=grade_key)


def _a2_with(extra):
    a2 = build_root_system(CartanType("A", 2))
    return replace(a2, positive_roots=tuple(sorted(a2.positive_roots + (extra,), key=grade_key)))


def test_highest_roots_rejects_an_undominated_root():
    rs = _a2_with((2, 0))
    # The message names the root that is not dominated, not the first root of the component.
    with pytest.raises(InternalError, match=r"^root \(2, 0\) is not dominated by the highest root \(1, 1\) of its"):
        highest_roots(rs, (1, 2))
    with pytest.raises(InternalError, match="not dominated"):
        highest_root(rs)


def test_highest_roots_rejects_a_root_straddling_two_components():
    # (0, 2) is met first and claims node 2 alone, so (1, 1) spans two components.
    rs = _a2_with((0, 2))
    with pytest.raises(InternalError, match="straddles"):
        highest_roots(rs, (1, 2))
    assert highest_roots(rs, (2,)) == [((2,), (0, 2))]


def test_highest_root_requires_a_connected_diagram():
    a2 = build_root_system(CartanType("A", 2))
    split = replace(a2, cartan=((2, 0), (0, 2)), positive_roots=((1, 0), (0, 1)))
    assert highest_roots(split, (1, 2)) == [((1,), (1, 0)), ((2,), (0, 1))]
    with pytest.raises(InternalError, match="2 components"):
        highest_root(split)


def _highest_roots_oracle(rs, nodes):
    """Independent oracle for highest_roots, by brute force.

    Components are grown from the Cartan bonds by graph search, and each
    component's highest root is the grade_key-largest positive root
    supported on it.
    """
    left = set(nodes)
    found = []
    while left:
        comp, stack = set(), [min(left)]
        while stack:
            i = stack.pop()
            if i not in comp:
                comp.add(i)
                stack.extend(j for j in left if j != i and rs.cartan[i - 1][j - 1])
        left -= comp
        inside = [g for g in rs.positive_roots if {i for i, c in enumerate(g, 1) if c} <= comp]
        found.append((tuple(sorted(comp)), max(inside, key=grade_key)))
    return found


def _oracle_subsets():
    """Every subset of every type of rank <= 8, and 200 seeded subsets of each largest classical type."""
    for name in types_up_to(8):
        rank = int(name[1:])
        for k in range(1, rank + 1):
            for subset in combinations(range(1, rank + 1), k):
                yield name, subset
    rng = random.Random(20041)
    for name in ("A21", "B15", "C15", "D16"):
        rank = int(name[1:])
        for _ in range(200):
            yield name, tuple(rng.sample(range(1, rank + 1), rng.randint(1, rank)))


def test_highest_roots_agree_with_a_brute_force_oracle():
    systems = {}
    checked = 0
    for name, subset in _oracle_subsets():
        if name not in systems:
            systems[name] = build_root_system(CartanType.parse(name))
        rs = systems[name]
        assert highest_roots(rs, subset) == _highest_roots_oracle(rs, subset), (name, subset)
        checked += 1
    assert checked == 2465 + 800


@pytest.mark.parametrize("name", types_up_to(4))
def test_symmetrizer_makes_cartan_symmetric(name):
    rs = build_root_system(CartanType.parse(name))
    d = rs.symmetrizer
    assert all(v > 0 for v in d)
    n = rs.rank
    for i in range(n):
        for j in range(n):
            assert d[i] * rs.cartan[i][j] == d[j] * rs.cartan[j][i]


def test_symmetrizer_frozen_examples():
    assert build_root_system(CartanType("A", 3)).symmetrizer == (1, 1, 1)
    assert build_root_system(CartanType("B", 3)).symmetrizer == (2, 2, 1)
    assert build_root_system(CartanType("C", 3)).symmetrizer == (1, 1, 2)
    assert build_root_system(CartanType("F", 4)).symmetrizer == (2, 2, 1, 1)
    assert build_root_system(CartanType("G", 2)).symmetrizer == (1, 3)


ADMITTED_TYPES = [f"{s}{n}" for s in "ABCDEFG" for n in range(_MIN_RANK[s], _MAX_RANK[s] + 1)]


@pytest.mark.parametrize("name", ADMITTED_TYPES)
def test_support_masks_mark_the_nonzero_coordinates(name):
    # build_root_system fills the masks from the reflection closure; a
    # replaced copy has none until first use, then computes them from its roots.
    rs = build_root_system(CartanType.parse(name))
    copy = replace(rs)
    assert "support_masks" in vars(rs) and "support_masks" not in vars(copy)
    want = tuple(sum(1 << i for i, c in enumerate(g) if c) for g in rs.positive_roots)
    assert rs.support_masks == copy.support_masks == want


@pytest.mark.parametrize("name", ADMITTED_TYPES)
def test_symmetrizer_of_every_admitted_type(name):
    # Long roots get 2 (B, F) or 3 (G), short roots 1; simply laced types are all 1.
    n = int(name[1:])
    want = {
        "B": (2,) * (n - 1) + (1,),
        "C": (1,) * (n - 1) + (2,),
        "F": (2, 2, 1, 1),
        "G": (1, 3),
    }.get(name[0], (1,) * n)
    assert build_root_system(CartanType.parse(name)).symmetrizer == want


# sha256 over repr((type, positive_roots)) lines of every admitted type,
# recorded before the generator carried each root's coroot pairings.
ROOT_DIGEST = "8139eebe0f0cc9a61a49dfb3ee74cd12768d15baae74dfb98796e428e6449f52"


def test_positive_roots_of_every_admitted_type_are_unchanged():
    digest = hashlib.sha256()
    for name in ADMITTED_TYPES:
        rs = build_root_system(CartanType.parse(name))
        digest.update(repr((name, rs.positive_roots)).encode() + b"\n")
    assert len(ADMITTED_TYPES) == 68
    assert digest.hexdigest() == ROOT_DIGEST


@pytest.mark.parametrize("name", ADMITTED_TYPES)
def test_positive_roots_are_in_grade_key_order_from_the_simple_roots(name):
    # The RootSystem docstring's promises: grade_key order, the simple roots
    # first in node order, and no root listed twice.
    rs = build_root_system(CartanType.parse(name))
    roots = rs.positive_roots
    assert list(roots) == sorted(roots, key=grade_key)
    assert roots[: rs.rank] == tuple(tuple(int(j == i) for j in range(rs.rank)) for i in range(rs.rank))
    assert len(set(roots)) == len(roots)


# sha256 over repr((type, cartan, symmetrizer)) lines of every admitted type,
# recorded while each bond's two Cartan entries were written out by hand and
# the symmetrizer was solved for from the matrix.
CARTAN_DIGEST = "bab23db26350961cb0683f11de8e4dccdd52b3c15923a8bf64289025238b4747"


def test_cartan_and_symmetrizer_of_every_admitted_type_are_unchanged():
    digest = hashlib.sha256()
    for name in ADMITTED_TYPES:
        rs = build_root_system(CartanType.parse(name))
        digest.update(repr((name, rs.cartan, rs.symmetrizer)).encode() + b"\n")
    assert digest.hexdigest() == CARTAN_DIGEST


def _block_diagonal(*blocks):
    n = sum(map(len, blocks))
    out = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            out[at + i][at:at + len(row)] = row
        at += len(block)
    return tuple(map(tuple, out))


HYPERBOLIC_2 = ((2, -3), (-3, 2))
D11 = cartan_matrix(CartanType("D", 11))


@pytest.mark.parametrize(
    "cartan, message",
    [
        # Affine A1^(1): the real roots climb forever.
        (((2, -2), (-2, 2)), "did not terminate"),
        # Hyperbolic rank 3: 381 real roots by round 6, past the cap before the round guard.
        (((2, -3, -3), (-3, 2, -3), (-3, -3, 2)), "too many positive roots"),
        # Hyperbolic rank 2: reflections add two real roots a round, 130 at the round cap.
        (HYPERBOLIC_2, "did not terminate"),
        # D11's 110 roots plus the hyperbolic block's 2 + 2r after round r: exactly
        # the cap of 240 after round 64, the last round allowed, so round 65 stops it.
        (_block_diagonal(D11, HYPERBOLIC_2), "did not terminate"),
        # One root more: 241 after round 64, past the cap inside the last round allowed.
        (_block_diagonal(D11, ((2,),), HYPERBOLIC_2), "too many positive roots"),
    ],
)
def test_root_generation_guards(cartan, message):
    with pytest.raises(InternalError, match=message):
        _generate_positive_roots(cartan)


@pytest.mark.parametrize(
    "symmetrizer, theta, norm",
    [((1, 1), (0, 0), 0), ((-1, -1), (1, 1), -2), ((1, 2), (1, 1), 3)],
)
def test_subsystem_comarks_needs_a_positive_even_square_length(symmetrizer, theta, norm):
    rs = replace(build_root_system(CartanType("A", 2)), symmetrizer=symmetrizer)
    with pytest.raises(InternalError, match=f"^square length {norm} of the highest root is not a positive even integer$"):
        subsystem_comarks(rs, theta)


@pytest.mark.parametrize(
    "symmetrizer, comark",
    # A2's theta = (1, 1) pairs to 1 with both coroots, so its square length is d_1 + d_2.
    # A quotient of at least 1 with a remainder, an exact 0, and an exact negative.
    [((3, 1), "3/2"), ((0, 2), "0/1"), ((-1, 3), "-1/1")],
)
def test_subsystem_comarks_needs_positive_integer_comarks(symmetrizer, comark):
    rs = replace(build_root_system(CartanType("A", 2)), symmetrizer=symmetrizer)
    with pytest.raises(InternalError, match=f"^comark {comark} at node 1 is not a positive integer$"):
        subsystem_comarks(rs, (1, 1))


def test_weyl_dim_a1_oracle():
    # dim of the weight-m irreducible of A1 is m + 1.
    rs = build_root_system(CartanType("A", 1))
    for m in range(7):
        assert weyl_dim(rs, (m,)) == m + 1


def test_weyl_dim_trivial_weight():
    for name in ("A2", "B2", "G2", "D4"):
        rs = build_root_system(CartanType.parse(name))
        assert weyl_dim(rs, (0,) * rs.rank) == 1


def test_weyl_dim_frozen_values():
    a2 = build_root_system(CartanType("A", 2))
    assert weyl_dim(a2, (1, 1)) == 8  # adjoint of sl3
    b2 = build_root_system(CartanType("B", 2))
    assert weyl_dim(b2, (1, 0)) == 5  # vector representation of so5
    g2 = build_root_system(CartanType("G", 2))
    assert weyl_dim(g2, (0, 1)) == 14  # adjoint of g2


@pytest.mark.parametrize("n", range(1, 7))
def test_weyl_dim_first_fundamental_a_series(n):
    rs = build_root_system(CartanType("A", n))
    lam = tuple(1 if i == 0 else 0 for i in range(n))
    assert weyl_dim(rs, lam) == n + 1


def test_weyl_dim_rejects_non_dominant():
    rs = build_root_system(CartanType("A", 2))
    with pytest.raises(InputError):
        weyl_dim(rs, (1, -1))


def test_weyl_dim_rejects_a_weight_of_the_wrong_length():
    rs = build_root_system(CartanType("A", 2))
    with pytest.raises(InputError, match=r"^weight has 1 coordinates, expected 2$"):
        weyl_dim(rs, (1,))


def test_cartan_type_parse():
    assert CartanType.parse("a3") == CartanType("A", 3)
    assert CartanType.parse(" E6 ") == CartanType("E", 6)
    for bad in ("Z9", "A0", "E5", "E9", "F5", "F3", "G3", "D2", "B1", "C1", "", "A", "Ax",
                "A22", "B16", "C16", "D17", "A1000000000"):
        with pytest.raises(InputError):
            CartanType.parse(bad)


def test_cartan_type_refuses_a_series_that_is_not_one_letter():
    for series in ("AB", "", "Z", "a"):
        with pytest.raises(InputError, match="unknown series"):
            CartanType(series, 3)


def test_every_integer_field_reads_100_digits_and_refuses_101():
    padded = "0" * 99 + "3"
    assert parse_decimal(padded, "x") == 3
    assert CartanType.parse("A" + padded) == CartanType("A", 3)
    assert parse_alpha_p("1, " + padded) == (1, 3)
    assert parse_lambda(padded + ",0,0", 3) == (3, 0, 0)
    message = "has 101 digits, more than the limit 100"
    with pytest.raises(InputError, match=f"^x {message}$"):
        parse_decimal("0" + padded, "x")
    with pytest.raises(InputError, match=f"^rank {message}$"):
        CartanType.parse("A0" + padded)
    with pytest.raises(InputError, match=f"^parabolic index {message}$"):
        parse_alpha_p("1, 0" + padded)
    with pytest.raises(InputError, match=f"^lambda coordinate {message}$"):
        parse_lambda("0" + padded + ",0,0", 3)


@pytest.mark.parametrize("text", ["", " 3", "3 ", "+3", "-3", "1_0", "٣", "²", "3.0"])
def test_parse_decimal_refuses_all_but_ascii_digits(text):
    with pytest.raises(InputError, match=f"^bad x {re.escape(repr(text))}; expected ASCII decimal digits$"):
        parse_decimal(text, "x")


def test_root_listing_is_deterministic():
    a3 = build_root_system(CartanType("A", 3))
    again = build_root_system(CartanType("A", 3))
    assert a3.positive_roots == again.positive_roots
    heights = [sum(g) for g in a3.positive_roots]
    assert heights == sorted(heights)
