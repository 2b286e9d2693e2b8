"""Parabolic data: nilradical, anticanonical degrees, ample validation."""

import hashlib
from itertools import combinations

import pytest

from conecurves import (
    CartanType,
    InputError,
    build_parabolic,
    build_root_system,
    kappa,
    minimal_ample,
    pair,
    validate_ample,
)
from conecurves.parabolic import parse_alpha_p, parse_lambda
from conecurves.rootsys import _MAX_RANK, _MIN_RANK

RANK4_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2")


def nonempty_subsets(rank):
    for size in range(1, rank + 1):
        yield from combinations(range(1, rank + 1), size)


def test_projective_line():
    rs = build_root_system(CartanType("A", 1))
    p = build_parabolic(rs, (1,))
    assert p.nilradical == ((1,),)
    assert p.chern_degrees == (2,)
    assert p.dim_gp == 1


def test_projective_plane():
    rs = build_root_system(CartanType("A", 2))
    p = build_parabolic(rs, (1,))
    assert set(p.nilradical) == {(1, 0), (1, 1)}
    assert p.chern_degrees == (3,)
    assert p.dim_gp == 2


def test_grassmannian_of_planes():
    rs = build_root_system(CartanType("A", 3))
    p = build_parabolic(rs, (2,))
    assert p.dim_gp == 4
    assert len(p.nilradical) == 4
    assert p.chern_degrees == (4,)


def test_empty_parabolic_rejected():
    rs = build_root_system(CartanType("A", 2))
    with pytest.raises(InputError):
        build_parabolic(rs, ())


def test_out_of_range_index_rejected():
    rs = build_root_system(CartanType("A", 2))
    with pytest.raises(InputError):
        build_parabolic(rs, (3,))
    with pytest.raises(InputError):
        build_parabolic(rs, (0,))


def test_kappa_examples():
    a2 = build_root_system(CartanType("A", 2))
    assert kappa(build_parabolic(a2, (1, 2))) == (2, 2)
    assert kappa(build_parabolic(a2, (1,))) == (2, 0)
    a3 = build_root_system(CartanType("A", 3))
    assert kappa(build_parabolic(a3, (2,))) == (0, 2, 0)


def test_minimal_ample_examples():
    a2 = build_root_system(CartanType("A", 2))
    assert minimal_ample(build_parabolic(a2, (1, 2))) == (1, 1)
    a1 = build_root_system(CartanType("A", 1))
    assert minimal_ample(build_parabolic(a1, (1,))) == (1,)
    a3 = build_root_system(CartanType("A", 3))
    assert minimal_ample(build_parabolic(a3, (1, 3))) == (1, 0, 1)


def test_validate_ample_restriction():
    a2 = build_root_system(CartanType("A", 2))
    p = build_parabolic(a2, (1,))
    assert validate_ample(p, (2, 0)) == (2,)
    a3 = build_root_system(CartanType("A", 3))
    p13 = build_parabolic(a3, (1, 3))
    assert validate_ample(p13, (1, 0, 5)) == (1, 5)


def test_validate_ample_rejects_off_facet():
    a2 = build_root_system(CartanType("A", 2))
    p = build_parabolic(a2, (1,))
    with pytest.raises(InputError) as err:
        validate_ample(p, (1, 1))
    assert "lambda[2]" in str(err.value)
    with pytest.raises(InputError) as err:
        validate_ample(p, (0, 0))
    assert "lambda[1]" in str(err.value)


@pytest.mark.parametrize(
    "lam, message",
    [
        # Both coordinates are bad; the first in node order is named.
        ((0, 1), "lambda[1] = 0: coordinates on alpha(p) must be >= 1 for an ample class"),
        ((1, 3), "lambda[2] = 3: coordinates off alpha(p) must be 0"),
        ((1, 0, 0), "lambda has 3 coordinates, expected 2"),
    ],
)
def test_validate_ample_error_messages(lam, message):
    p = build_parabolic(build_root_system(CartanType("A", 2)), (1,))
    with pytest.raises(InputError) as err:
        validate_ample(p, lam)
    assert str(err.value) == message


@pytest.mark.parametrize("name", RANK4_TYPES)
def test_full_flag_chern_degrees_all_two(name):
    rs = build_root_system(CartanType.parse(name))
    p = build_parabolic(rs, tuple(range(1, rs.rank + 1)))
    assert p.nilradical == rs.positive_roots
    assert all(c == 2 for c in p.chern_degrees)
    # The degree vector then coincides with kappa on the marked nodes.
    assert p.chern_degrees == tuple(kappa(p)[i - 1] for i in p.alpha_p)


@pytest.mark.parametrize("name", RANK4_TYPES)
def test_chern_degrees_at_least_two(name):
    rs = build_root_system(CartanType.parse(name))
    for subset in nonempty_subsets(rs.rank):
        p = build_parabolic(rs, subset)
        assert all(c >= 2 for c in p.chern_degrees), (name, subset, p.chern_degrees)
        assert p.dim_gp == len(p.nilradical) > 0


# Fano data of G/P for maximal parabolics: (type, marked node, index c, dim G/P).
# Classical values, e.g. Gr(2,5) has index 5, the quadric Q^7 = B4/1 index 7,
# the Cayley plane E6/1 index 12 and the Freudenthal variety E7/7 index 18.
MAXIMAL_PARABOLIC_FANO_DATA = [
    ("A4", 2, 5, 6),
    ("B4", 1, 7, 7),
    ("B4", 4, 8, 10),
    ("C4", 1, 8, 7),
    ("C4", 4, 5, 10),
    ("D5", 1, 8, 8),
    ("D5", 5, 8, 10),
    ("E6", 1, 12, 16),
    ("E6", 2, 11, 21),
    ("E7", 7, 18, 27),
    ("E7", 1, 17, 33),
    ("E8", 8, 29, 57),
    ("E8", 1, 23, 78),
    ("F4", 1, 8, 15),
    ("F4", 4, 11, 15),
    ("G2", 1, 5, 5),
    ("G2", 2, 3, 5),
]


@pytest.mark.parametrize("name, node, chern, dim_gp", MAXIMAL_PARABOLIC_FANO_DATA)
def test_maximal_parabolic_fano_index_and_dimension(name, node, chern, dim_gp):
    p = build_parabolic(build_root_system(CartanType.parse(name)), (node,))
    assert (p.chern_degrees, p.dim_gp) == ((chern,), dim_gp)


@pytest.mark.parametrize("name", RANK4_TYPES)
def test_chern_degrees_match_per_root_pairing_oracle(name):
    # Independent oracle: pair each marked coroot with every nilradical
    # root one at a time and add the pairings, rather than pairing once
    # with the summed nilradical.
    rs = build_root_system(CartanType.parse(name))
    for subset in nonempty_subsets(rs.rank):
        p = build_parabolic(rs, subset)
        assert p.chern_degrees == tuple(sum(pair(rs, i, g) for g in p.nilradical) for i in subset)


# sha256 over repr((type, subset, nilradical, chern_degrees, dim_gp)) lines for
# every nonempty marked diagram of every type of rank <= 8, recorded before
# the Chern degrees were taken from the summed nilradical.
PARABOLIC_DIGEST = "39590b7b70c21ead9a0fe72b6c6f051a73934787658caf1a61f75ba58ec5d825"
RANK8_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)] + ["E6", "E7", "E8", "F4", "G2"]
)


def test_parabolics_of_every_marked_diagram_are_unchanged():
    digest = hashlib.sha256()
    subsets = 0
    for name in RANK8_TYPES:
        rs = build_root_system(CartanType.parse(name))
        for subset in nonempty_subsets(rs.rank):
            p = build_parabolic(rs, subset)
            digest.update(repr((name, subset, p.nilradical, p.chern_degrees, p.dim_gp)).encode() + b"\n")
            subsets += 1
    assert subsets == 2465
    assert digest.hexdigest() == PARABOLIC_DIGEST


# sha256 over repr((type, alpha_p, nilradical, chern_degrees, dim_gp, factors))
# lines, the factors as (nodes, comarks) pairs, for every admitted type at its
# full flag and at each single node, recorded while the Chern degrees were
# paired through rootsys.pair and the positive roots were ordered by one sort
# keyed on grade_key.
ADMITTED_PARABOLIC_DIGEST = "70c8df5d714c3dab5ca577cf6a42045628fc6dafe3400c21ac0e403564f5d5da"


def test_full_flag_and_single_node_parabolics_of_every_admitted_type_are_unchanged():
    digest = hashlib.sha256()
    parabolics = 0
    for series in "ABCDEFG":
        for rank in range(_MIN_RANK[series], _MAX_RANK[series] + 1):
            name = f"{series}{rank}"
            rs = build_root_system(CartanType(series, rank))
            for nodes in [tuple(range(1, rank + 1))] + [(i,) for i in range(1, rank + 1)]:
                p = build_parabolic(rs, nodes)
                line = (name, p.alpha_p, p.nilradical, p.chern_degrees, p.dim_gp, tuple(zip(*p.factor_split[:2])))
                digest.update(repr(line).encode() + b"\n")
                parabolics += 1
    assert parabolics == 697
    assert digest.hexdigest() == ADMITTED_PARABOLIC_DIGEST


@pytest.mark.parametrize("n", range(1, 7))
def test_dim_gp_a_series(n):
    rs = build_root_system(CartanType("A", n))
    assert build_parabolic(rs, (1,)).dim_gp == n
    assert build_parabolic(rs, tuple(range(1, n + 1))).dim_gp == n * (n + 1) // 2


@pytest.mark.parametrize("name", RANK4_TYPES)
def test_nilradical_matches_span_oracle(name):
    # Oracle: gamma lies in the Levi iff it is in the span of the
    # unmarked simple roots, i.e. vanishes on every marked coordinate.
    rs = build_root_system(CartanType.parse(name))
    for subset in nonempty_subsets(rs.rank):
        p = build_parabolic(rs, subset)
        oracle = tuple(
            g for g in rs.positive_roots if not all(g[i - 1] == 0 for i in subset)
        )
        assert p.nilradical == oracle


@pytest.mark.parametrize("name", RANK4_TYPES)
def test_minimal_ample_and_kappa_pass_validation(name):
    rs = build_root_system(CartanType.parse(name))
    for subset in nonempty_subsets(rs.rank):
        p = build_parabolic(rs, subset)
        assert validate_ample(p, minimal_ample(p)) == (1,) * len(subset)
        assert validate_ample(p, kappa(p)) == (2,) * len(subset)


def test_duplicate_indices_coalesce():
    rs = build_root_system(CartanType("A", 3))
    assert build_parabolic(rs, (2, 2, 1)).alpha_p == (1, 2)


def test_parse_alpha_p():
    assert parse_alpha_p("2") == (2,)
    assert parse_alpha_p("1,3") == (1, 3)
    with pytest.raises(InputError):
        parse_alpha_p("")
    with pytest.raises(InputError):
        parse_alpha_p("1,x")


def test_parse_lambda():
    assert parse_lambda("1,0,2", 3) == (1, 0, 2)
    with pytest.raises(InputError):
        parse_lambda("1,2", 3)
    with pytest.raises(InputError):
        parse_lambda("1,b,2", 3)
