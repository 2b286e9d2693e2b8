"""Affine comarks and the effective-class comparison diagnostic."""

import hashlib
from dataclasses import replace
from itertools import combinations, product

import pytest

from conecurves import parabolic
from conecurves.components import graded_solutions
from conecurves import (
    AffineComparison,
    CartanType,
    ConeSpace,
    InputError,
    InternalError,
    ParabolicData,
    build_cone,
    build_parabolic,
    build_root_system,
    comarks,
    compare_ne_ir,
    cone_from_ell,
    minimal_ample,
)

# Dual Coxeter numbers, frozen from the classical tables.
DUAL_COXETER = {
    "A1": 2, "A2": 3, "A3": 4, "A4": 5, "A5": 6, "A6": 7, "A7": 8, "A8": 9,
    "B2": 3, "B3": 5, "B4": 7, "B5": 9, "B6": 11, "B7": 13, "B8": 15,
    "C2": 3, "C3": 4, "C4": 5, "C5": 6, "C6": 7, "C7": 8, "C8": 9,
    "D3": 4, "D4": 6, "D5": 8, "D6": 10, "D7": 12, "D8": 14,
    "E6": 12, "E7": 18, "E8": 30,
    "F4": 9,
    "G2": 4,
}


def borel_cone(type_name):
    rs = build_root_system(CartanType.parse(type_name))
    p = build_parabolic(rs, tuple(range(1, rs.rank + 1)))
    return build_cone(p, minimal_ample(p), 1)


def test_comarks_a1():
    assert comarks(CartanType("A", 1)).comarks == (1, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_comarks_a_series_all_ones(n):
    assert comarks(CartanType("A", n)).comarks == (1,) * (n + 1)


def test_comarks_g2():
    marks = comarks(CartanType("G", 2)).comarks
    assert sorted(marks) == [1, 1, 2]
    assert sum(marks) == 4


def test_comarks_frozen_non_simply_laced():
    assert comarks(CartanType("B", 3)).comarks == (1, 1, 2, 1)
    assert comarks(CartanType("C", 3)).comarks == (1, 1, 1, 1)
    assert comarks(CartanType("F", 4)).comarks == (1, 2, 3, 2, 1)


def test_comark_zero_node_is_one():
    for name in ("A3", "B4", "C4", "D4", "E6", "F4", "G2"):
        assert comarks(CartanType.parse(name)).comarks[0] == 1


@pytest.mark.parametrize("name", sorted(DUAL_COXETER))
def test_comark_sums_are_dual_coxeter_numbers(name):
    assert sum(comarks(CartanType.parse(name)).comarks) == DUAL_COXETER[name]


def box_scan(weights, level):
    boxes = [range(level // w + 1) for w in weights]
    sols = [v for v in product(*boxes) if sum(a * b for a, b in zip(v, weights)) == level]
    return sorted(sols, key=lambda v: (sum(v), tuple(-c for c in v)))


@pytest.mark.parametrize("name", ("A1", "A2", "A4", "B2", "B4", "C3", "D4", "G2", "F4"))
def test_level_weights_match_box_scan(name):
    # The level-exactly-L dominant weights are the graded solutions of the
    # comark vector at target L.
    a = comarks(CartanType.parse(name))
    for level in range(9):
        assert list(graded_solutions(a.comarks, level)) == box_scan(a.comarks, level)


def test_compare_ne_ir_a1_degree_one_mismatch():
    cmp = compare_ne_ir(borel_cone("A1"), 1)
    assert cmp.ne_count == 1
    assert cmp.ir_count == 2
    assert not cmp.match


def test_compare_ne_ir_degree_zero_matches():
    for name in ("A1", "A2", "B2", "G2", "A3"):
        cmp = compare_ne_ir(borel_cone(name), 0)
        assert cmp.ne_count == cmp.ir_count == 1
        assert cmp.match


def test_compare_ne_ir_a2_degree_two():
    cmp = compare_ne_ir(borel_cone("A2"), 2)
    assert cmp.ne_count == 3
    assert cmp.ir_count == 6
    assert not cmp.match


def test_compare_ne_ir_never_raises_on_valid_input():
    for name in ("A1", "A2", "B2", "C3", "G2"):
        cone = borel_cone(name)
        for degree in range(7):
            compare_ne_ir(cone, degree)


def test_compare_ne_ir_requires_minimal_ample():
    rs = build_root_system(CartanType("A", 2))
    for nodes, ell in (((1,), (2,)), ((1, 2), (1, 2)), ((1, 2), (3, 1))):
        with pytest.raises(InputError) as exc:
            compare_ne_ir(cone_from_ell(build_parabolic(rs, nodes), ell, 1), 1)
        assert str(exc.value) == "the comparison is defined for the minimal ample embedding (all degrees 1)"


def test_compare_ne_ir_without_marked_nodes_has_no_factors():
    # No marked node: no factor, and both counts are those of the empty weight vector.
    p = ParabolicData(build_root_system(CartanType("A", 2)), (), (), (), 0)
    cone = ConeSpace(p, (), 1)
    assert compare_ne_ir(cone, 0) == AffineComparison(0, 1, 1, True, (), ())
    assert compare_ne_ir(cone, 2) == AffineComparison(2, 0, 0, True, (), ())


def test_compare_ne_ir_split_picard_factors():
    # Marked nodes 1 and 3 of A3 are non-adjacent: two A1 factors.
    rs = build_root_system(CartanType("A", 3))
    p = build_parabolic(rs, (1, 3))
    cone = build_cone(p, minimal_ample(p), 1)
    cmp = compare_ne_ir(cone, 1)
    assert cmp.factor_nodes == ((1,), (3,))
    assert cmp.factor_comarks == ((1, 1), (1, 1))
    # ne(1) has the two unit classes; each A1 factor has two level-1
    # weights and the vacuum, so the split count is 2*1 + 1*2 = 4.
    assert cmp.ne_count == 2
    assert cmp.ir_count == 4
    assert not cmp.match


def test_compare_ne_ir_connected_marked_block():
    # Marked nodes 1,2 of A3 form one A2 factor.
    rs = build_root_system(CartanType("A", 3))
    p = build_parabolic(rs, (1, 2))
    cone = build_cone(p, minimal_ample(p), 1)
    cmp = compare_ne_ir(cone, 1)
    assert cmp.factor_nodes == ((1, 2),)
    assert cmp.factor_comarks == ((1, 1, 1),)
    assert cmp.ne_count == 2
    assert cmp.ir_count == 3


# sha256 over every nonempty marked-node subset of every type of rank <= 8
# (2,465 subsets) of repr((type, subset, factor_nodes, factor_comarks)),
# one line each, recorded before the factors and their highest roots were
# taken from rootsys.highest_roots.
FACTOR_DIGEST = "57efb13cb1988b457c04bd20ec291f6b4c434460eadb0931ac00f6040be02c14"
RANK8_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)] + ["E6", "E7", "E8", "F4", "G2"]
)


def test_factors_and_comarks_of_every_marked_diagram_are_unchanged():
    digest = hashlib.sha256()
    subsets = 0
    for name in RANK8_TYPES:
        rs = build_root_system(CartanType.parse(name))
        for k in range(1, rs.rank + 1):
            for subset in combinations(range(1, rs.rank + 1), k):
                p = build_parabolic(rs, subset)
                cmp = compare_ne_ir(build_cone(p, minimal_ample(p), 1), 0)
                digest.update(repr((name, subset, cmp.factor_nodes, cmp.factor_comarks)).encode() + b"\n")
                subsets += 1
    assert subsets == 2465
    assert digest.hexdigest() == FACTOR_DIGEST


def test_compare_ne_ir_rejects_a_non_integral_comark():
    # With symmetrizer (1, 1) on B2 the highest root (1, 2) has half square
    # length 2, so the comark at node 1 would be 1/2.  The error is not
    # cached: the second call raises it again.
    rs = replace(build_root_system(CartanType("B", 2)), symmetrizer=(1, 1))
    p = build_parabolic(rs, (1, 2))
    cone = build_cone(p, minimal_ample(p), 1)
    for _ in range(2):
        with pytest.raises(InternalError, match="comark 1/2 at node 1"):
            compare_ne_ir(cone, 1)


def count_highest_roots_calls(monkeypatch):
    calls = []
    original = parabolic.highest_roots

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(parabolic, "highest_roots", counted)
    return calls


def test_compare_ne_ir_computes_the_factors_once_per_parabolic(monkeypatch):
    calls = count_highest_roots_calls(monkeypatch)
    rs = build_root_system(CartanType("A", 4))
    p = build_parabolic(rs, (1, 3, 4))
    cone = build_cone(p, minimal_ample(p), 1)
    results = [compare_ne_ir(cone, d) for d in range(11)]
    assert len(calls) == 1
    assert {(c.factor_nodes, c.factor_comarks) for c in results} == {(((1,), (3, 4)), ((1, 1), (1, 1, 1)))}
    # The factor split filled on first use is kept: every record shares its tuples.
    nodes, vecs, joined = p.factor_split
    assert joined == (1, 1, 1, 1, 1)
    assert all(c.factor_nodes is nodes and c.factor_comarks is vecs for c in results)
    # The factor split is not a field and the masks are one that comparison
    # and repr ignore: the parabolic still equals, hashes and prints like one
    # with nothing filled yet, and the root system like one without masks.
    fresh = build_parabolic(rs, (1, 3, 4))
    bare_rs = replace(rs, support_masks=())
    assert "factor_split" in vars(p) and "factor_split" not in vars(fresh)
    for filled, bare in ((p, fresh), (rs, bare_rs)):
        assert filled == bare
        assert hash(filled) == hash(bare)
        assert repr(filled) == repr(bare)


def test_replaced_parabolic_computes_its_factors_again(monkeypatch):
    calls = count_highest_roots_calls(monkeypatch)
    rs = build_root_system(CartanType("B", 2))
    p = build_parabolic(rs, (1, 2))
    assert p.factor_split == (((1, 2),), ((1, 1, 1),), (1, 1, 1))
    bad = replace(p, rs=replace(rs, symmetrizer=(1, 1)))
    with pytest.raises(InternalError, match="comark 1/2 at node 1"):
        bad.factor_split
    assert len(calls) == 2
    assert p.factor_split == (((1, 2),), ((1, 1, 1),), (1, 1, 1))
    assert len(calls) == 2
    # The split is never kept past an error: every use asks again.
    for tries in (3, 4):
        with pytest.raises(InternalError, match="comark 1/2 at node 1"):
            bad.factor_split
        assert len(calls) == tries
    assert "factor_split" not in vars(bad)
