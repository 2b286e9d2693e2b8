"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every criterion states its tolerance (all are exact equalities)
and a runtime bound, asserted here.
"""

import json
import time
from itertools import combinations, product

from conecurves import (
    CartanType,
    TildeClass,
    base_degree,
    build_cone,
    build_parabolic,
    build_root_system,
    chern_degree_tilde,
    classify,
    comarks,
    compare_ne_ir,
    cone_from_ell,
    count_components,
    dim_mor_tilde,
    e_intersection,
    fiber_dim,
    has_lines,
    is_nonempty,
    lemma_equiv_check,
    minimal_ample,
    ne,
    pair,
)
from conecurves.cli import main
from oracles import box_scan

POSITIVE_ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15, "A6": 21, "A7": 28, "A8": 36,
    "B2": 4, "B3": 9, "B4": 16, "B5": 25, "B6": 36, "B7": 49, "B8": 64,
    "C2": 4, "C3": 9, "C4": 16, "C5": 25, "C6": 36, "C7": 49, "C8": 64,
    "D3": 6, "D4": 12, "D5": 20, "D6": 30, "D7": 42, "D8": 56,
    "E6": 36, "E7": 63, "E8": 120,
    "F4": 24,
    "G2": 6,
}

DUAL_COXETER = {
    "A1": 2, "A2": 3, "A3": 4, "A4": 5, "A5": 6, "A6": 7, "A7": 8, "A8": 9,
    "B2": 3, "B3": 5, "B4": 7, "B5": 9, "B6": 11, "B7": 13, "B8": 15,
    "C2": 3, "C3": 4, "C4": 5, "C5": 6, "C6": 7, "C7": 8, "C8": 9,
    "D3": 4, "D4": 6, "D5": 8, "D6": 10, "D7": 12, "D8": 14,
    "E6": 12, "E7": 18, "E8": 30,
    "F4": 9,
    "G2": 4,
}

RANK3_TYPES = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2")


def _parabolics(names):
    for name in names:
        rs = build_root_system(CartanType.parse(name))
        for size in range(1, rs.rank + 1):
            for subset in combinations(range(1, rs.rank + 1), size):
                yield name, build_parabolic(rs, subset)


def _passed(k, detail):
    print(f"criterion {k}: PASS - {detail}")


def test_criterion_01_projective_plane_oracle():
    start = time.perf_counter()
    rs = build_root_system(CartanType("A", 1))
    cone = build_cone(build_parabolic(rs, (1,)), (1,), 1)
    for d in range(7):
        rep = classify(cone, d)
        assert len(rep.components) == 1
        assert rep.components[0].dimension == 3 * d + 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"plane-cone dimensions 3d+2 for d=0..6 ({elapsed:.3f}s)")


def test_criterion_02_quadric_cone_oracle():
    start = time.perf_counter()
    rs = build_root_system(CartanType("A", 1))
    cone = build_cone(build_parabolic(rs, (1,)), (2,), 1)
    rep = classify(cone, 2)
    assert len(rep.components) == 2
    assert [(c.beta.coeffs, c.vertex_multiplicity, c.dimension) for c in rep.components] == [
        ((1,), 0, 6),
        ((0,), 2, 6),
    ]
    assert rep.equidimensional
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(2, f"quadric cone: two components of dimension 6 ({elapsed:.3f}s)")


def test_criterion_03_dichotomy_sweep():
    start = time.perf_counter()
    checked = 0
    for _, p in _parabolics(RANK3_TYPES):
        for ell in product(range(1, 5), repeat=len(p.alpha_p)):
            cone = cone_from_ell(p, ell, 1)
            assert lemma_equiv_check(cone)
            assert (not has_lines(cone)) == all(l >= 2 for l in ell)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(3, f"lines dichotomy on {checked} cones ({elapsed:.3f}s)")


def test_criterion_04_dimension_cross_formula_sweep():
    start = time.perf_counter()
    checked = 0
    for _, p in _parabolics(RANK3_TYPES):
        k = len(p.alpha_p)
        betas = [b for b in product(range(4), repeat=k) if sum(b) <= 3]
        for ell in product(range(1, 3), repeat=k):
            for n in (1, 2, 3):
                cone = cone_from_ell(p, ell, n)
                for beta in betas:
                    l = base_degree(cone, beta)
                    for d in range(-12, 13):
                        if (d - n * l) % (n + 1):
                            continue
                        t = TildeClass(beta, d)
                        if not is_nonempty(cone, t):
                            continue
                        e = e_intersection(cone, t)
                        chern = chern_degree_tilde(cone, t)
                        branch = chern + cone.dim_x if d >= n * l else chern + cone.dim_x - e - 1
                        route = (
                            sum(b * c for b, c in zip(beta, p.chern_degrees))
                            + p.dim_gp
                            + fiber_dim(cone, t)
                        )
                        assert branch == route == dim_mor_tilde(cone, t)
                        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(4, f"dimension formulas agree on {checked} nonempty classes ({elapsed:.3f}s)")


def test_criterion_05_ne_brute_force_equivalence():
    start = time.perf_counter()

    bases = {}
    for k in (1, 2, 3):
        rs = build_root_system(CartanType("A", k))
        bases[k] = build_parabolic(rs, tuple(range(1, k + 1)))
    checked = 0
    for k in (1, 2, 3):
        for ell in product(range(1, 5), repeat=k):
            cone = cone_from_ell(bases[k], ell, 1)
            for degree in range(11):
                assert [b.coeffs for b in ne(cone, degree)] == box_scan(ell, degree)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _passed(5, f"ne equals the box-scan oracle on {checked} instances ({elapsed:.3f}s)")


def test_criterion_06_root_system_counts():
    start = time.perf_counter()
    for name, expect in POSITIVE_ROOT_COUNTS.items():
        ctype = CartanType.parse(name)
        rs = build_root_system(ctype)
        assert len(rs.positive_roots) == expect
        for i in range(1, rs.rank + 1):
            assert sum(pair(rs, i, g) for g in rs.positive_roots) == 2
        assert sum(comarks(ctype).comarks) == DUAL_COXETER[name]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(6, f"root counts, rho pairings and comark sums for {len(POSITIVE_ROOT_COUNTS)} types ({elapsed:.3f}s)")


def test_criterion_07_chern_degree_oracles():
    start = time.perf_counter()
    for n in range(1, 7):
        rs = build_root_system(CartanType("A", n))
        assert build_parabolic(rs, (1,)).chern_degrees == (n + 1,)
    rs = build_root_system(CartanType("A", 3))
    assert build_parabolic(rs, (2,)).chern_degrees == (4,)
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2"):
        rs = build_root_system(CartanType.parse(name))
        p = build_parabolic(rs, tuple(range(1, rs.rank + 1)))
        assert all(c == 2 for c in p.chern_degrees)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(7, f"projective-space, Grassmannian and full-flag anticanonical degrees ({elapsed:.3f}s)")


def test_criterion_08_no_lines_indexing():
    start = time.perf_counter()
    rs = build_root_system(CartanType("A", 1))
    cone = build_cone(build_parabolic(rs, (1,)), (2,), 1)
    for d in range(6):
        rep = classify(cone, d)
        assert count_components(cone, d) == len(rep.components)
        assert count_components(cone, d) == sum(len(ne(cone, dp)) for dp in range(d + 1))
        for c in rep.components:
            assert c.vertex_multiplicity + c.alpha_prime == d
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(8, f"no-lines stratified indexing on the quadric cone for d=0..5 ({elapsed:.3f}s)")


def test_criterion_09_affine_diagnostic_is_honest():
    start = time.perf_counter()
    a1 = build_root_system(CartanType("A", 1))
    pb = build_parabolic(a1, (1,))
    cone = build_cone(pb, minimal_ample(pb), 1)
    cmp = compare_ne_ir(cone, 1)
    assert (cmp.ne_count, cmp.ir_count, cmp.match) == (1, 2, False)
    for name in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(CartanType.parse(name))
        p = build_parabolic(rs, tuple(range(1, rs.rank + 1)))
        borel = build_cone(p, minimal_ample(p), 1)
        zero = compare_ne_ir(borel, 0)
        assert zero.match and zero.ne_count == 1
        for d in range(6):
            compare_ne_ir(borel, d)  # must never raise, whatever the verdict
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(9, f"level-count diagnostic reports 1 vs 2 mismatch and never aborts ({elapsed:.3f}s)")


def test_criterion_10_deterministic_cli_output(capsys):
    argv = ["classify", "--type", "A1", "--parabolic", "1", "--lambda", "2", "--vertex-dim", "1", "--degree", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["count"] == 2
    with capsys.disabled():
        _passed(10, "consecutive classify runs are byte-identical")
