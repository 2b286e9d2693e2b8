"""Cone geometry: exceptional intersections, nonemptiness, dimensions."""

from itertools import combinations, product

import pytest

from conecurves import conegeom
from conecurves import (
    CartanType,
    InputError,
    InternalError,
    Lift,
    TildeClass,
    base_degree,
    build_cone,
    build_parabolic,
    build_root_system,
    chern_degree_tilde,
    cone_from_ell,
    dim_mor_tilde,
    e_intersection,
    fiber_dim,
    has_lines,
    is_nonempty,
    lemma_equiv_check,
    lift,
)


def make_cone(type_name, subset, ell, n):
    rs = build_root_system(CartanType.parse(type_name))
    return cone_from_ell(build_parabolic(rs, subset), ell, n)


def test_cone_dimensions():
    cone = make_cone("A1", (1,), (2,), 1)
    assert cone.dim_x == 2
    cone = make_cone("A3", (2,), (1,), 3)
    assert cone.dim_x == 7


def test_vertexless_cone_rejected():
    rs = build_root_system(CartanType("A", 1))
    p = build_parabolic(rs, (1,))
    with pytest.raises(InputError):
        cone_from_ell(p, (1,), 0)


def test_ell_validation():
    rs = build_root_system(CartanType("A", 2))
    p = build_parabolic(rs, (1, 2))
    with pytest.raises(InputError):
        cone_from_ell(p, (1, 0), 1)
    with pytest.raises(InputError):
        cone_from_ell(p, (1,), 1)


def test_build_cone_validates_ample():
    rs = build_root_system(CartanType("A", 2))
    p = build_parabolic(rs, (1,))
    cone = build_cone(p, (2, 0), 1)
    assert cone.ell == (2,)
    with pytest.raises(InputError):
        build_cone(p, (2, 1), 1)


def test_has_lines_examples():
    assert has_lines(make_cone("A2", (1, 2), (1, 1), 1))
    assert not has_lines(make_cone("A1", (1,), (2,), 1))
    assert has_lines(make_cone("A3", (1, 3), (1, 5), 1))


def test_lemma_equiv_examples():
    assert lemma_equiv_check(make_cone("A2", (1, 2), (2, 3), 1))
    assert lemma_equiv_check(make_cone("A1", (1,), (1,), 1))


def test_lemma_equiv_exhaustive_small():
    rs = build_root_system(CartanType("A", 3))
    for subset in [(1,), (1, 2), (1, 2, 3)]:
        p = build_parabolic(rs, subset)
        for ell in product(range(1, 5), repeat=len(subset)):
            assert lemma_equiv_check(cone_from_ell(p, ell, 1))


def test_e_intersection_values():
    quad = make_cone("A1", (1,), (2,), 1)
    assert e_intersection(quad, TildeClass((1,), 2)) == 0
    assert e_intersection(quad, TildeClass((0,), 4)) == 2
    line3 = make_cone("A1", (1,), (1,), 2)
    assert e_intersection(line3, TildeClass((1,), 5)) == 1


def test_e_intersection_rejects_nonintegral():
    quad = make_cone("A1", (1,), (2,), 1)
    with pytest.raises(InputError):
        e_intersection(quad, TildeClass((0,), 3))
    with pytest.raises(InputError):
        e_intersection(quad, TildeClass((1,), 1))


def test_is_nonempty_examples():
    quad = make_cone("A1", (1,), (2,), 1)
    assert not is_nonempty(quad, TildeClass((1,), 0))  # 0 != -2 and 0 < 2
    quad3 = make_cone("A1", (1,), (2,), 2)
    assert is_nonempty(quad3, TildeClass((1,), -2))  # section inside E
    flag = make_cone("A2", (1, 2), (1, 1), 1)
    assert not is_nonempty(flag, TildeClass((1, -1), 0))  # base class not effective


def test_is_nonempty_n1_refinement():
    cone = make_cone("A1", (1,), (2,), 1)
    assert is_nonempty(cone, TildeClass((1,), -2))  # d == -l, constant section in E
    assert is_nonempty(cone, TildeClass((1,), 2))  # d == l
    assert not is_nonempty(cone, TildeClass((1,), 0))


def test_fiber_dim_examples():
    quad = make_cone("A1", (1,), (2,), 1)
    assert fiber_dim(quad, TildeClass((1,), 2)) == 3
    assert fiber_dim(quad, TildeClass((1,), -2)) == 0
    ruled = make_cone("A1", (1,), (1,), 2)
    assert fiber_dim(ruled, TildeClass((1,), 2)) == 4


def test_fiber_dim_rejects_empty_class():
    quad = make_cone("A1", (1,), (2,), 1)
    with pytest.raises(InputError):
        fiber_dim(quad, TildeClass((1,), 0))


def test_chern_degree_examples():
    plane = make_cone("A1", (1,), (1,), 1)
    assert chern_degree_tilde(plane, TildeClass((0,), 0)) == 0
    quad = make_cone("A1", (1,), (2,), 1)
    assert chern_degree_tilde(quad, TildeClass((1,), 2)) == 4
    p2cone = make_cone("A2", (1,), (1,), 1)
    assert chern_degree_tilde(p2cone, TildeClass((2,), 4)) == 10


def test_dim_mor_examples():
    plane = make_cone("A1", (1,), (1,), 1)
    assert dim_mor_tilde(plane, TildeClass((2,), 2)) == 8
    quad = make_cone("A1", (1,), (2,), 1)
    assert dim_mor_tilde(quad, TildeClass((0,), 4)) == 6
    assert dim_mor_tilde(quad, TildeClass((1,), -2)) == 3


def test_lift_fields():
    quad = make_cone("A1", (1,), (2,), 1)
    assert lift(quad, (1,), 2) == Lift(2, 2, 0, 2, True, 4, 3, 6, 6)
    assert lift(quad, (1,), 0) == Lift(2, 2, -1, 1, False, 2, None, None, None)
    # Both branches return a Lift, not a bare tuple: named fields and _replace work.
    for d, expected in (
        (2, Lift(base_degree=2, chern_base=2, e=0, x=2, nonempty=True, chern_degree=4,
                 fiber_dim=3, dim_branch=6, dim_base_fiber=6)),
        (0, Lift(base_degree=2, chern_base=2, e=-1, x=1, nonempty=False, chern_degree=2,
                 fiber_dim=None, dim_branch=None, dim_base_fiber=None)),
    ):
        lf = lift(quad, (1,), d)
        assert type(lf) is Lift and lf == expected
        moved = lf._replace(e=7)
        assert type(moved) is Lift and moved.e == 7 and moved[:2] == lf[:2] and moved[3:] == lf[3:]
    with pytest.raises(InputError):
        lift(quad, (1, 0), 2)
    with pytest.raises(InputError):
        lift(quad, (1,), 1)


def test_lift_names_the_non_divisible_remainder():
    for ell, n, d, message in (
        ((1,), 1, 0, "no class with relative degree 0 over a base class of degree 1: -1 is not divisible by 2"),
        ((2,), 2, 5, "no class with relative degree 5 over a base class of degree 2: 1 is not divisible by 3"),
    ):
        with pytest.raises(InputError) as caught:
            lift(make_cone("A1", (1,), ell, n), (1,), d)
        assert str(caught.value) == message


def test_dim_mor_rejects_empty_class():
    quad = make_cone("A1", (1,), (2,), 1)
    with pytest.raises(InputError):
        dim_mor_tilde(quad, TildeClass((1,), 0))


def test_dim_mor_raises_when_the_dimension_routes_disagree(monkeypatch):
    real = conegeom.lift

    def corrupted(cone, beta, d):
        lf = real(cone, beta, d)
        return lf._replace(dim_base_fiber=lf.dim_base_fiber + 1)

    monkeypatch.setattr(conegeom, "lift", corrupted)
    with pytest.raises(InternalError) as caught:
        dim_mor_tilde(make_cone("A1", (1,), (2,), 1), TildeClass((1,), 2))
    assert str(caught.value) == "dimension routes disagree: 6 != 7 for TildeClass(beta=(1,), relative_degree=2)"


def rank3_parabolics():
    for name in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"):
        rs = build_root_system(CartanType.parse(name))
        for size in range(1, rs.rank + 1):
            for subset in combinations(range(1, rs.rank + 1), size):
                yield name, build_parabolic(rs, subset)


def test_dimension_routes_and_sign_equivalences_sweep():
    checked = 0
    for name, p in rank3_parabolics():
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
                        e = e_intersection(cone, t)
                        x = (d + l) // (n + 1)
                        # Three-way sign equivalence.
                        assert (e >= 0) == (d >= n * l) == (x >= l)
                        # Pushforward degree two ways: l + e and the section twist.
                        assert lift(cone, beta, d).x == l + e == x
                        if not is_nonempty(cone, t):
                            continue
                        checked += 1
                        chern = chern_degree_tilde(cone, t)
                        branch = chern + cone.dim_x if d >= n * l else chern + cone.dim_x - e - 1
                        route = (
                            sum(b * c for b, c in zip(beta, p.chern_degrees))
                            + p.dim_gp
                            + fiber_dim(cone, t)
                        )
                        assert branch == route == dim_mor_tilde(cone, t)
                        if e < 0:
                            # Curves inside E exceed the expected dimension.
                            assert dim_mor_tilde(cone, t) >= chern + cone.dim_x
    assert checked > 5000
