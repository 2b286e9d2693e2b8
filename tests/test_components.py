"""Component classification: index sets, dimensions, multiplicities."""

from itertools import product

import pytest

from conecurves import components
from conecurves import (
    CartanType,
    EffectiveClass,
    InputError,
    InternalError,
    build_cone,
    build_parabolic,
    build_root_system,
    classify,
    cone_from_ell,
    count_components,
    dim_mor_tilde,
    has_lines,
    is_equidimensional,
    ne,
    total_degree,
)


def make_cone(type_name, subset, ell, n):
    rs = build_root_system(CartanType.parse(type_name))
    return cone_from_ell(build_parabolic(rs, subset), ell, n)


def box_scan(ell, degree):
    """Independent oracle: scan the whole box, keep exact-degree vectors."""
    boxes = [range(degree // l + 1) for l in ell]
    sols = [v for v in product(*boxes) if sum(a * b for a, b in zip(v, ell)) == degree]
    return sorted(sols, key=lambda v: (sum(v), tuple(-c for c in v)))


def test_ne_examples():
    flag = make_cone("A2", (1, 2), (1, 1), 1)
    assert [b.coeffs for b in ne(flag, 2)] == [(2, 0), (1, 1), (0, 2)]
    quad = make_cone("A1", (1,), (2,), 1)
    assert ne(quad, 3) == []
    assert [b.coeffs for b in ne(quad, 0)] == [(0,)]
    assert [b.coeffs for b in ne(flag, 0)] == [(0, 0)]


def test_ne_rejects_negative_degree():
    quad = make_cone("A1", (1,), (2,), 1)
    with pytest.raises(InputError):
        ne(quad, -1)


def test_ne_matches_box_scan_oracle():
    bases = {k: make_cone(f"A{k}", tuple(range(1, k + 1)), (1,) * k, 1).parabolic for k in (1, 2, 3)}
    for k in (1, 2, 3):
        for ell in product(range(1, 5), repeat=k):
            cone = cone_from_ell(bases[k], ell, 1)
            for degree in range(11):
                got = [b.coeffs for b in ne(cone, degree)]
                assert got == box_scan(ell, degree), (ell, degree)


def test_total_degree():
    cone = make_cone("A3", (1, 3), (1, 5), 1)
    assert total_degree(cone, EffectiveClass((2, 1))) == 7
    assert total_degree(cone, EffectiveClass((0, 0))) == 0
    quad = make_cone("A1", (1,), (2,), 1)
    assert total_degree(quad, EffectiveClass((3,))) == 6


def test_effective_class_rejects_negative():
    with pytest.raises(InputError):
        EffectiveClass((1, -1))


def test_classify_plane_cone():
    # Cone over a line embedded linearly is the projective plane.
    plane = make_cone("A1", (1,), (1,), 1)
    rep = classify(plane, 2)
    assert rep.case == "lines"
    assert len(rep.components) == 1
    only = rep.components[0]
    assert only.beta.coeffs == (2,)
    assert only.vertex_multiplicity == 0
    assert only.dimension == 8
    assert rep.equidimensional


def test_classify_quadric_cone():
    quad = make_cone("A1", (1,), (2,), 1)
    rep = classify(quad, 2)
    assert rep.case == "no_lines"
    facts = [(c.beta.coeffs, c.vertex_multiplicity, c.dimension) for c in rep.components]
    assert facts == [((1,), 0, 6), ((0,), 2, 6)]
    assert rep.equidimensional


def test_classify_degree_zero():
    for cone in (
        make_cone("A1", (1,), (1,), 1),
        make_cone("A1", (1,), (2,), 1),
        make_cone("A3", (1, 3), (2, 3), 2),
    ):
        rep = classify(cone, 0)
        assert len(rep.components) == 1
        only = rep.components[0]
        assert not any(only.beta.coeffs)
        assert only.dimension == cone.dim_x


def test_classify_rejects_negative_degree():
    with pytest.raises(InputError):
        classify(make_cone("A1", (1,), (1,), 1), -2)


def test_lines_case_multiplicities_and_lift_dimensions():
    cone = make_cone("A2", (1, 2), (1, 2), 1)
    assert has_lines(cone)
    for degree in range(6):
        rep = classify(cone, degree)
        assert rep.case == "lines"
        for c in rep.components:
            assert c.vertex_multiplicity == 0
            assert c.alpha_prime == degree
            assert c.dimension == dim_mor_tilde(cone, c.tilde)


def test_no_lines_case_stratification():
    cone = make_cone("A2", (1, 2), (2, 3), 1)
    for degree in range(6):
        rep = classify(cone, degree)
        assert rep.case == "no_lines"
        seen = set()
        for c in rep.components:
            assert c.vertex_multiplicity + c.alpha_prime == degree
            assert c.dimension == dim_mor_tilde(cone, c.tilde)
            key = (c.beta.coeffs, c.vertex_multiplicity)
            assert key not in seen
            seen.add(key)
        assert len(rep.components) == count_components(cone, degree)


def test_lines_means_every_degree_is_populated():
    cone = make_cone("A3", (1, 3), (1, 5), 2)
    assert has_lines(cone)
    for degree in range(9):
        assert ne(cone, degree)


def test_count_components_examples():
    flag = make_cone("A2", (1, 2), (1, 1), 1)
    assert count_components(flag, 2) == 3
    quad = make_cone("A1", (1,), (2,), 1)
    assert count_components(quad, 2) == 2  # ne(0) + ne(2); ne(1) is empty
    assert count_components(quad, 0) == 1


def test_is_equidimensional_quadric_cone():
    quad = make_cone("A1", (1,), (2,), 1)
    rep = is_equidimensional(quad, 2)
    assert rep.equidimensional and rep.closed_form and rep.agree
    assert rep.case == "no_lines"


def test_is_equidimensional_full_flag_minimal():
    cone = make_cone("A2", (1, 2), (1, 1), 1)
    rep = is_equidimensional(cone, 2)
    assert rep.equidimensional and rep.closed_form and rep.agree


def test_is_equidimensional_mixed_degrees():
    cone = make_cone("A2", (1, 2), (1, 2), 1)
    rep = is_equidimensional(cone, 2)
    assert not rep.equidimensional
    assert not rep.closed_form
    assert rep.agree
    assert sorted(rep.dimensions) == [8, 10]


def test_closed_form_is_reported_not_trusted():
    # One component at degree 0 is always equidimensional even when the
    # closed-form criterion fails; the diagnostic must surface that.
    cone = make_cone("A2", (1, 2), (1, 2), 1)
    rep = is_equidimensional(cone, 0)
    assert rep.equidimensional
    assert not rep.closed_form
    assert not rep.agree


def test_dimension_formula_constancy_matches_equidimensionality():
    # Dimensions depend on beta only through <beta, chern - ell>; direct
    # computation must agree with that characterization stratum by stratum.
    for ell in ((2, 2), (2, 3), (3, 2), (2, 4)):
        cone = make_cone("A2", (1, 2), ell, 1)
        for degree in range(5):
            rep = classify(cone, degree)
            chern = cone.parabolic.chern_degrees
            spreads = {
                sum(b * (c - l) for b, c, l in zip(c_.beta.coeffs, chern, cone.ell))
                for c_ in rep.components
            }
            assert rep.equidimensional == (len(spreads) <= 1)


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda lf: lf._replace(e=lf.e + 1), "is not a valid nonempty class"),
        (lambda lf: lf._replace(nonempty=False), "is not a valid nonempty class"),
        (lambda lf: lf._replace(dim_base_fiber=lf.dim_base_fiber + 1), "dimension routes disagree"),
        (lambda lf: lf._replace(dim_branch=lf.dim_branch + 1, dim_base_fiber=lf.dim_base_fiber + 1),
         "disagrees with the lifted morphism space"),
    ],
    ids=["e-is-multiplicity", "nonempty", "routes-agree", "dimension-formula"],
)
def test_classify_lift_checks_can_fail(monkeypatch, corrupt, message):
    real = components.lift
    monkeypatch.setattr(components, "lift", lambda cone, beta, d: corrupt(real(cone, beta, d)))
    with pytest.raises(InternalError, match=message):
        classify(make_cone("A1", (1,), (2,), 1), 2)
