"""Independent toric oracle for cones over projective spaces.

The cone over (P^m, O(l)) with an n-dimensional vertex summand is the
weighted projective space P(1^(m+1), l^n) (Cox, "The homogeneous
coordinate ring of a toric variety", 1995).  A map P^1 -> P(1^(m+1), l^n)
of degree l*a that avoids the vertex is given by m+1 binary forms of
degree a and n binary forms of degree l*a, not all of the first kind
vanishing at once, up to the common scaling.  So the vertex-avoiding
component of degree l*a has dimension

    (m+1)(a+1) + n(l*a+1) - 1,

counted from the forms alone, with no root data, Chern degrees or lifts
to the resolution.  The library's classify and dim_mor_tilde are checked
against that count.
"""

from itertools import product

import pytest

from conecurves import CartanType, TildeClass, build_cone, build_parabolic, build_root_system, classify, dim_mor_tilde


def toric_dimension(m, ell, n, a):
    return (m + 1) * (a + 1) + n * (ell * a + 1) - 1


@pytest.mark.parametrize("m", range(1, 6))
def test_vertex_avoiding_components_match_the_weighted_projective_count(m):
    rs = build_root_system(CartanType("A", m))
    p = build_parabolic(rs, (1,))
    cases = 0
    for ell, n, a in product(range(1, 4), range(1, 4), range(6)):
        cone = build_cone(p, (ell,) + (0,) * (m - 1), n)
        expected = toric_dimension(m, ell, n, a)
        report = classify(cone, ell * a)
        avoiding = [c for c in report.components if c.vertex_multiplicity == 0 and c.beta.coeffs == (a,)]
        assert len(avoiding) == 1, (m, ell, n, a)
        assert avoiding[0].dimension == expected, (m, ell, n, a)
        assert dim_mor_tilde(cone, TildeClass((a,), n * ell * a)) == expected, (m, ell, n, a)
        cases += 1
    assert cases == 54
