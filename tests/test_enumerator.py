"""The graded enumerator behind ne, level_weights and the affine counts."""

from itertools import product

import pytest

from conecurves import CartanType, build_cone, build_parabolic, build_root_system, minimal_ample, ne
from conecurves.components import graded_solutions

E8_COMARKS = (1, 2, 3, 4, 6, 5, 4, 3, 2)


def sorted_box_scan(weights, target):
    """Reference: every vector of the box, kept at exact degree, then sorted by grade."""
    boxes = [range(target // w + 1) for w in weights]
    sols = [v for v in product(*boxes) if sum(a * b for a, b in zip(v, weights)) == target]
    return sorted(sols, key=lambda v: (sum(v), tuple(-c for c in v)))


def series_coefficient(weights, degree):
    """Coefficient of t^degree in prod 1/(1 - t^w), by integer dynamic programming."""
    coeff = [1] + [0] * degree
    for w in weights:
        for d in range(w, degree + 1):
            coeff[d] += coeff[d - w]
    return coeff[degree]


def test_all_small_weight_vectors_match_sorted_box_scan():
    for k in (1, 2, 3):
        for weights in product(range(1, 5), repeat=k):
            for target in range(11):
                assert list(graded_solutions(weights, target)) == sorted_box_scan(weights, target), (weights, target)


@pytest.mark.parametrize(
    "weights",
    [
        (1, 1, 1, 1, 1),
        (3, 1, 2, 5, 1),
        (2, 2, 2, 2, 2, 2),
        (6, 5, 4, 3, 2, 1),
        (1, 3, 1, 3, 1, 3, 1),
        (4, 1, 1, 2, 7, 2, 3, 1),
        E8_COMARKS,
    ],
)
def test_mixed_weights_match_sorted_box_scan(weights):
    for target in range(9):
        assert list(graded_solutions(weights, target)) == sorted_box_scan(weights, target), target


def test_target_zero_single_weight_and_unreachable_target():
    assert list(graded_solutions((3, 1, 2), 0)) == [(0, 0, 0)]
    assert list(graded_solutions((3,), 9)) == [(3,)]
    assert list(graded_solutions((3,), 10)) == []
    assert list(graded_solutions((2, 4, 6), 7)) == []
    assert list(graded_solutions((5, 7), 3)) == []


def test_ne_length_is_the_generating_function_coefficient():
    rs = build_root_system(CartanType("E", 8))
    p = build_parabolic(rs, tuple(range(1, 9)))
    cone = build_cone(p, minimal_ample(p), 1)
    for degree in range(7):
        assert len(ne(cone, degree)) == series_coefficient(cone.ell, degree)
    rs = build_root_system(CartanType("A", 3))
    cone = build_cone(build_parabolic(rs, (1, 2, 3)), (2, 3, 5), 2)
    for degree in range(25):
        assert len(ne(cone, degree)) == series_coefficient(cone.ell, degree)
