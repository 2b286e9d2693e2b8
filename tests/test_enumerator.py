"""The graded enumerator behind ne and level_weights, and the counting routine beside it."""

import subprocess
import sys
import time
from itertools import product
from math import comb

import pytest

from conecurves import CartanType, build_cone, build_parabolic, build_root_system, compare_ne_ir, minimal_ample, ne
from conecurves import components
from conecurves.components import _count_by_halving, count_solutions, graded_solutions

E8_COMARKS = (1, 2, 3, 4, 6, 5, 4, 3, 2)
F4_COMARKS = (1, 2, 3, 4, 2)


def sorted_box_scan(weights, target):
    """Reference: every vector of the box, kept at exact degree, then sorted by grade."""
    boxes = [range(target // w + 1) for w in weights]
    sols = [v for v in product(*boxes) if sum(a * b for a, b in zip(v, weights)) == target]
    return sorted(sols, key=lambda v: (sum(v), tuple(-c for c in v)))


def series(weights, degree):
    """Coefficients of t^0 .. t^degree in prod 1/(1 - t^w), by integer dynamic programming."""
    coeff = [1] + [0] * degree
    for w in weights:
        for d in range(w, degree + 1):
            coeff[d] += coeff[d - w]
    return coeff


def series_coefficient(weights, degree):
    """Coefficient of t^degree in prod 1/(1 - t^w)."""
    return series(weights, degree)[degree]


@pytest.fixture
def no_halving(monkeypatch):
    """Make the halving route raise, so a call that returns took the recurrence."""

    def refuse(weights, target):
        raise AssertionError(f"halving route taken for {weights}, {target}")

    monkeypatch.setattr(components, "_count_by_halving", refuse)


def test_all_small_weight_vectors_match_sorted_box_scan():
    for k in (1, 2, 3):
        for weights in product(range(1, 5), repeat=k):
            for target in range(11):
                want = sorted_box_scan(weights, target)
                assert list(graded_solutions(weights, target)) == want, (weights, target)
                assert count_solutions(weights, target) == len(want), (weights, target)


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
        want = sorted_box_scan(weights, target)
        assert list(graded_solutions(weights, target)) == want, target
        assert count_solutions(weights, target) == len(want), target


def test_target_zero_single_weight_and_unreachable_target():
    assert list(graded_solutions((3, 1, 2), 0)) == [(0, 0, 0)]
    assert list(graded_solutions((3,), 9)) == [(3,)]
    assert list(graded_solutions((3,), 10)) == []
    assert list(graded_solutions((2, 4, 6), 7)) == []
    assert list(graded_solutions((5, 7), 3)) == []


FILL_CODE = next(c for c in graded_solutions.__code__.co_consts if getattr(c, "co_name", None) == "fill")


def fill_frames(weights, target):
    """Distinct `fill` frames that listing graded_solutions(weights, target) opens."""
    frames = set()
    outer = sys.getprofile()

    def profile(frame, event, arg):
        if frame.f_code is FILL_CODE:
            frames.add(frame)

    sys.setprofile(profile)
    try:
        for _ in graded_solutions(weights, target):
            pass
    finally:
        sys.setprofile(outer)
    return len(frames)


def vectors_with_sum_at_most(length, s):
    if length == 0:
        yield ()
        return
    for v in range(s + 1):
        for rest in vectors_with_sum_at_most(length - 1, s - v):
            yield (v,) + rest


def feasible_prefixes(weights, target):
    """Brute force: how many `fill` frames listing the solutions needs.

    Each coordinate sum s whose degree the weights can reach, then each
    prefix of length at most k - 2 whose remainder (s', t') the suffix
    can still reach: min(suffix) * s' <= t' <= max(suffix) * s'.  The
    last two coordinates are solved inside their frame.
    """
    k = len(weights)

    def reachable(j, s, t):
        return min(weights[j:]) * s <= t <= max(weights[j:]) * s

    count = 0
    for s in range(target + 1):
        for j in range(max(k - 1, 1)):
            for prefix in vectors_with_sum_at_most(j, s):
                t = target - sum(a * b for a, b in zip(prefix, weights))
                count += reachable(j, s - sum(prefix), t)
    return count


def test_the_enumerator_opens_exactly_the_feasible_prefixes():
    # Pins the work, not just the rows: a looser bound lists the same rows
    # through more frames.
    for k in (1, 2, 3, 4):
        for weights in product(range(1, 5), repeat=k):
            for target in range(11):
                assert fill_frames(weights, target) == feasible_prefixes(weights, target), (weights, target)
    p = build_parabolic(build_root_system(CartanType("E", 8)), tuple(range(1, 9)))
    ell = build_cone(p, minimal_ample(p), 1).ell
    assert fill_frames(ell, 8) == feasible_prefixes(ell, 8) == comb(15, 6) == 5005


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


def test_count_negative_zero_and_unreachable_targets():
    assert count_solutions((3, 1, 2), -1) == 0
    assert count_solutions((), -4) == 0
    assert count_solutions((3, 1, 2), 0) == 1
    assert count_solutions((), 0) == 1
    assert count_solutions((), 3) == 0
    assert count_solutions((3,), 10) == 0
    assert count_solutions((2, 4, 6), 7) == 0
    assert count_solutions((5, 7), 3) == 0


def test_compare_ne_ir_e8_degree_40_counts_without_enumerating():
    rs = build_root_system(CartanType("E", 8))
    p = build_parabolic(rs, tuple(range(1, 9)))
    cone = build_cone(p, minimal_ample(p), 1)
    start = time.perf_counter()
    cmp = compare_ne_ir(cone, 40)
    elapsed = time.perf_counter() - start
    assert cmp.ne_count == 62891499
    assert elapsed < 1.0


def test_halving_equals_the_recurrence_on_small_weights():
    for k in (1, 2, 3, 4):
        for weights in product(range(1, 6), repeat=k):
            want = series(weights, 80)
            assert [_count_by_halving(weights, t) for t in range(81)] == want, weights


@pytest.mark.parametrize("weights", [E8_COMARKS, F4_COMARKS, (2,) * 8 + (1,)], ids=["E8", "F4", "E8-no-lines"])
def test_halving_equals_the_recurrence_on_comark_vectors(weights):
    want = series(weights, 200)
    assert [_count_by_halving(weights, t) for t in range(201)] == want


@pytest.mark.parametrize("k", [1, 8, 21])
def test_all_ones_count_is_a_binomial_at_the_degree_limit(k):
    assert count_solutions((1,) * k, 100_000) == comb(100_000 + k - 1, k - 1)


def test_weights_two_and_one_count_at_the_degree_limit():
    for t in (99_999, 100_000):
        assert count_solutions((2, 1), t) == t // 2 + 1


def test_small_targets_never_take_the_halving_route(no_halving):
    # Up to 119 the estimate is at least k * target; at weights (1,) and 119 it is equal.
    for k in (1, 2, 3):
        for weights in product(range(1, 6), repeat=k):
            want = series(weights, 119)
            assert [count_solutions(weights, t) for t in range(120)] == want, weights
    for weights in ((1,), (1,) * 21, E8_COMARKS):
        assert count_solutions(weights, 119) == series_coefficient(weights, 119)


def test_a_huge_weight_takes_the_recurrence_at_once(no_halving):
    huge = 10**49  # 50 digits
    start = time.perf_counter()
    assert count_solutions((huge,), 100_000) == 0
    assert count_solutions((huge, 1, 2), 100_000) == 50_001
    assert time.perf_counter() - start < 1.0


def test_large_targets_with_small_weights_take_the_halving_route(monkeypatch):
    taken = []
    real = components._count_by_halving
    monkeypatch.setattr(components, "_count_by_halving", lambda w, t: taken.append((w, t)) or real(w, t))
    assert count_solutions((2, 1), 1500) == 751  # the A1 conic count at d = 1500
    assert count_solutions((1,), 1500) == 1
    assert count_solutions((1,), 120) == 1  # the estimate 119 is below k * target
    assert count_solutions(E8_COMARKS, 100_000) == series_coefficient(E8_COMARKS, 100_000)
    assert taken == [((2, 1), 1500), ((1,), 1500), ((1,), 120), (E8_COMARKS, 100_000)]


def cli(*argv):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "conecurves", *argv], capture_output=True, text=True)
    return proc, time.perf_counter() - start


def test_cli_affine_compare_e8_at_the_degree_limit():
    proc, elapsed = cli("affine-compare", "--type", "E8", "--degree", "100000")
    assert proc.returncode == 0, proc.stderr
    assert f"ne={comb(100_007, 7)} " in proc.stdout
    assert elapsed < 1.0


def test_cli_refuses_the_a21_full_flag_at_the_degree_limit_at_once():
    nodes = ",".join(map(str, range(1, 22)))
    proc, elapsed = cli(
        "classify", "--type", "A21", "--parabolic", nodes, "--lambda", "min", "--vertex-dim", "1", "--degree", "100000"
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"the request has {comb(100_020, 20)} components" in proc.stderr
    assert elapsed < 1.0
