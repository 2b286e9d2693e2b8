"""The graded enumerator behind ne and checked_solutions, and the counting routine beside it."""

import random
import subprocess
import sys
import time
from itertools import product
from math import comb, prod

import pytest

from conecurves import (
    CartanType,
    build_cone,
    build_parabolic,
    build_root_system,
    comarks,
    compare_ne_ir,
    minimal_ample,
    ne,
)
from conecurves import components
from conecurves.components import _count_by_halving, count_solutions, graded_solutions
from oracles import box_scan

E8_COMARKS = (1, 2, 3, 4, 6, 5, 4, 3, 2)
F4_COMARKS = (1, 2, 3, 2, 1)


@pytest.mark.parametrize("name, vector", [("E8", E8_COMARKS), ("F4", F4_COMARKS)])
def test_the_comark_constants_are_the_comarks_of_their_type(name, vector):
    assert vector == comarks(CartanType.parse(name)).comarks


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
                want = box_scan(weights, target)
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
        want = box_scan(weights, target)
        assert list(graded_solutions(weights, target)) == want, target
        assert count_solutions(weights, target) == len(want), target


def equal_suffix_start(weights):
    """The first index from which the weights are all equal."""
    return next(i for i in range(len(weights)) if len(set(weights[i:])) == 1)


def equal_tail_weights(seed, per_shape=2):
    """Seeded weight vectors whose equal tail has each length 1..k, for k <= 8.

    The tail weight differs from the weight before it, so the equal
    suffix starts exactly k - tail coordinates in; a head of two or more
    ends in an unequal pair on the first vector of each shape, and any
    head puts a general frame above the tail.
    """
    rng = random.Random(seed)
    for k in range(1, 9):
        for tail in range(1, k + 1):
            for n in range(per_shape):
                a = 1 if n == 0 else rng.randint(1, 3)
                head = [rng.randint(1, 4) for _ in range(k - tail)]
                if len(head) >= 2 and n == 0:
                    head[-2] = head[-1] + rng.randint(1, 2)
                if head and head[-1] == a:
                    head[-1] = a + 1
                yield tuple(head + [a] * tail)


def test_equal_tails_of_every_length_match_sorted_box_scan():
    # Every target whose box, the brute force's work, holds at most 7,000 vectors:
    # 3^8 = 6,561 admits compositions of 2 into all eight coordinates of ell = 1^8.
    spread = set()
    for weights in equal_tail_weights(seed=34):
        k = len(weights)
        e = equal_suffix_start(weights)
        assert e == 0 or weights[e - 1] != weights[e]
        for target in range(13):
            if prod(target // w + 1 for w in weights) > 7000:
                break
            got = list(graded_solutions(weights, target))
            assert got == box_scan(weights, target), (weights, target)
            if any(sum(map(bool, v[e:])) >= 2 for v in got):
                spread.add((k, k - e))
    # Each tail of two or more coordinates listed a row that splits its sum.
    assert spread == {(k, tail) for k in range(2, 9) for tail in range(2, k + 1)}


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
    prefix of length j whose remainder (s', t') the suffix can still
    reach, min(suffix) * s' <= t' <= max(suffix) * s', for j up to the
    first index e from which the weights are all equal, and up to k - 2:
    a frame on an equal suffix lists its compositions itself, and a last
    pair of unequal weights is solved inside its frame.  With k = 1 the
    one frame has j = 0.
    """
    k = len(weights)
    e = equal_suffix_start(weights)

    def reachable(j, s, t):
        return min(weights[j:]) * s <= t <= max(weights[j:]) * s

    count = 0
    for s in range(target + 1):
        for j in range(max(min(e, k - 2), 0) + 1):
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
    # The E8 full flag under the minimal ample weight: ell = 1^8, one equal suffix from the
    # first coordinate, so its comb(15, 7) = 6,435 rows at d = 8 come from one frame.
    p = build_parabolic(build_root_system(CartanType("E", 8)), tuple(range(1, 9)))
    ell = build_cone(p, minimal_ample(p), 1).ell
    assert fill_frames(ell, 8) == feasible_prefixes(ell, 8) == 1
    assert len(list(graded_solutions(ell, 8))) == comb(15, 7)


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


def test_the_memo_gives_the_uncached_counts():
    uncached = count_solutions.__wrapped__
    huge = 10**49  # 50 digits
    cases = [
        ((3, 1, 2), 7),  # recurrence
        (E8_COMARKS, 119),  # recurrence, largest target below the halving route
        ((2, 1), 1500),  # halving
        (E8_COMARKS, 100_000),  # halving, at the degree limit
        ((huge, 1, 2), 100_000),  # recurrence, forced by the huge weight
    ]
    for weights, target in cases:
        want = uncached(weights, target)
        assert count_solutions(weights, target) == want, (weights, target)  # computed
        assert count_solutions(weights, target) == want, (weights, target)  # remembered
    info = count_solutions.cache_info()
    assert (info.hits, info.misses, info.currsize) == (len(cases), len(cases), len(cases))


def test_the_memo_is_bounded():
    bound = components._COUNT_MEMO_SIZE
    for w in range(1, bound + 11):
        assert count_solutions((w,), w) == 1
    info = count_solutions.cache_info()
    assert info.currsize == info.maxsize == bound
    count_solutions((1,), 1)  # the least recently used pair was dropped
    assert count_solutions.cache_info().misses == info.misses + 1


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
