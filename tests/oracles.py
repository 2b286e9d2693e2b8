"""Brute-force references shared by the test modules."""

from itertools import product


def box_scan(weights, target):
    """Every nonnegative v with <v, weights> = target, in grade_key order.

    Scans the whole box prod [0, target // w], keeps the vectors of exact
    degree and sorts them by coordinate sum, then by decreasing
    lexicographic order: the order graded_solutions and ne list in.
    """
    boxes = [range(target // w + 1) for w in weights]
    sols = [v for v in product(*boxes) if sum(a * b for a, b in zip(v, weights)) == target]
    return sorted(sols, key=lambda v: (sum(v), tuple(-c for c in v)))
