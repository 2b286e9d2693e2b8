"""Untwisted affine level combinatorics and the effective-class comparison.

The comarks of a simple type are the coefficients of the highest root's
coroot expansion, prefixed with 1 at the affine node; their sum is the
dual Coxeter number.  Dominant integrable weights of level exactly L of
the untwisted affine algebra correspond to nonnegative integer vectors
(m_0, ..., m_r) with sum(comark[i] * m_i) = L.

compare_ne_ir sets those weight counts, taken over the simple factors
of the Picard lattice of the base (the connected components of the
marked subdiagram), side by side with the count of effective classes of
a given degree under the minimal ample embedding; the factors and their
comarks are read from the parabolic, which computes them once with
rootsys.highest_roots and rootsys.subsystem_comarks.  It is a diagnostic:
both counts are reported and equality is never assumed.  Each count is
one generating-function coefficient from components.count_solutions:
the weight count summed over all splittings of the degree among the
factors is the coefficient of the product of the factors' series, so it
is the count for all factor comark vectors concatenated.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import components
from .conegeom import ConeSpace
from .errors import InputError
from .rootsys import CartanType, build_root_system, highest_root, subsystem_comarks


@dataclass(frozen=True)
class AffineData:
    """Comark vector of an untwisted affine type; index 0 is the affine node."""

    cartan_type: CartanType
    comarks: tuple[int, ...]


def comarks(ctype: CartanType) -> AffineData:
    """Comarks of the untwisted affine algebra of a simple type."""
    rs = build_root_system(ctype)
    return AffineData(ctype, subsystem_comarks(rs, highest_root(rs)))


def level_weights(a: AffineData, level: int) -> list[tuple[int, ...]]:
    """Dominant affine weights of level exactly `level`.

    All nonnegative vectors (m_0, ..., m_r) with sum(comark[i] * m_i) =
    level, ordered by ascending coordinate sum then decreasing leading
    coordinates.  Level 0 yields only the vacuum.
    """
    if level < 0:
        raise InputError(f"level must be >= 0, got {level}")
    return list(components.graded_solutions(a.comarks, level))


@dataclass(frozen=True, slots=True, init=False)
class AffineComparison:
    """Side-by-side counts: effective classes vs level-exactly-degree affine weights."""

    degree: int
    ne_count: int
    ir_count: int
    match: bool
    factor_nodes: tuple[tuple[int, ...], ...]
    factor_comarks: tuple[tuple[int, ...], ...]

    # One per compare_ne_ir call: a hand-written __init__ (init=False: dataclass generates none) is cheaper
    # than a generated one.
    def __init__(
        self,
        degree: int,
        ne_count: int,
        ir_count: int,
        match: bool,
        factor_nodes: tuple[tuple[int, ...], ...],
        factor_comarks: tuple[tuple[int, ...], ...],
    ) -> None:
        _set_degree(self, degree)
        _set_ne_count(self, ne_count)
        _set_ir_count(self, ir_count)
        _set_match(self, match)
        _set_factor_nodes(self, factor_nodes)
        _set_factor_comarks(self, factor_comarks)


# A slot's member descriptor, bound once: its __set__ writes the slot past the frozen
# __setattr__, without the lookup on the type that object.__setattr__ makes at every call.
_set_degree = AffineComparison.degree.__set__
_set_ne_count = AffineComparison.ne_count.__set__
_set_ir_count = AffineComparison.ir_count.__set__
_set_match = AffineComparison.match.__set__
_set_factor_nodes = AffineComparison.factor_nodes.__set__
_set_factor_comarks = AffineComparison.factor_comarks.__set__


def compare_ne_ir(cone: ConeSpace, degree: int) -> AffineComparison:
    """Count effective classes of a degree against level-counted affine weights.

    Requires the minimal ample embedding (all degrees 1).  The weight
    count multiplies, over the simple factors of the marked subdiagram,
    the numbers of level-exactly-l_i dominant weights of each factor's
    untwisted affine algebra, summed over all splittings
    l_1 + ... + l_r = degree; that sum is the coefficient of t^degree in
    the product of the factors' series, so it is counted on the factor
    comark vectors concatenated.  With every node marked there is a
    single factor, the whole algebra.  Both counts are returned with a
    match flag; no equality is asserted.
    """
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    ell = cone.ell
    if ell.count(1) != len(ell):
        raise InputError("the comparison is defined for the minimal ample embedding (all degrees 1)")
    factors = cone.parabolic.factors
    nodes, vecs = zip(*factors) if factors else ((), ())
    ne_count = components.count_solutions(ell, degree)
    ir_count = components.count_solutions(sum(vecs, ()), degree)
    return AffineComparison(degree, ne_count, ir_count, ne_count == ir_count, nodes, vecs)
