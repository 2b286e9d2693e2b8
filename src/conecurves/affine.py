"""Untwisted affine level combinatorics and the effective-class comparison.

The comarks of a simple type are the coefficients of the highest root's
coroot expansion, prefixed with 1 at the affine node; their sum is the
dual Coxeter number.  Dominant integrable weights of level exactly L of
the untwisted affine algebra correspond to nonnegative integer vectors
(m_0, ..., m_r) with sum(comark[i] * m_i) = L.

compare_ne_ir sets those weight counts, taken over the simple factors
of the Picard lattice of the base (the connected components of the
marked subdiagram), side by side with the count of effective classes of
a given degree under the minimal ample embedding.  It is a diagnostic:
both counts are reported and equality is never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import components
from .conegeom import ConeSpace
from .errors import InputError, InternalError
from .rootsys import CartanType, RootSystem, build_root_system, grade_key


@dataclass(frozen=True)
class AffineData:
    """Comark vector of an untwisted affine type; index 0 is the affine node."""

    cartan_type: CartanType
    comarks: tuple[int, ...]


def comarks(ctype: CartanType) -> AffineData:
    """Comarks of the untwisted affine algebra of a simple type."""
    rs = build_root_system(ctype)
    return AffineData(ctype, _subsystem_comarks(rs, tuple(range(1, rs.rank + 1))))


def _subsystem_comarks(rs: RootSystem, nodes: tuple[int, ...]) -> tuple[int, ...]:
    """Comark vector of the simple subsystem on a connected node subset.

    The subsystem's positive roots are the positive roots supported in
    the subset; its highest root theta gives comark_j =
    m_j * d_j / d_theta where m is the simple-root expansion of theta
    and d the symmetrizer (d_theta the half square length of theta in
    the same normalization).  The affine node contributes comark 1.
    """
    node_set = set(nodes)
    outside = [i for i in range(1, rs.rank + 1) if i not in node_set]
    sub = [g for g in rs.positive_roots if not any(g[i - 1] for i in outside)]
    if not sub:
        raise InternalError("empty root subsystem")
    theta = max(sub, key=grade_key)
    for g in sub:
        if any(a < b for a, b in zip(theta, g)):
            raise InternalError("node subset is not connected: no highest root in the subsystem")
    d = rs.symmetrizer
    C = rs.cartan
    norm = sum(
        theta[i] * d[i] * C[i][j] * theta[j] for i in range(rs.rank) for j in range(rs.rank)
    )
    if norm <= 0 or norm % 2:
        raise InternalError(f"square length {norm} of the highest root is not a positive even integer")
    d_theta = norm // 2
    out = [1]
    for j in sorted(node_set):
        c = Fraction(theta[j - 1] * d[j - 1], d_theta)
        if c.denominator != 1 or c < 1:
            raise InternalError(f"comark {c} at node {j} is not a positive integer")
        out.append(int(c))
    return tuple(out)


def level_weights(a: AffineData, level: int) -> list[tuple[int, ...]]:
    """Dominant affine weights of level exactly `level`.

    All nonnegative vectors (m_0, ..., m_r) with sum(comark[i] * m_i) =
    level, ordered by ascending coordinate sum then decreasing leading
    coordinates.  Level 0 yields only the vacuum.
    """
    if level < 0:
        raise InputError(f"level must be >= 0, got {level}")
    return list(components.graded_solutions(a.comarks, level))


def _count_weight_vectors(comark: tuple[int, ...], level: int) -> int:
    return sum(1 for _ in components.graded_solutions(comark, level))


def _marked_diagram_components(rs: RootSystem, alpha_p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Connected components of the Dynkin subdiagram induced on the marked nodes."""
    remaining = set(alpha_p)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        stack = [seed]
        while stack:
            i = stack.pop()
            for j in list(remaining - comp):
                if rs.cartan[i - 1][j - 1] != 0:
                    comp.add(j)
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
        remaining -= comp
    return comps


@dataclass(frozen=True)
class AffineComparison:
    """Side-by-side counts: effective classes vs level-exactly-degree affine weights."""

    degree: int
    ne_count: int
    ir_count: int
    match: bool
    factor_nodes: tuple[tuple[int, ...], ...]
    factor_comarks: tuple[tuple[int, ...], ...]


def compare_ne_ir(cone: ConeSpace, degree: int) -> AffineComparison:
    """Count effective classes of a degree against level-counted affine weights.

    Requires the minimal ample embedding (all degrees 1).  The weight
    count multiplies, over the simple factors of the marked subdiagram,
    the numbers of level-exactly-l_i dominant weights of each factor's
    untwisted affine algebra, summed over all splittings
    l_1 + ... + l_r = degree.  With every node marked there is a single
    factor, the whole algebra.  Both counts are returned with a match
    flag; no equality is asserted.
    """
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    if any(l != 1 for l in cone.ell):
        raise InputError("the comparison is defined for the minimal ample embedding (all degrees 1)")
    rs = cone.parabolic.rs
    comps = _marked_diagram_components(rs, cone.parabolic.alpha_p)
    comark_vecs = [_subsystem_comarks(rs, comp) for comp in comps]
    ne_count = len(components.ne(cone, degree))
    ir_count = 0
    for split in components.graded_solutions((1,) * len(comps), degree):
        prod = 1
        for vec, lv in zip(comark_vecs, split):
            prod *= _count_weight_vectors(vec, lv)
        ir_count += prod
    return AffineComparison(
        degree,
        ne_count,
        ir_count,
        ne_count == ir_count,
        tuple(comps),
        tuple(comark_vecs),
    )
