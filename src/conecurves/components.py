"""Classification of the irreducible components of curve spaces on the cone.

For a total degree d, the components of the space of degree-d rational
curves on the cone are indexed by effective base classes.  When the
embedded base contains lines (some embedding degree is 1) every curve
deforms off the vertex and the index set is ne(d), the effective
classes of degree exactly d.  Without lines the vertex multiplicity
d - d' of a curve is a deformation invariant and the index set is the
disjoint union of ne(d') over 0 <= d' <= d.  In both regimes the
component dimension is

    <beta, chern - ell> + (n + 1) * d + dim_x,

which is cross-checked on every descriptor against the morphism-space
dimension of the lifted class on the resolution.  iter_components
yields the checked descriptors stratum by stratum, so a writer can
stream them; classify is the tuple of it.

Index sets come from one enumerator, graded_solutions, which emits the
vectors of a fixed weighted degree already in grade_key order (ascending
coordinate sum, then decreasing lexicographic), so nothing is sorted
afterwards; ne and affine.level_weights list through it.  Each
component's lift is checked from a single call to conegeom.lift, the one
source of l, e and x.

Sizes come from one counting routine, count_solutions, which never
lists anything: the number of nonnegative v with <v, w> = t is the
coefficient of x^t in prod 1/(1 - x^w_i) (Stanley, Enumerative
Combinatorics Vol. 1, ch. 1 and 4), found by an O(k * t) integer
recurrence.  Without lines, the component count sum_{d' <= d} |ne(d')|
is the same coefficient with one more weight-1 coordinate: the solutions
of <beta, ell> + m = d, where the slack m = d - d' is the vertex
multiplicity.  affine.compare_ne_ir takes both of its counts from it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .conegeom import (  # noqa: F401  e_intersection stays importable from this module
    ConeSpace,
    TildeClass,
    base_degree,
    e_intersection,
    has_lines,
    lift,
)
from .errors import InputError, InternalError


@dataclass(frozen=True, slots=True)
class EffectiveClass:
    """An effective base curve class: nonnegative coordinates on the Picard generators."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if min(self.coeffs, default=0) < 0:
            raise InputError(f"effective class must have nonnegative coordinates, got {self.coeffs}")


@dataclass(frozen=True, slots=True)
class ComponentDescriptor:
    """One irreducible component: base class, degrees, vertex multiplicity, dimension."""

    beta: EffectiveClass
    alpha_prime: int
    vertex_multiplicity: int
    tilde: TildeClass
    dimension: int


@dataclass(frozen=True)
class ComponentReport:
    """The classified component list for one cone and total degree."""

    cone: ConeSpace
    total_degree: int
    case: str  # "lines" | "no_lines"
    components: tuple[ComponentDescriptor, ...]
    equidimensional: bool


@dataclass(frozen=True)
class EquidimReport:
    """Equidimensionality, computed directly, next to the closed-form criterion.

    closed_form is the degree-independent criterion chern == 2*ell in
    the lines case and chern == ell in the no-lines case; agree records
    whether it matches the direct computation at this degree.
    """

    equidimensional: bool
    closed_form: bool
    agree: bool
    case: str
    dimensions: tuple[int, ...]


def ne(cone: ConeSpace, degree: int) -> list[EffectiveClass]:
    """Effective base classes of embedding degree exactly `degree`.

    All nonnegative integer vectors v with <v, ell> = degree, ordered by
    ascending coordinate sum and then by decreasing leading coordinates.
    ne(0) = {0}.
    """
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    return [EffectiveClass(v) for v in graded_solutions(cone.ell, degree)]


def graded_solutions(weights: tuple[int, ...], target: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer vectors v with <v, weights> = target, in grade_key order.

    The weights must be positive.  For each coordinate sum s, ascending,
    the vectors of that sum are emitted in decreasing lexicographic
    order: each coordinate runs downward over exactly the values that
    leave a remaining degree t' reachable by the remaining sum s' on the
    suffix, s'*min(suffix) <= t' <= s'*max(suffix).  The last two
    coordinates are solved from the two linear equations directly.
    """
    k = len(weights)
    if target < 0:
        return
    if k == 0:
        if target == 0:
            yield ()
        return
    w = weights
    lo_w = [min(w[i:]) for i in range(k)]
    hi_w = [max(w[i:]) for i in range(k)]

    def fill(prefix: tuple[int, ...], i: int, s: int, t: int) -> Iterator[tuple[int, ...]]:
        # Invariant: s * lo_w[i] <= t <= s * hi_w[i].
        if i == k - 1:
            if w[i] * s == t:
                yield prefix + (s,)
            return
        a = w[i]
        if i == k - 2:
            b = w[i + 1]
            if a == b:
                if a * s == t:
                    for v in range(s, -1, -1):
                        yield prefix + (v, s - v)
                return
            v, r = divmod(t - b * s, a - b)
            if not r and 0 <= v <= s:
                yield prefix + (v, s - v)
            return
        # Bounds on v from lo*(s - v) <= t - a*v <= hi*(s - v).
        lo, hi = lo_w[i + 1], hi_w[i + 1]
        top = min(s, t // a)
        bottom = 0
        if a > lo:
            top = min(top, (t - s * lo) // (a - lo))
        elif a < lo:
            bottom = max(0, -((t - s * lo) // (lo - a)))
        if a < hi:
            top = min(top, (s * hi - t) // (hi - a))
        elif a > hi:
            bottom = max(bottom, -((s * hi - t) // (a - hi)))
        for v in range(top, bottom - 1, -1):
            yield from fill(prefix + (v,), i + 1, s - v, t - a * v)

    for s in range(-(-target // hi_w[0]), target // lo_w[0] + 1):
        yield from fill((), 0, s, target)


def count_solutions(weights: tuple[int, ...], target: int) -> int:
    """Number of nonnegative integer vectors v with <v, weights> = target.

    The coefficient of t^target in prod 1/(1 - t^w) over the (positive)
    weights, by the recurrence that multiplies in one factor at a time.
    Zero for a negative target, one for target 0.
    """
    if target < 0:
        return 0
    coeff = [1] + [0] * target
    for w in weights:
        for d in range(w, target + 1):
            coeff[d] += coeff[d - w]
    return coeff[target]


def total_degree(cone: ConeSpace, beta: EffectiveClass) -> int:
    """Embedding degree <beta, ell> of an effective base class."""
    return base_degree(cone, beta.coeffs)


def iter_components(cone: ConeSpace, degree: int) -> Iterator[ComponentDescriptor]:
    """The components of the degree-`degree` curve space, one at a time.

    Strata come in order of decreasing d' (one stratum d' = degree with
    lines), each listed by one call to ne, so memory is that of the
    largest stratum rather than of the whole list.  Each descriptor
    carries the lift of its generic curve to the resolution: relative
    degree (n+1)*multiplicity + n*d', so the exceptional intersection
    equals the vertex multiplicity.  From one conegeom.lift call per
    component, every lift is checked, before the component is yielded, to
    have e equal to the multiplicity, to be nonempty, to give the same
    morphism-space dimension by both routes, and to reproduce the stated
    dimension; a failure raises InternalError.
    """
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    if has_lines(cone):
        strata = [(degree, 0)]
    else:
        strata = [(dp, degree - dp) for dp in range(degree, -1, -1)]
    n = cone.vertex_dim
    top = (n + 1) * degree + cone.dim_x
    for alpha_prime, mult in strata:
        rel = (n + 1) * mult + n * alpha_prime
        for beta in ne(cone, alpha_prime):
            tilde = TildeClass(beta.coeffs, rel)
            lf = lift(cone, beta.coeffs, rel)
            if lf.e != mult or not lf.nonempty:
                raise InternalError(f"constructed lift {tilde} is not a valid nonempty class")
            if lf.dim_branch != lf.dim_base_fiber:
                raise InternalError(
                    f"dimension routes disagree: {lf.dim_branch} != {lf.dim_base_fiber} for {tilde}"
                )
            dim = lf.chern_base - lf.base_degree + top
            if dim != lf.dim_branch:
                raise InternalError(
                    f"component dimension {dim} disagrees with the lifted morphism space for {tilde}"
                )
            yield ComponentDescriptor(beta, alpha_prime, mult, tilde, dim)


def classify(cone: ConeSpace, degree: int) -> ComponentReport:
    """Classify the irreducible components of the degree-`degree` curve space.

    The components are those of iter_components, with every lift
    checked; equidimensional says whether they share one dimension.
    """
    components = tuple(iter_components(cone, degree))
    return ComponentReport(
        cone,
        degree,
        "lines" if has_lines(cone) else "no_lines",
        components,
        len({c.dimension for c in components}) <= 1,
    )


def count_components(cone: ConeSpace, degree: int) -> int:
    """Number of irreducible components, counted without enumerating them.

    With lines this is |ne(degree)|, the solutions of <beta, ell> =
    degree.  Without lines it is sum over d' <= degree of |ne(d')|, the
    solutions of <beta, ell> + m = degree with one slack coordinate m of
    weight 1: the vertex multiplicity degree - d'.
    """
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    if has_lines(cone):
        return count_solutions(cone.ell, degree)
    return count_solutions(cone.ell + (1,), degree)


def is_equidimensional(cone: ConeSpace, degree: int) -> EquidimReport:
    """Whether all components at this degree share one dimension, with diagnostics.

    The answer is computed directly from the classified dimensions; the
    closed-form criterion (chern == 2*ell with lines, chern == ell
    without) is reported alongside, never substituted for the
    computation.
    """
    report = classify(cone, degree)
    chern = cone.parabolic.chern_degrees
    if report.case == "lines":
        closed_form = all(c == 2 * l for c, l in zip(chern, cone.ell))
    else:
        closed_form = all(c == l for c, l in zip(chern, cone.ell))
    dims = tuple(d.dimension for d in report.components)
    return EquidimReport(
        report.equidimensional,
        closed_form,
        report.equidimensional == closed_form,
        report.case,
        dims,
    )
