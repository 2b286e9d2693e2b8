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

the dimension of the morphism space of the lifted class on the
resolution.  Within a stratum (d', m) every class has l = <beta, ell> =
d', exceptional intersection e = m and the same relative degree
(n+1)*m + n*d', and <beta, chern> shifts that dimension and the formula
alike.  So one conegeom.lift call, on a stratum's first class, yields
the base (the morphism-space dimension less <beta, chern>) to which
each component adds its own <beta, chern>, and the formula equals the
result by the proof in _stratum_base's docstring.  Those identities are
not checked at run time: a wrong Chern degree or dim G/P would move
both sides.  The checks that can fail on a dimension are selfcheck's
toric count (and tests/test_toric_oracle.py), bench/checks.py, and
tests/test_presentations.py, which compares presentations of one
variety.  What the shared lift cannot give is that a class lies in its
stratum, so each one is checked to have <beta, ell> = d' (and, on rows,
nonnegative coordinates); a failure raises InternalError.  One dot
product gives both the check and <beta, chern>: _packed_weights packs
ell and chern into one weight vector with a radix m above every <beta,
chern> of the strata (Kronecker substitution), and <beta, packed> -
m*d' lies in [0, m) exactly when <beta, ell> = d', and is then <beta,
chern> (its docstring has the proof).

Whether the components share one dimension depends only on which beta
occur, and so only on ell and d: equidimensional decides it from ell,
the Chern degrees and d in one pass over the coordinates, listing
nothing (its docstring has the proof).  classify's report, the command
line's JSON footer and is_equidimensional all take their verdict from
it; selfcheck holds it to the listed dimensions.

The command line prints the flat rows of iter_rows, (*beta,
alpha_prime, vertex_multiplicity, relative_degree, e, dimension) with e
the stratum lift's exceptional intersection, as they come: iter_rows
walks each stratum through graded_solutions, checks each vector to be
nonnegative, and of its stratum's degree by the packed dot product that
also gives its dimension, and builds no record, so the writer's
memory does not grow with the number of components.  `conecurves ne`
prints checked_solutions, graded_solutions with the same two checks
made by <v, ell> and min(v), so every row the command line prints has
passed them.  The library API takes records: classify lists each
stratum by ne and builds a ComponentDescriptor per component.  Both take
the strata, the per-stratum lift and the packed weights from one place,
so they list the same components in the same order under the same
checks.

The records (EffectiveClass, ComponentDescriptor, and TildeClass from
conegeom) are frozen, slotted dataclasses.  Only EffectiveClass keeps a
hand-written __init__, because it checks its coordinates for public
callers and replace(); the other two have the generated one.  The hot
loops call no constructor: ne makes each class, and classify each
TildeClass and then its ComponentDescriptor, by object.__new__, and
fills the slots through their member descriptors, bound once at import
in this module.  Each record is one object tracked by the garbage
collector, so classify's records add three such objects per component,
exactly the objects, in the same order, that the constructors would
make; the collector runs on a count of them, and a loop that made more
would move its collections.

Index sets come from one enumerator, graded_solutions, which emits the
vectors of a fixed weighted degree already in grade_key order (ascending
coordinate sum, then decreasing lexicographic), so nothing is sorted
afterwards; ne and checked_solutions list through it.  It opens one
recursive frame per feasible prefix, of length up to the first index
from which the weights are all equal and at most k - 2: a frame on an
equal suffix lists its compositions by a successor rule, with no
recursion, and a frame on an unequal last pair solves for it.  So
weights (1, 2) at target 4 open 3 frames, all on the empty prefix, one
per feasible coordinate sum 2, 3 and 4.  Under the minimal
ample weight, and under any constant ell, ne(d) is the set of
compositions of d / ell_1 into k parts, so it lists from one frame.
conegeom.lift is the one source of l, e and x.

Sizes come from one counting routine, count_solutions, which never
lists anything: the number of nonnegative v with <v, w> = t is the
coefficient of x^t in prod 1/(1 - x^w_i) (Stanley, Enumerative
Combinatorics Vol. 1, ch. 1 and 4).  It has two routes to that
coefficient, chosen from the inputs alone by one operation estimate.
Small targets and inputs with a large weight sum D take an O(k * t)
integer recurrence, which is also the reference the tests hold the other
route to.  Large targets take Bostan-Mori polynomial halving (Bostan and
Mori, SOSA 2021), O(f * D * log t) with f <= D the number of factors,
whenever its operation estimate is below the recurrence's k * t.
Without lines, the component count sum_{d' <= d} |ne(d')| is the same
coefficient with one more weight-1 coordinate: the solutions of <beta,
ell> + m = d, where the slack m = d - d' is the vertex multiplicity.
affine.compare_ne_ir takes both of its counts from it, and classify
checks its component list against it.  A coefficient depends only on
(weights, t), so count_solutions keeps one bounded memo of them: the
_COUNT_MEMO_SIZE (4096) most recently used pairs, least recently used
out first.  Nothing else in this module is cached.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul, sub

from .conegeom import (  # noqa: F401  e_intersection stays importable from this module
    ConeSpace,
    TildeClass,
    base_degree,
    e_intersection,
    has_lines,
    lift,
)
from .errors import InputError, InternalError


@dataclass(frozen=True, slots=True, init=False)
class EffectiveClass:
    """An effective base curve class: nonnegative coordinates on the Picard generators."""

    coeffs: tuple[int, ...]

    # For public callers and replace(): this __init__ (init=False: dataclass generates none) checks
    # with a plain min(), at about half the cost of a generated __init__ plus a __post_init__.  ne makes
    # its classes without it, with the same check in its own loop.
    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if coeffs and min(coeffs) < 0:
            raise InputError(f"effective class must have nonnegative coordinates, got {coeffs}")
        _set_coeffs(self, coeffs)


@dataclass(frozen=True, slots=True)
class ComponentDescriptor:
    """One irreducible component: base class, degrees, vertex multiplicity, dimension."""

    beta: EffectiveClass
    alpha_prime: int
    vertex_multiplicity: int
    tilde: TildeClass
    dimension: int


# Slots' member descriptors, bound once: each __set__ writes its slot past the frozen __setattr__,
# without the lookup on the type that object.__setattr__ makes at every call.  ne and classify fill
# bare instances from object.__new__ through them, with no constructor frame per record.
_new = object.__new__
_set_coeffs = EffectiveClass.coeffs.__set__
_set_tilde_beta = TildeClass.beta.__set__
_set_relative_degree = TildeClass.relative_degree.__set__
_set_beta = ComponentDescriptor.beta.__set__
_set_alpha_prime = ComponentDescriptor.alpha_prime.__set__
_set_vertex_multiplicity = ComponentDescriptor.vertex_multiplicity.__set__
_set_tilde = ComponentDescriptor.tilde.__set__
_set_dimension = ComponentDescriptor.dimension.__set__


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
    """Equidimensionality at one degree, next to the closed-form criterion.

    equidimensional is the verdict of components.equidimensional, the
    one classify reports.  closed_form is the paper's degree-independent
    criterion, chern == 2*ell in the lines case and chern == ell in the
    no-lines case; agree records whether it matches the verdict at this
    degree.  It need not: with lines the verdict holds at every degree
    exactly when chern is proportional to ell, so A2 node 1 with ell = 1
    (chern = 3*ell) gives agree=False.
    """

    equidimensional: bool
    closed_form: bool
    agree: bool
    case: str


def ne(cone: ConeSpace, degree: int) -> list[EffectiveClass]:
    """Effective base classes of embedding degree exactly `degree`.

    All nonnegative integer vectors v with <v, ell> = degree, ordered by
    ascending coordinate sum and then by decreasing leading coordinates.
    ne(0) = {0}.  Each vector is checked to be nonnegative, the check
    EffectiveClass makes, and one that fails is an enumerator fault and
    raises InternalError.  Each class is made by object.__new__ and its
    coeffs set through the slot's descriptor, with no constructor call:
    the one object EffectiveClass(v) would make.
    """
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    classes = []
    for v in graded_solutions(cone.ell, degree):
        if min(v) < 0:
            raise _off_stratum(v, degree)
        beta = _new(EffectiveClass)
        _set_coeffs(beta, v)
        classes.append(beta)
    return classes


def graded_solutions(weights: tuple[int, ...], target: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer vectors v with <v, weights> = target, in grade_key order.

    The weights must be positive and nonempty and the target
    nonnegative; callers validate both, and nothing here checks them.
    For each coordinate sum s, ascending, the vectors of that sum are
    emitted in decreasing lexicographic order.  A frame fixes a prefix
    and holds the remaining sum s' and degree t' of the suffix that
    follows it; the range invariant s'*min(suffix) <= t' <= s'*max(suffix)
    holds in every frame, and it decides the leaves without a filter.
    A frame is one of three kinds.

    An equal suffix, min(suffix) = max(suffix) = a: the invariant forces
    t' = a*s', so every composition of s' into the m coordinates of the
    suffix is a vector, and no other is.  The frame lists them with no
    recursion, in decreasing lexicographic order, by a successor rule
    (Knuth, TAOCP Vol. 4A, 7.2.1.3): start at (s', 0, ..., 0); to step,
    take the rightmost nonzero coordinate j among the first m - 1, lower
    it by one, set coordinate j + 1 to the last coordinate's value plus
    one, and zero the last coordinate unless j + 1 is the last.  The
    coordinates strictly between j and the last are 0, so no later
    composition keeps the first j + 1 coordinates; the next one lowers
    coordinate j by one and puts all that is left after it on coordinate
    j + 1, the largest tail there is.  The rule stops when the first m -
    1 coordinates are all 0, at (0, ..., 0, s').
    This covers the last coordinate alone (m = 1), and a weight vector
    that is constant from its first coordinate on, which lists from one
    frame: only s = target / a is in range.

    A last pair (a, b) with a != b: v = (t' - b*s') / (a - b) solves the
    two linear equations, and the invariant already puts it in [0, s']
    whenever the division is exact, so divisibility alone decides.

    Any other suffix: its first coordinate, of weight a, runs downward
    over exactly the values that leave the rest of the suffix in range,
    and each value opens a frame on the rest.  A coordinate's range
    starts from [0, s']: every value the range bounds then admit leaves
    t' - a*v >= min(suffix) * (s' - v) >= 0, so a*v <= t' needs no bound
    of its own.  Where a > min(suffix), the bound (t' - s'*min) / (a -
    min) replaces s' outright: for a >= max(suffix) the invariant puts it
    at or below s', and for a < max(suffix) a bound above s' means t' >
    a*s', which puts the bound (s'*max - t') / (max - a) below s'.
    """
    k = len(weights)
    w = weights
    lo_w = [min(w[i:]) for i in range(k)]
    hi_w = [max(w[i:]) for i in range(k)]

    def fill(prefix: tuple[int, ...], i: int, s: int, t: int) -> Iterator[tuple[int, ...]]:
        # Invariant: s * lo_w[i] <= t <= s * hi_w[i].
        if lo_w[i] == hi_w[i]:
            # Every composition of s into the k - i equal-weight coordinates: the first, then one
            # per step of the successor rule, with j the rightmost nonzero coordinate before the last.
            # The first is built as a tuple, so a frame that lists one row makes no list.
            last = k - 1 - i
            yield prefix + (s,) + (0,) * last
            if not (s and last):
                return
            v = [s] + [0] * last
            j = 0
            while j >= 0:
                v[j] -= 1
                if j + 1 < last:
                    v[j + 1] = v[last] + 1
                    v[last] = 0
                    j += 1
                else:
                    v[last] += 1
                    while j >= 0 and not v[j]:
                        j -= 1
                yield prefix + tuple(v)
            return
        a = w[i]
        if i == k - 2:
            b = w[i + 1]
            v, r = divmod(t - b * s, a - b)
            if not r:
                yield prefix + (v, s - v)
            return
        # Bounds on v from lo*(s - v) <= t - a*v <= hi*(s - v).
        lo, hi = lo_w[i + 1], hi_w[i + 1]
        top = s
        bottom = 0
        if a > lo:
            top = (t - s * lo) // (a - lo)
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


# Fixed cost, in coefficient operations, of multiplying in one factor on the halving route.
_HALVING_FACTOR_COST = 16
# Most (weights, target) pairs count_solutions remembers.  A sweep asks for a few
# coefficients many times over (one catalog-sweep count pass: 8,352 calls, 90 pairs);
# the bound keeps a long-lived process's memo from growing with every pair it asks for.
_COUNT_MEMO_SIZE = 4096


@lru_cache(maxsize=_COUNT_MEMO_SIZE)
def count_solutions(weights: tuple[int, ...], target: int) -> int:
    """Number of nonnegative integer vectors v with <v, weights> = target.

    The coefficient of t^target in 1/Q(t), Q = prod (1 - t^w) over the
    (positive) weights, by one of two routes chosen from the inputs
    alone, with the same result.  The recurrence multiplies in one factor
    1/(1 - t^w) at a time: k * target additions for k weights.  The
    halving route, _count_by_halving, takes bitlen(target) steps; a step
    multiplies a polynomial of at most about D = sum(weights)
    coefficients by each of at most f = sum(w & -w) factors, so its
    estimate is f * (D + _HALVING_FACTOR_COST) * bitlen(target), the
    constant standing for the fixed cost of one factor.  The halving
    route runs when the estimate is below k * target.  Since f >= k and
    D >= k, the estimate is at least 17k * bitlen(target), which is at
    least k * target for every target <= 119, so small targets always
    take the recurrence.  A huge weight makes D huge, so it always takes
    the recurrence, where it costs nothing beyond the target.  Zero for a
    negative target, one for target 0.  Results are memoised per
    (weights, target), the _COUNT_MEMO_SIZE most recently used, so the
    weights must be a tuple; __wrapped__ is the uncached function.
    """
    if target < 0:
        return 0
    factors = sum(w & -w for w in weights)
    if factors * (sum(weights) + _HALVING_FACTOR_COST) * target.bit_length() < len(weights) * target:
        return _count_by_halving(weights, target)
    coeff = [1] + [0] * target
    for w in weights:
        for d in range(w, target + 1):
            coeff[d] += coeff[d - w]
    return coeff[target]


def _count_by_halving(weights: tuple[int, ...], target: int) -> int:
    """Coefficient of t^target in 1/prod (1 - t^w), by polynomial halving.

    Bostan and Mori, "A simple and fast algorithm for computing the N-th
    term of a linearly recurrent sequence" (SOSA 2021): with P = 1 and
    Q = prod (1 - t^w), [t^N] P/Q = [s^(N // 2)] U_r(s)/V(s), where
    P(t) Q(-t) = U_0(t^2) + t U_1(t^2), r = N mod 2, and V(t^2) =
    Q(t) Q(-t).  Q stays a product of factors 1 - t^w: (1 - t^w)(1 -
    (-t)^w) is 1 - s^w for odd w and (1 - s^(w/2))^2 for even w, so V
    keeps the odd weights and splits each even weight into two halves,
    and P(t) Q(-t) is P times 1 + t^w (odd w) or 1 - t^w (even w), one
    factor at a time.  When N reaches 0 the answer is P(0), since Q(0) = 1.
    """
    ws = list(weights)
    p = [1]
    while target:
        for w in ws:
            u = p + [0] * w
            u[w:] = map(add if w & 1 else sub, u[w:], p)
            p = u
        p = p[target & 1 :: 2]
        ws = [h for w in ws for h in ((w,) if w & 1 else (w >> 1, w >> 1))]
        target >>= 1
    return p[0]


def total_degree(cone: ConeSpace, beta: EffectiveClass) -> int:
    """Embedding degree <beta, ell> of an effective base class."""
    return base_degree(cone, beta.coeffs)


def _strata(cone: ConeSpace, degree: int) -> list[tuple[int, int, int]]:
    """(alpha_prime, multiplicity, relative degree) of each stratum, by decreasing d'.

    One stratum d' = degree with lines, d' = degree, ..., 0 without.
    The relative degree (n+1)*multiplicity + n*d' makes the exceptional
    intersection of the lift equal the vertex multiplicity.
    """
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    n = cone.vertex_dim
    dps = (degree,) if has_lines(cone) else range(degree, -1, -1)
    return [(dp, degree - dp, (n + 1) * (degree - dp) + n * dp) for dp in dps]


def _stratum_base(cone: ConeSpace, beta: tuple[int, ...], rel: int) -> int:
    """The dimension of a stratum's components less <beta, chern>, from one conegeom.lift call.

    beta is the stratum's first class, already checked to be nonnegative
    with <beta, ell> = d', and rel = (n+1)*m + n*d' is the stratum's
    relative degree, m = degree - d' its multiplicity.  Returns the
    lift's dim_branch - <beta, chern>, and compares nothing, because all
    that a comparison could test holds by algebra:
      e = (rel - n*d') / (n+1) = m;
      the class is nonempty: beta >= 0 and rel >= n*d' >= d' >= -d',
        which meets the test for n = 1 (d >= l) and for n >= 2 (d >= -l);
      x = d' + m >= l = d', so the fiber is rel + n, the base-plus-fiber
        route <beta, chern> + dim(G/P) + rel + n is the branch route
        <beta, chern> + rel + dim_x (e = m >= 0), and base_fiber = branch;
      (n+1)*degree - d' = (n+1)*m + n*d' = rel, so the stated dimension
        <beta, chern - ell> + (n+1)*degree + dim_x is <beta, chern> +
        rel + dim_x, the branch route again.
    So the base is rel + dim_x, and every class of the stratum, sharing
    l, e and rel, has it plus its own <beta, chern>.  A wrong Chern
    degree or dim G/P moves both sides of each identity alike; the checks
    that can fail on a dimension are named in the module docstring.
    """
    lf = lift(cone, beta, rel)
    return lf.dim_branch - lf.chern_base


def _packed_weights(cone: ConeSpace, degree: int) -> tuple[int, tuple[int, ...]]:
    """The radix m = max(c)*degree + 1 and the packed weights m*ell_i + c_i, c the Chern degrees.

    One dot product with the packed weights carries both <beta, ell> and
    <beta, c> (Kronecker substitution).  Let beta >= 0, ell >= 1, c >= 0,
    0 <= d' <= degree and p = <beta, packed> - m*d'.  Then p lies in
    [0, m) exactly when <beta, ell> = d', and then p = <beta, c>.  With
    <beta, ell> = d' + j, p = m*j + <beta, c> and 0 <= <beta, c> <=
    max(c)*(d' + j), since each ell_i >= 1:
      j = 0:   0 <= p = <beta, c> <= max(c)*d' < m;
      j >= 1:  p >= m;
      j <= -1: p <= -m + max(c)*(d' - 1) < 0.
    Any radix above max(c)*degree would do.
    """
    ell, chern = cone.ell, cone.parabolic.chern_degrees
    m = max(chern) * degree + 1
    return m, tuple(m * l + c for l, c in zip(ell, chern))


def _off_stratum(beta: tuple[int, ...], alpha_prime: int) -> InternalError:
    return InternalError(f"enumerated class {beta} is not an effective class of degree {alpha_prime}")


def checked_solutions(weights: tuple[int, ...], target: int) -> Iterator[tuple[int, ...]]:
    """The vectors of graded_solutions, each checked to be nonnegative with <v, weights> = target.

    A vector that fails is an enumerator fault and raises InternalError.
    `conecurves ne` prints this; iter_rows makes the same checks in its
    own loop, through the packed weights.
    """
    for v in graded_solutions(weights, target):
        if sum(map(mul, v, weights)) != target or min(v) < 0:
            raise _off_stratum(v, target)
        yield v


def iter_rows(cone: ConeSpace, degree: int) -> Iterator[tuple[int, ...]]:
    """The components as the flat rows the command line prints.

    Each row is (*beta, alpha_prime, vertex_multiplicity,
    relative_degree, e, dimension), the fields of a classify JSON
    component in order, and e is the exceptional intersection of the
    stratum's lift, which equals the multiplicity (_stratum_base has the
    proof).
    The same components, in the same order and with the same checks, as
    classify, but each stratum is walked through graded_solutions and no
    record is built, so memory stays flat however many components there
    are.  Each vector's one dot product with the packed weights, less
    m*alpha_prime, is checked to lie in [0, m), and its coordinates to
    be nonnegative, which together mean <beta, ell> = alpha_prime; a
    vector that fails raises InternalError.  Each non-empty stratum's
    first row is then lifted, and a row's dimension is the stratum's
    base plus that same difference, <beta, chern>.  The vertex
    row beta = 0, the one class of the stratum d' = 0, is the last row
    where there is one, and no other row has alpha_prime 0.
    """
    ell = cone.ell
    m, packed = _packed_weights(cone, degree)
    for alpha_prime, mult, rel in _strata(cone, degree):
        shift = m * alpha_prime
        base = None
        for beta in graded_solutions(ell, alpha_prime):
            p = sum(map(mul, beta, packed)) - shift
            if not 0 <= p < m or min(beta) < 0:
                raise _off_stratum(beta, alpha_prime)
            if base is None:
                base = _stratum_base(cone, beta, rel)
            yield beta + (alpha_prime, mult, rel, mult, base + p)


def classify(cone: ConeSpace, degree: int) -> ComponentReport:
    """Classify the irreducible components of the degree-`degree` curve space.

    Strata come in order of decreasing d' (one stratum d' = degree with
    lines), each listed by one call to ne.  Each descriptor carries the
    lift of its generic curve to the resolution: relative degree
    (n+1)*multiplicity + n*d', so the exceptional intersection equals the
    vertex multiplicity.  Every component is checked to have <beta, ell>
    = alpha_prime by one dot product with the packed weights: less
    m*alpha_prime it must lie in [0, m), and it is then <beta, chern>
    (ne's classes are nonnegative, as the packing needs).  One
    conegeom.lift call on a stratum's first class gives the stratum's
    base, the lifted class's morphism-space dimension less <beta,
    chern>, and a component's dimension is that base plus its own
    <beta, chern>.  Each component's TildeClass, then its
    ComponentDescriptor, is made by object.__new__ and filled through
    its slots' descriptors, with no constructor call:
    the two objects, in the order, that ComponentDescriptor(beta, ...,
    TildeClass(b, rel), dimension) would make.  At the end, the number
    of components is compared with count_components, as the command line
    compares its rows.  A failure raises InternalError.
    equidimensional, whether the components share one dimension, is the
    verdict of the function of that name, which decides it from ell, the
    Chern degrees and the degree.
    """
    m, packed = _packed_weights(cone, degree)
    found = []
    for alpha_prime, mult, rel in _strata(cone, degree):
        shift = m * alpha_prime
        base = None
        for beta in ne(cone, alpha_prime):
            b = beta.coeffs
            p = sum(map(mul, b, packed)) - shift
            if not 0 <= p < m:
                raise _off_stratum(b, alpha_prime)
            if base is None:
                base = _stratum_base(cone, b, rel)
            tilde = _new(TildeClass)
            _set_tilde_beta(tilde, b)
            _set_relative_degree(tilde, rel)
            c = _new(ComponentDescriptor)
            _set_beta(c, beta)
            _set_alpha_prime(c, alpha_prime)
            _set_vertex_multiplicity(c, mult)
            _set_tilde(c, tilde)
            _set_dimension(c, base + p)
            found.append(c)
    components = tuple(found)
    total = count_components(cone, degree)
    if len(components) != total:
        raise InternalError(f"enumerated {len(components)} components, but the generating function counts {total}")
    return ComponentReport(
        cone, degree, "lines" if has_lines(cone) else "no_lines", components, equidimensional(cone, degree)
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


def equidimensional(cone: ConeSpace, degree: int, without_vertex: bool = False) -> bool:
    """Whether the components at this degree share one dimension, decided from ell, c and the degree alone.

    A component's dimension is <beta, c - ell> + (n+1)*degree + dim_x,
    so the question is whether <beta, c - ell> takes one value on the
    index set.  A coordinate with ell_i > degree is 0 in every class and
    never counts: below, i runs over the coordinates with ell_i <= degree.

    With lines, let j be a line coordinate, ell_j = 1.  degree*e_j and
    e_i + (degree - ell_i)*e_j are both in ne(degree), and their values
    differ by c_i - ell_i*c_j.  So the verdict needs c_i = ell_i*c_j for
    every i, and that is enough: it makes <beta, c> = c_j*<beta, ell> =
    c_j*degree on every class.

    Without lines, 0 and each e_i are classes (of the strata d' = 0 and
    d' = ell_i), so the verdict needs c_i = ell_i for every i, which
    makes every value 0.  With without_vertex the vertex component beta
    = 0 is left out, as `classify --exclude-vertex-stratum` leaves it.
    If 2*min(ell) > degree, every class left has coordinate sum 1, so
    the classes are the e_i alone and the verdict is that c_i - ell_i
    takes one value.  Otherwise 2*e_m is a class with e_m, m a
    coordinate of least ell, so that value must be 0: the rule with the
    vertex.  With lines, 2*min(ell) > degree only at degree <= 1, where
    the first i counted is the line j, whose value is 0, so the rule is
    the same with or without the vertex.

    A negative degree raises InputError.
    """
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    ell, chern = cone.ell, cone.parabolic.chern_degrees
    scale = chern[ell.index(1)] if 1 in ell else 1
    # The value every counted c_i - ell_i*scale must take: 0, or (None) with the vertex
    # left out and only the e_i as classes, whichever value comes first.
    want = None if without_vertex and 2 * min(ell) > degree else 0
    for l, c in zip(ell, chern):
        if l <= degree and c - l * scale != want:
            if want is not None:
                return False
            want = c - l * scale
    return True


def is_equidimensional(cone: ConeSpace, degree: int) -> EquidimReport:
    """Whether all components at this degree share one dimension, next to the paper's criterion.

    The verdict is equidimensional's, which lists nothing, and is the
    one classify reports; the closed-form criterion (chern == 2*ell
    with lines, chern == ell without) is reported alongside, never
    substituted for it.  A negative degree raises InputError.
    """
    verdict, lines = equidimensional(cone, degree), has_lines(cone)
    closed_form = all(c == (2 if lines else 1) * l for c, l in zip(cone.parabolic.chern_degrees, cone.ell))
    return EquidimReport(verdict, closed_form, verdict == closed_form, "lines" if lines else "no_lines")
