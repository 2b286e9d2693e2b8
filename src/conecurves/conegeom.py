"""The cone over an embedded base variety and its vertex resolution.

A ConeSpace is the projective cone over the base G/P, embedded by the
ample weight with degree vector ell on the Picard generators, with an
extra vertex linear space coming from an n-dimensional summand V.  Its
resolution is the projective bundle P((V (x) O) + L) over the base, a
P^n-bundle of the same dimension dim(G/P) + n, with exceptional divisor
E the trivial P^(n-1)-bundle.

A curve class on the resolution is recorded as a TildeClass: the
pushforward class beta on the base (coordinates on the Picard
generators) plus the relative degree, its pairing with the relative
tangent bundle of the bundle projection.  All derived intersection
numbers flow from the single identity

    e = (relative_degree - n * l) / (n + 1),      l = <beta, ell>,

the intersection with E; a class exists only when that quotient is an
integer.  The degree of the pushforward to the cone is l + e.

`lift` is the single source of l, e and x: it sums <beta, ell> and
<beta, chern> once and derives from them nonemptiness, the fiber
dimension, the anticanonical degree and both routes to the
morphism-space dimension.  The per-quantity functions below are thin
views of its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

from .errors import InputError, InternalError
from .parabolic import ParabolicData, validate_ample
from .rootsys import Weight


@dataclass(frozen=True, slots=True, init=False)
class ConeSpace:
    """Cone data: base parabolic, embedding degrees, vertex summand dimension."""

    parabolic: ParabolicData
    ell: tuple[int, ...]
    vertex_dim: int

    # One per cone at set-up: a hand-written __init__ (init=False: dataclass generates none, and replace()
    # runs this one) is cheaper than a generated one plus a __post_init__.
    def __init__(self, parabolic: ParabolicData, ell: tuple[int, ...], vertex_dim: int) -> None:
        if vertex_dim < 1:
            raise InputError(
                "vertex_dim must be >= 1; with no vertex summand the space is the base variety itself"
            )
        if len(ell) != len(parabolic.alpha_p):
            raise InputError(
                f"ell has {len(ell)} entries, expected {len(parabolic.alpha_p)} (one per marked node)"
            )
        if ell and min(ell) < 1:
            raise InputError(f"ell = {ell}: embedding degrees must all be >= 1")
        _set_parabolic(self, parabolic)
        _set_ell(self, ell)
        _set_vertex_dim(self, vertex_dim)

    @property
    def dim_x(self) -> int:
        """Dimension of the cone (equals the dimension of its resolution)."""
        return self.parabolic.dim_gp + self.vertex_dim


# A slot's member descriptor, bound once: its __set__ writes the slot past the frozen
# __setattr__, without the lookup on the type that object.__setattr__ makes at every call.
_set_parabolic = ConeSpace.parabolic.__set__
_set_ell = ConeSpace.ell.__set__
_set_vertex_dim = ConeSpace.vertex_dim.__set__


@dataclass(frozen=True, slots=True, init=False)
class TildeClass:
    """A curve class on the resolution: base class plus relative degree."""

    beta: tuple[int, ...]
    relative_degree: int

    # One per component: a hand-written __init__ (init=False: dataclass generates none) is cheaper
    # than a generated one.
    def __init__(self, beta: tuple[int, ...], relative_degree: int) -> None:
        _set_beta(self, beta)
        _set_relative_degree(self, relative_degree)


_set_beta = TildeClass.beta.__set__
_set_relative_degree = TildeClass.relative_degree.__set__


def build_cone(p: ParabolicData, lam: Weight, vertex_dim: int) -> ConeSpace:
    """Validate an ample weight on the parabolic facet and build the cone."""
    return ConeSpace(p, validate_ample(p, lam), vertex_dim)


def cone_from_ell(p: ParabolicData, ell, vertex_dim: int) -> ConeSpace:
    """Build the cone directly from a degree vector on the Picard generators."""
    return ConeSpace(p, tuple(ell), vertex_dim)


def _check_beta(cone: ConeSpace, beta: tuple[int, ...]) -> None:
    if len(beta) != len(cone.ell):
        raise InputError(f"beta has {len(beta)} entries, expected {len(cone.ell)}")


def base_degree(cone: ConeSpace, beta: tuple[int, ...]) -> int:
    """Degree <beta, ell> of a base class in the embedding."""
    _check_beta(cone, beta)
    return sum(b * l for b, l in zip(beta, cone.ell))


def has_lines(cone: ConeSpace) -> bool:
    """Whether the embedded base contains a degree-1 rational curve.

    True exactly when some embedding degree is 1, i.e. the dual class
    of a minimally-marked node has degree 1.
    """
    return min(cone.ell) == 1


def lemma_equiv_check(cone: ConeSpace) -> bool:
    """Verify that the no-lines condition coincides with all degrees >= 2.

    Returns the equivalence (not has_lines) == (all ell >= 2), with both
    sides computed independently; this must hold for every cone.
    """
    return (not has_lines(cone)) == all(l >= 2 for l in cone.ell)


class Lift(NamedTuple):
    """Every number derived from one curve class on the resolution.

    base_degree is l = <beta, ell>, chern_base is <beta, chern>, e the
    exceptional intersection and x = l + e the section twist.  The last
    three fields are None for an empty class: fiber_dim is the section
    space over a fixed base map, dim_branch the closed-branch morphism
    dimension and dim_base_fiber the base-plus-fiber route to it.
    """

    base_degree: int
    chern_base: int
    e: int
    x: int
    nonempty: bool
    chern_degree: int
    fiber_dim: int | None
    dim_branch: int | None
    dim_base_fiber: int | None


def lift(cone: ConeSpace, beta: tuple[int, ...], relative_degree: int) -> Lift:
    """All derived numbers of the class (beta, relative_degree), from one pass over beta.

    Raises InputError when beta has the wrong length or when the
    exceptional intersection e = (d - n*l)/(n+1) is not an integer (no
    such class exists).  Writing d for the relative degree:

    * nonempty: beta effective and d = -l or d >= l when the vertex
      summand is a line (n = 1), d >= -l when n >= 2; equivalently
      x >= 0, refined for n = 1 to x = 0 or x >= l;
    * fiber_dim: sections of P((V (x) O) + O(l)) over P^1 are
      surjections onto O(x) modulo scalars; if x < l every section lies
      in E and the space has dimension n*x + n - 1, otherwise d + n;
    * chern_degree: <beta, chern> + d, the tangent bundle splitting the
      base tangent degree off the relative one;
    * dim_branch: chern_degree + dim_x when d >= n*l (e >= 0), and
      chern_degree + dim_x - e - 1 when d < n*l (e < 0);
    * dim_base_fiber: <beta, chern> + dim(G/P) + fiber_dim.
    """
    _check_beta(cone, beta)
    n = cone.vertex_dim
    d = relative_degree
    l = sum(map(mul, beta, cone.ell))
    e, r = divmod(d - n * l, n + 1)
    if r:
        raise InputError(
            f"no class with relative degree {d} over a base class of degree {l}: "
            f"{d - n * l} is not divisible by {n + 1}"
        )
    x = l + e
    par = cone.parabolic
    chern_base = sum(map(mul, beta, par.chern_degrees))
    chern_degree = chern_base + d
    if min(beta) < 0:
        nonempty = False
    elif n == 1:
        nonempty = d == -l or d >= l
    else:
        nonempty = d >= -l
    # Run once per stratum and by every view below: tuple.__new__ skips the namedtuple's Python __new__.
    if not nonempty:
        return tuple.__new__(Lift, (l, chern_base, e, x, False, chern_degree, None, None, None))
    fiber = n * x + n - 1 if x < l else d + n
    dim_x = par.dim_gp + n
    branch = chern_degree + dim_x if e >= 0 else chern_degree + dim_x - e - 1
    base_fiber = chern_base + par.dim_gp + fiber
    return tuple.__new__(Lift, (l, chern_base, e, x, True, chern_degree, fiber, branch, base_fiber))


def e_intersection(cone: ConeSpace, t: TildeClass) -> int:
    """Intersection of the class with the exceptional divisor.

    e = (relative_degree - n*l) / (n+1).  Non-divisibility means no such
    curve class exists on the resolution and raises InputError.
    """
    return lift(cone, t.beta, t.relative_degree).e


def pushforward_degree(cone: ConeSpace, t: TildeClass) -> int:
    """Total degree of the image curve on the cone: base degree plus e, the section twist x."""
    return lift(cone, t.beta, t.relative_degree).x


def is_nonempty(cone: ConeSpace, t: TildeClass) -> bool:
    """Whether the space of maps P^1 -> resolution in this class is nonempty.

    Needs beta effective (all coordinates >= 0) and, writing d for the
    relative degree and l for the base degree: d = -l or d >= l when the
    vertex summand is a line (n = 1), and d >= -l when n >= 2.
    Raises InputError when the class does not exist (see lift).
    """
    return lift(cone, t.beta, t.relative_degree).nonempty


def fiber_dim(cone: ConeSpace, t: TildeClass) -> int:
    """Dimension of the space of sections over a fixed base map.

    n*x + n - 1 when x < l (every section lies in the exceptional
    divisor), d + n otherwise, with x = (d + l)/(n + 1).  An empty class
    raises InputError.
    """
    lf = lift(cone, t.beta, t.relative_degree)
    if not lf.nonempty:
        raise InputError("empty class: no sections over the base map")
    return lf.fiber_dim


def chern_degree_tilde(cone: ConeSpace, t: TildeClass) -> int:
    """Anticanonical degree of the class on the resolution.

    Equals <beta, chern_degrees> + relative_degree: the tangent bundle
    splits the base tangent degree off the relative one.
    """
    return lift(cone, t.beta, t.relative_degree).chern_degree


def dim_mor_tilde(cone: ConeSpace, t: TildeClass) -> int:
    """Dimension of the (irreducible) space of maps P^1 -> resolution.

    With d the relative degree, l the base degree and e the exceptional
    intersection:

        d >= n*l (e >= 0):  chern_degree + dim_x
        d <  n*l (e <  0):  chern_degree + dim_x - e - 1

    The same number must arise as <beta, chern> + dim(G/P) + fiber_dim
    (base map space plus section space); the two routes are compared on
    every call and a mismatch raises InternalError.
    """
    lf = lift(cone, t.beta, t.relative_degree)
    if not lf.nonempty:
        raise InputError("empty class: the morphism space has no dimension")
    if lf.dim_branch != lf.dim_base_fiber:
        raise InternalError(f"dimension routes disagree: {lf.dim_branch} != {lf.dim_base_fiber} for {t}")
    return lf.dim_branch
