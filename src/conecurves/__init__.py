"""Components of rational-curve spaces on cones over homogeneous varieties.

Exact integer computation of the index sets, dimensions and vertex
multiplicities of the irreducible components of the space of degree-d
rational curves on a cone over a rational homogeneous base G/P.
"""

from .affine import AffineComparison, AffineData, comarks, compare_ne_ir, level_weights
from .components import (
    ComponentDescriptor,
    ComponentReport,
    EffectiveClass,
    EquidimReport,
    classify,
    count_components,
    is_equidimensional,
    ne,
    total_degree,
)
from .conegeom import (
    ConeSpace,
    Lift,
    TildeClass,
    base_degree,
    build_cone,
    chern_degree_tilde,
    cone_from_ell,
    dim_mor_tilde,
    e_intersection,
    fiber_dim,
    has_lines,
    is_nonempty,
    lemma_equiv_check,
    lift,
    pushforward_degree,
)
from .errors import InputError, InternalError
from .parabolic import ParabolicData, build_parabolic, kappa, minimal_ample, validate_ample
from .rootsys import (
    CartanType,
    Root,
    RootSystem,
    Weight,
    build_root_system,
    highest_root,
    pair,
    rho,
    weyl_dim,
)

__version__ = "0.1.0"

__all__ = [
    "AffineComparison",
    "AffineData",
    "CartanType",
    "ComponentDescriptor",
    "ComponentReport",
    "ConeSpace",
    "EffectiveClass",
    "EquidimReport",
    "InputError",
    "InternalError",
    "Lift",
    "ParabolicData",
    "Root",
    "RootSystem",
    "TildeClass",
    "Weight",
    "base_degree",
    "build_cone",
    "build_parabolic",
    "build_root_system",
    "chern_degree_tilde",
    "classify",
    "comarks",
    "compare_ne_ir",
    "cone_from_ell",
    "count_components",
    "dim_mor_tilde",
    "e_intersection",
    "fiber_dim",
    "has_lines",
    "highest_root",
    "is_equidimensional",
    "is_nonempty",
    "kappa",
    "lemma_equiv_check",
    "level_weights",
    "lift",
    "minimal_ample",
    "ne",
    "pair",
    "pushforward_degree",
    "rho",
    "total_degree",
    "validate_ample",
    "weyl_dim",
]
