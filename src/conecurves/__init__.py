"""Components of rational-curve spaces on cones over homogeneous varieties.

Exact integer computation of the index sets, dimensions and vertex
multiplicities of the irreducible components of the space of degree-d
rational curves on a cone over a rational homogeneous base G/P.
"""

from importlib import import_module as _import_module

# The submodule each re-exported name comes from.  Names and submodules
# are resolved on first access by __getattr__, so importing the package
# (and so `python -m conecurves`) loads no submodule it does not use.
_EXPORTS = {
    "affine": ("AffineComparison", "AffineData", "comarks", "compare_ne_ir"),
    "components": (
        "ComponentDescriptor",
        "ComponentReport",
        "EffectiveClass",
        "EquidimReport",
        "classify",
        "count_components",
        "is_equidimensional",
        "ne",
        "total_degree",
    ),
    "conegeom": (
        "ConeSpace",
        "Lift",
        "TildeClass",
        "base_degree",
        "build_cone",
        "chern_degree_tilde",
        "cone_from_ell",
        "dim_mor_tilde",
        "e_intersection",
        "fiber_dim",
        "has_lines",
        "is_nonempty",
        "lemma_equiv_check",
        "lift",
    ),
    "errors": ("InputError", "InternalError"),
    "parabolic": ("ParabolicData", "build_parabolic", "kappa", "minimal_ample", "validate_ample"),
    "rootsys": (
        "CartanType",
        "Root",
        "RootSystem",
        "Weight",
        "build_root_system",
        "highest_root",
        "pair",
        "rho",
        "weyl_dim",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)  # importing binds it here too
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    """The names an eager import of every re-exported name would bind."""
    public = {n for n in globals() if not n.startswith("_") or n.startswith("__")}
    return sorted((public | set(__all__) | set(_EXPORTS)) - {"__getattr__", "__dir__"})
