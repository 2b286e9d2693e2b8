"""Standard parabolic subgroups and the geometry of the base variety G/P.

A parabolic is specified by its set of marked simple roots alpha_p (the
nodes crossed in the marked Dynkin diagram): these are exactly the
simple roots whose negative root space is excluded from p.  The marked
set indexes the Picard lattice of G/P.  The nilradical consists of the
positive roots whose support meets the marked set; its size is
dim(G/P), and pairing the i-th marked coroot with the sum of nilradical
roots gives the degree c_i of the anticanonical class on the dual curve
class (the Fano index data of G/P); build_parabolic selects the
nilradical on the root system's support masks.  The connected components
of the marked subdiagram are the simple factors of the Picard lattice;
each parabolic computes them and their comarks once, on first use, as
the inputs of affine.compare_ne_ir.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .errors import InputError
from .rootsys import Root, RootSystem, Weight, highest_roots, parse_decimal, subsystem_comarks


@dataclass(frozen=True)
class ParabolicData:
    """A marked Dynkin diagram and the derived base-variety data.

    alpha_p is the sorted tuple of marked node labels (1-based);
    chern_degrees is aligned with alpha_p.
    """

    rs: RootSystem
    alpha_p: tuple[int, ...]
    nilradical: tuple[Root, ...]
    chern_degrees: tuple[int, ...]
    dim_gp: int

    @cached_property
    def factor_split(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The marked subdiagram's components, by smallest node: node tuples, comark vectors, and those joined.

        Computed on first use from the components' highest roots and kept
        with this parabolic, so every comparison on it shares the same
        three tuples; it is not a field, so equality, hashing and repr
        ignore it.  An InternalError from the comark checks is raised
        again on every use, never kept.
        """
        rs = self.rs
        factors = highest_roots(rs, self.alpha_p)
        nodes = tuple([f for f, _ in factors])
        vecs = tuple([subsystem_comarks(rs, theta) for _, theta in factors])
        return nodes, vecs, sum(vecs, ())


def build_parabolic(rs: RootSystem, alpha_p) -> ParabolicData:
    """Build parabolic data from a set of 1-based marked node labels."""
    marked = tuple(sorted(set(alpha_p)))
    if not marked:
        raise InputError("alpha(p) must be nonempty: the base variety must have positive dimension")
    rank = rs.rank
    bits = 0
    for i in marked:
        if not 1 <= i <= rank:
            raise InputError(f"parabolic index {i} out of range 1..{rank}")
        bits |= 1 << i - 1
    nil = [g for g, m in zip(rs.positive_roots, rs.support_masks) if m & bits]
    total = tuple(map(sum, zip(*nil)))
    # <alpha_i^vee, total> for each marked i: row i of the Cartan matrix against the summed nilradical.
    chern = tuple([sum(map(mul, rs.cartan[i - 1], total)) for i in marked])
    return ParabolicData(rs, marked, tuple(nil), chern, len(nil))


def kappa(p: ParabolicData) -> Weight:
    """The weight pairing to 2 with every marked coroot and 0 with the rest.

    For the full flag variety (all nodes marked) this is 2*rho.  It is
    the sum of anticanonical classes of the Picard factors and enters
    the lines/no-lines dichotomy; the per-node anticanonical degrees of
    G/P itself are chern_degrees, which exceed 2 in general.
    """
    return tuple(2 if i in p.alpha_p else 0 for i in range(1, p.rs.rank + 1))


def minimal_ample(p: ParabolicData) -> Weight:
    """The smallest ample weight on the base: 1 on every marked node, 0 elsewhere."""
    return tuple(1 if i in p.alpha_p else 0 for i in range(1, p.rs.rank + 1))


def validate_ample(p: ParabolicData, lam: Weight) -> tuple[int, ...]:
    """Check that lam is ample and supported on the facet of the parabolic.

    Requires coordinate >= 1 on every marked node and = 0 off the marked
    set.  Returns the restriction of lam to alpha_p (the degree vector
    of the embedding on the Picard generators).
    """
    if len(lam) != p.rs.rank:
        raise InputError(f"lambda has {len(lam)} coordinates, expected {p.rs.rank}")
    marked = p.alpha_p
    degrees = []
    for i, v in enumerate(lam, 1):
        if i in marked:
            if v < 1:
                raise InputError(f"lambda[{i}] = {v}: coordinates on alpha(p) must be >= 1 for an ample class")
            degrees.append(v)
        elif v != 0:
            raise InputError(f"lambda[{i}] = {v}: coordinates off alpha(p) must be 0")
    return tuple(degrees)


def parse_alpha_p(text: str) -> tuple[int, ...]:
    """Parse comma-separated distinct 1-based node labels, e.g. "2" or "1,3"."""
    out = tuple(parse_decimal(part.strip(), "parabolic index") for part in text.split(","))
    if len(set(out)) != len(out):
        raise InputError(f"repeated parabolic index in {text!r}")
    return out


def parse_lambda(text: str, rank: int) -> Weight:
    """Parse comma-separated full-rank weight coordinates, e.g. "1,0,2"."""
    coords = tuple(parse_decimal(part.strip(), "lambda coordinate") for part in text.split(","))
    if len(coords) != rank:
        raise InputError(f"lambda has {len(coords)} coordinates, expected {rank}")
    return coords
