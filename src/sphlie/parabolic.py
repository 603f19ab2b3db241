"""Standard parabolic subalgebras q_F = l_F + u_F and their Levi structure.

A standard parabolic is indexed by a subset F of the simple restricted
roots: the Levi l_F collects the zero space and all root spaces of roots in
span(F); the nilradical u_F collects the positive root spaces outside
span(F).  Membership of a root in span(F) is decided by an exact rational
solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CertificationError, DimensionMismatch
from .liealg import (
    CartanData,
    Root,
    ReductiveSplit,
    lift_subspace,
    simple_ideal_split,
    subalgebra,
)
from .linalg import (
    Subspace,
    Vector,
    ZERO,
    lin_comb,
    solve_linear,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
    zero_vector,
)


def _root_in_span(root: Root, f: Sequence[Root]) -> bool:
    if not f:
        return all(x == 0 for x in root)
    rows = [[b[i] for b in f] for i in range(len(root))]
    sol = solve_linear(rows, list(root))
    return sol is not None and lin_comb(sol, f, len(root)) == tuple(root)


def normalize_subset(cd: CartanData, f: Iterable) -> tuple[Root, ...]:
    """Accepts roots or indices into cd.simple_roots; returns sorted roots."""
    out = []
    for item in f:
        if isinstance(item, int):
            if not 0 <= item < len(cd.simple_roots):
                raise DimensionMismatch(
                    f"simple root index {item} out of range")
            out.append(cd.simple_roots[item])
        else:
            root = tuple(Fraction(x) for x in item)
            if root not in cd.simple_roots:
                raise DimensionMismatch(f"{root} is not a simple root")
            out.append(root)
    return tuple(sorted(set(out)))


@dataclass(frozen=True, eq=False)
class ParabolicData:
    """q = l + u for a subset F of the simple roots."""

    cartan: CartanData
    subset: tuple[Root, ...]
    q: Subspace
    levi: Subspace
    nilradical: Subspace

    @property
    def subset_indices(self) -> tuple[int, ...]:
        return tuple(self.cartan.simple_roots.index(r) for r in self.subset)


def standard_parabolic(cd: CartanData, f: Iterable) -> ParabolicData:
    """The standard parabolic attached to a subset of the simple roots."""
    subset = normalize_subset(cd, f)
    levi = cd.zero_space
    nil = zero_subspace(cd.algebra.dim)
    for root in cd.roots:
        sp = cd.root_space(root)
        if _root_in_span(root, subset):
            levi = subspace_sum(levi, sp)
        elif cd.is_positive(root):
            nil = subspace_sum(nil, sp)
    q = subspace_sum(levi, nil)
    return ParabolicData(cartan=cd, subset=subset, q=q, levi=levi, nilradical=nil)


@dataclass(frozen=True, eq=False)
class LeviStructure:
    """Fine structure of a theta-stable Levi l.

    l = z_np + z_cp + l_c + l_n where z_np/z_cp are the noncompact/compact
    parts of the center of l and l_c/l_n collect its compact/noncompact
    minimal ideals.  All six subspaces are in the ambient coordinates of g.
    """

    levi: Subspace
    center: Subspace
    z_np: Subspace
    z_cp: Subspace
    compact_ideals: Subspace
    noncompact_ideals: Subspace
    split: ReductiveSplit

    @property
    def reductive_complement(self) -> Subspace:
        """z(l) + l_c: the part of l that meets h in the compact directions."""
        return subspace_sum(self.center, self.compact_ideals)


def levi_fine_structure(cd: CartanData, levi: Subspace) -> LeviStructure:
    """Split a Levi into center (noncompact/compact parts) and compact and
    noncompact ideal sums, with the direct-sum identities certified."""
    g = cd.algebra
    sub = subalgebra(g, levi, name="levi")
    split = simple_ideal_split(sub)
    center = lift_subspace(split.center, levi)
    lc = zero_subspace(g.dim)
    for ideal in split.compact_part:
        lc = subspace_sum(lc, lift_subspace(ideal, levi))
    ln = zero_subspace(g.dim)
    for ideal in split.noncompact_part:
        ln = subspace_sum(ln, lift_subspace(ideal, levi))
    z_np = subspace_intersect(center, cd.s)
    z_cp = subspace_intersect(center, cd.k)
    if subspace_sum(z_np, z_cp) != center:
        raise CertificationError(
            "center of the Levi is not theta-stable; its compact/noncompact "
            "parts do not span it")
    total = subspace_sum(subspace_sum(z_np, z_cp), subspace_sum(lc, ln))
    if total != levi or z_np.dim + z_cp.dim + lc.dim + ln.dim != levi.dim:
        raise CertificationError("Levi fine structure does not sum directly")
    # a = z_np + (a intersect l_n) must split a
    a_ln = subspace_intersect(cd.a, ln)
    if subspace_sum(z_np, a_ln) != cd.a or z_np.dim + a_ln.dim != cd.a.dim:
        raise CertificationError(
            "a does not split as z(l)_np + (a intersect l_n)")
    return LeviStructure(levi=levi, center=center, z_np=z_np, z_cp=z_cp,
                         compact_ideals=lc, noncompact_ideals=ln, split=split)


def characteristic_element(cd: CartanData, f: Iterable) -> Vector:
    """The element X of a with alpha(X) = 0 on F and -1 on the other simple
    roots (canonical solution: free coordinates set to zero).

    ad(X) then vanishes on l_F and has strictly negative rational eigenvalues
    on u_F.
    """
    subset = set(normalize_subset(cd, f))
    if cd.a.dim == 0:
        if subset or cd.simple_roots:
            raise DimensionMismatch("no torus to solve in")
        return zero_vector(cd.algebra.dim)
    rows = []
    rhs = []
    for root in cd.simple_roots:
        rows.append(list(root))
        rhs.append(ZERO if root in subset else Fraction(-1))
    if not rows:
        return zero_vector(cd.algebra.dim)
    sol = solve_linear(rows, rhs)
    if sol is None:
        raise CertificationError(
            "characteristic element system is inconsistent; simple roots are "
            "not independent functionals on a")
    return lin_comb(sol, cd.a.basis, cd.algebra.dim)


def containment_check(pd: ParabolicData, other: ParabolicData) -> bool:
    """If l intersects the other nilradical trivially then q <= q'.

    Returns the truth of l ∩ u' = 0; when that holds, q <= q' is asserted
    exactly (a failure would be a library bug, reported as
    CertificationError).
    """
    if pd.cartan is not other.cartan:
        raise DimensionMismatch(
            "parabolic data built from different Cartan data cannot be compared")
    if subspace_intersect(pd.levi, other.nilradical).dim != 0:
        return False
    if not pd.q.is_contained_in(other.q):
        raise CertificationError(
            "levi meets the other nilradical trivially but q is not contained "
            "in q'; parabolic lattice is inconsistent")
    return True
