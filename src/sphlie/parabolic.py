"""Standard parabolic subalgebras q_F = l_F + u_F and their Levi structure.

A standard parabolic is indexed by a subset F of the simple restricted
roots: the Levi l_F collects the zero space and all root spaces of roots in
span(F); the nilradical u_F collects the positive root spaces outside
span(F).  The simple roots are certified linearly independent, so a root
lies in span(F) exactly when its support (the simple roots with a nonzero
coordinate in it, or in its negative) is inside F.  The Levi's noncompact
simple ideals are read off the connected components of F.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .errors import CertificationError, DimensionMismatch
from .liealg import CartanData, Root, _levi_split
from .linalg import (
    Subspace,
    Vector,
    ZERO,
    canonical_basis,
    lin_comb,
    solve_linear,
    subspace_intersect,
    subspace_sum,
    zero_vector,
)
from .orbits import DerivationPair


def _subset_indices(cd: CartanData, f: Iterable) -> set[int]:
    """The indices into cd.simple_roots of the roots or indices in f."""
    out = set()
    for item in f:
        if isinstance(item, int):
            if not 0 <= item < len(cd.simple_roots):
                raise DimensionMismatch(
                    f"simple root index {item} out of range")
            out.add(item)
        else:
            root = tuple(Fraction(x) for x in item)
            if root not in cd.simple_roots:
                raise DimensionMismatch(f"{root} is not a simple root")
            out.add(cd.simple_roots.index(root))
    return out


def normalize_subset(cd: CartanData, f: Iterable) -> tuple[Root, ...]:
    """Accepts roots or indices into cd.simple_roots; returns sorted roots
    (the simple roots are sorted, so in the order of their indices)."""
    return tuple(cd.simple_roots[i] for i in sorted(_subset_indices(cd, f)))


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

    @cached_property
    def derivation(self) -> DerivationPair:
        """The characteristic element x0 of the subset and the layers of
        -ad x0 on u, shared by the Levi adjustment and the orbit identity
        and read off the root table, which proves what
        :func:`~sphlie.orbits.derivation_pair` checks for a given (x0, u).
        u = ⊕ g_α over the positive α = Σ nᵢαᵢ, ints nᵢ >= 0
        (``cd.simple_coordinates``), whose support leaves F; x0 ∈ a has
        αᵢ(x0) = -1 off F and 0 on F.  So -ad x0 = Σ_{i∉F} nᵢ > 0 on g_α:
        the layers group the root spaces by this F-height, [x0, u] = u, and
        [g_α, g_β] ⊆ g_{α+β} closes u, as α + β leaves F too."""
        cd = self.cartan
        outside = set(range(len(cd.simple_roots))) - set(self.subset_indices)
        layers: dict[int, list[Vector]] = {}
        for root, coords in zip(cd.positive_roots, cd.simple_coordinates):
            if height := sum(coords[i] for i in outside):
                layers.setdefault(height, []).extend(cd.root_space(root).basis)
        return DerivationPair(
            cd.algebra, tuple(characteristic_element(cd, self.subset)),
            self.nilradical, tuple((Fraction(lam), canonical_basis(
                layers[lam], cd.algebra.dim)) for lam in sorted(layers)))


def standard_parabolic(cd: CartanData, f: Iterable) -> ParabolicData:
    """The standard parabolic attached to a subset of the simple roots."""
    inside = _subset_indices(cd, f)
    levi = list(cd.zero_space.basis)
    nil = []
    for space, support, positive, _ in cd._table:
        if support <= inside:
            levi.extend(space.basis)
        elif positive:
            nil.extend(space.basis)
    d = cd.algebra.dim
    return ParabolicData(cartan=cd, subset=normalize_subset(cd, inside),
                         q=canonical_basis(levi + nil, d),
                         levi=canonical_basis(levi, d),
                         nilradical=canonical_basis(nil, d))


@dataclass(frozen=True, eq=False)
class LeviStructure:
    """Fine structure of a standard Levi l.

    l = z_np + z_cp + l_c + l_n where z_np/z_cp are the noncompact/compact
    parts of the center of l, l_c is the sum of its compact simple ideals
    and l_n the sum of its noncompact ones; ``compact_part`` is z_cp + l_c,
    all in the ambient coordinates of g.
    """

    levi: Subspace
    center: Subspace
    z_np: Subspace
    z_cp: Subspace
    compact_ideals: Subspace
    noncompact_ideals: Subspace

    @cached_property
    def reductive_complement(self) -> Subspace:
        """z(l) + l_c: the part of l that meets h in the compact directions."""
        return subspace_sum(self.center, self.compact_ideals)

    @cached_property
    def compact_part(self) -> Subspace:
        return subspace_sum(self.z_cp, self.compact_ideals)


def levi_fine_structure(pd: ParabolicData) -> LeviStructure:
    """Split the Levi of a standard parabolic into center (noncompact and
    compact parts) and compact and noncompact ideal sums, read off the
    restricted roots (:func:`~sphlie.liealg._levi_split`, which certifies
    l = z(l) ⊕ l_c ⊕ l_n).

    z(l) = z_np ⊕ z_cp needs no test: l = z_g(x0) for the characteristic
    element x0 ∈ a ⊆ s (α(x0) = 0 exactly on the roots of l), and
    θx0 = -x0, so θl = z_g(-x0) = l and θ keeps z(l); z = (z + θz)/2 +
    (z - θz)/2 splits each z ∈ z(l) into k and s.

    Nor does a = z_np ⊕ (a ∩ l_n).  z_np ⊆ s commutes with a ⊆ l, and a is
    maximal abelian in s, so z_np ⊆ a.  Write x ∈ a as z + c + n in
    l = z(l) ⊕ l_c ⊕ l_n.  θ keeps z(l) and [l, l] = l_c ⊕ l_n, so θx = -x
    puts z in z_np ⊆ a.  ad x acts on l_c as ad c, with real eigenvalues as
    x ∈ s and imaginary ones as the Killing form B is invariant and
    negative definite there; so [c, l_c] = 0, and as l_c = [C', C'] =
    [l_c, l_c] for C' = z(l) ⊕ l_c, B(c, l_c) = 0 and c = 0.  Then
    n = x - z ∈ a ∩ l_n."""
    cd, levi = pd.cartan, pd.levi
    center, lc, ln, _ = _levi_split(cd, pd.subset_indices, levi)
    return LeviStructure(levi=levi, center=center,
                         z_np=subspace_intersect(center, cd.s),
                         z_cp=subspace_intersect(center, cd.k),
                         compact_ideals=lc, noncompact_ideals=ln)


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
        rhs.append(ZERO if root in subset else -1)
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
