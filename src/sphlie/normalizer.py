"""Exact normalizers of spherical subalgebras and their structure.

For a spherical pair the normalizer of h in g splits as h plus a complement
drawn from the compact-reductive part z(l) + (compact ideals) of the adapted
Levi; the complement itself splits into a split-abelian part inside the
noncompact center and a compact-type part.  All of this is verified here by
exact subspace identities and reported as flags.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificationError, NotClosed
from .liealg import LieAlgebra, transporter
from .linalg import (
    Subspace,
    complement_in,
    is_direct_sum,
    kernel,
    restrict_bilinear_form,
    subspace_intersect,
    subspace_sum,
    symmetric_signature,
)
from .spherical import StructureReport


def normalizer_in(g: LieAlgebra, h: Subspace) -> Subspace:
    """The normalizer of a subalgebra: all x with [x, h] contained in h.

    Solved as one exact kernel computation (the transporter of h into
    itself); the result is certified to be a subalgebra containing h as an
    ideal.
    """
    if not g.is_subalgebra(h):
        raise NotClosed("can only normalize a subalgebra")
    return _normalizer(g, h)


def _normalizer(g: LieAlgebra, h: Subspace) -> Subspace:
    """normalizer_in for an h already certified to be a subalgebra.  The
    output is certified too, except when it is h itself."""
    out = transporter(g, h, h)
    if out != h and (not h.is_contained_in(out)
                     or not g.is_subalgebra(out)):
        raise CertificationError(
            "normalizer certification failed (library bug)")
    return out


@dataclass(frozen=True, eq=False)
class NormalizerReport:
    """Normalizer of h together with its verified splitting.

    When all flags hold: ``normalizer`` = h ⊕ ``complement`` with the
    complement inside z(l) + (compact ideals) of the adjusted Levi;
    ``complement`` = ``split_part`` ⊕ ``compact_factor``; the whole
    normalizer is self-normalizing; and the adapted subset for h also works
    for the normalizer.  ``elementary_ok`` certifies the quotient shape: the
    split part lies in the split torus a, so it is abelian and acts
    diagonalizably, by the rational restricted roots, on the certified root
    decomposition of g; the compact factor carries a negative semidefinite
    invariant form whose radical is central, and the two commute.
    """

    normalizer: Subspace
    complement: Subspace
    split_part: Subspace
    compact_factor: Subspace
    split_ok: bool
    elementary_ok: bool
    self_normalizing_ok: bool
    same_adapted_ok: bool

    @property
    def all_ok(self) -> bool:
        return (self.split_ok and self.elementary_ok
                and self.self_normalizing_ok and self.same_adapted_ok)


def normalizer_report(sr: StructureReport) -> NormalizerReport:
    pair = sr.pair
    cd = pair.cartan
    g = cd.algebra
    fs = sr.levi_structure
    word = sr.levi_adjustment
    h_std = sr.standard_form_h

    # spherical_pair certified h.  Ad(w⁻¹) is an automorphism carrying h to
    # h_std, so it carries N(h) to N(h_std); canonical bases are unique, so
    # its image is N(h_std) itself, with no second transporter
    ntilde = _normalizer(g, pair.h)
    n_std = word.inverse.image(ntilde)

    hd = sr.standard_reductive_part
    n_a = subspace_intersect(n_std, fs.z_np)
    n_m = subspace_intersect(n_std, fs.compact_part)
    # m complements h ∩ d in N_m, a complements (h ∩ d) + N_m in N_a
    m_std = complement_in(subspace_intersect(hd, n_m), n_m)
    a_std = complement_in(subspace_intersect(subspace_sum(hd, n_m), n_a), n_a)
    c_std = subspace_sum(a_std, m_std)

    split_ok = (
        is_direct_sum(n_std, h_std, c_std)
        and c_std.is_contained_in(fs.reductive_complement)
        and is_direct_sum(c_std, a_std, m_std)
        and g.brackets_within(a_std, h_std, h_std)
        and g.brackets_within(m_std, h_std, h_std)
    )

    def _elementary() -> bool:
        # a true Levi split has a_std ⊆ z_np ⊆ a (levi_fine_structure), and
        # a is abelian and acts on g by the rational restricted roots
        if not a_std.is_contained_in(cd.a):
            return False
        if m_std.dim == 0:  # an empty Gram matrix: no form, no centre
            return True
        gram = restrict_bilinear_form(g.invariant_form(), m_std)
        npos, _, nzero = symmetric_signature(gram)
        if npos:
            return False
        if nzero:
            centre = g.center()
            radical = kernel([list(row) for row in gram], m_std.dim)
            for coords in radical.basis:
                if not centre.contains(m_std.from_coordinates(coords)):
                    return False
        return g.brackets_within(a_std, m_std, g.zero_space())

    elementary_ok = _elementary()
    # N(h) = h makes ntilde its own normalizer by the transporter above
    self_normalizing_ok = (ntilde == pair.h
                           or _normalizer(g, ntilde) == ntilde)
    # N(h) = h makes this the enumeration's test, which passed u
    same_adapted_ok = (ntilde == pair.h or is_direct_sum(
        cd.n, sr.adapted.nilradical, subspace_intersect(cd.n, ntilde)))

    return NormalizerReport(
        normalizer=ntilde,
        complement=word.image(c_std),
        split_part=word.image(a_std),
        compact_factor=word.image(m_std),
        split_ok=split_ok,
        elementary_ok=elementary_ok,
        self_normalizing_ok=self_normalizing_ok,
        same_adapted_ok=same_adapted_ok,
    )
