"""Normalizers: exact computation and verified structural splitting.

Every expected subspace below is hand linear algebra on explicit matrices;
bases are written in the coordinate order of the builders.
"""

from dataclasses import replace

import pytest

from sphlie.builders import direct_sum_basis, gl, sl, sl_basis, so_basis
from sphlie.errors import NotClosed
from sphlie.liealg import LieAlgebra, cartan_data
from sphlie.linalg import canonical_basis, subspace_sum
from sphlie.normalizer import normalizer_in, normalizer_report
from sphlie.spherical import spherical_pair, structure_report


# -- fixtures ---------------------------------------------------------------


def sl2_pair(h_rows):
    cd = cartan_data(sl(2))
    return spherical_pair(cd, canonical_basis(h_rows, 3))


def gl2_projection_pair():
    # h = span(E11 + E21), the image of span(E11) under Ad(exp(E21));
    # gl coordinates are ordered (E11, E22, E12, E21).
    cd = cartan_data(gl(2))
    return spherical_pair(cd, canonical_basis([(1, 0, 0, 1)], 4))


def sl2_plus_so2_pair():
    # coordinates (H, E, F, J); h = span(H, F), the opposite Borel of the
    # simple factor.
    g = LieAlgebra(direct_sum_basis([sl_basis(2), so_basis(2)]),
                   name="sl2+so2")
    cd = cartan_data(g)
    return spherical_pair(cd, canonical_basis([(1, 0, 0, 0), (0, 0, 1, 0)], 4))


def shifted_diagonal_pair():
    # Ad(exp(E,0)) of the diagonal sl2 in sl2+sl2 with opposite positivity:
    # the pair whose structure report needs a nontrivial Levi adjustment.
    g = LieAlgebra(direct_sum_basis([sl_basis(2), sl_basis(2)]), name="sl2+sl2")
    h1 = g.from_matrix(g.basis[0])
    h2 = g.from_matrix(g.basis[3])
    cd = cartan_data(g, positivity_basis=[h1, tuple(-x for x in h2)])
    conj = g.span_of_matrices([
        [[1, -2, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
        [[1, -1, 0, 0], [1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
    ])
    return spherical_pair(cd, conj)


# -- normalizer_in ----------------------------------------------------------


def test_normalizer_of_so2_in_sl2_is_itself():
    g = sl(2)
    h = canonical_basis([(0, 1, -1)], 3)
    assert normalizer_in(g, h) == h


def test_normalizer_of_root_line_is_the_borel():
    g = sl(2)
    h = canonical_basis([(0, 1, 0)], 3)           # span(E)
    assert normalizer_in(g, h) == canonical_basis(
        [(1, 0, 0), (0, 1, 0)], 3)                # span(H, E)


def test_normalizer_of_ideal_is_whole_algebra():
    g = LieAlgebra(direct_sum_basis([sl_basis(2), sl_basis(2)]))
    first = canonical_basis(
        [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], 6)
    assert normalizer_in(g, first) == g.full_space()


def test_normalizer_of_zero_is_whole_algebra():
    g = sl(2)
    assert normalizer_in(g, canonical_basis([], 3)) == g.full_space()


def test_normalizer_rejects_non_subalgebra():
    g = sl(2)
    with pytest.raises(NotClosed):
        normalizer_in(g, canonical_basis([(0, 1, 0), (0, 0, 1)], 3))


def test_normalizer_is_idempotent():
    g = sl(2)
    for rows in ([(0, 1, 0)], [(0, 1, -1)], [(1, 0, 0), (0, 0, 1)]):
        once = normalizer_in(g, canonical_basis(rows, 3))
        assert normalizer_in(g, once) == once
    g2 = gl(2)
    once = normalizer_in(g2, canonical_basis([(1, 0, 0, 1)], 4))
    assert normalizer_in(g2, once) == once


# -- normalizer_report ------------------------------------------------------


def test_report_so2_in_sl2():
    pair = sl2_pair([(0, 1, -1)])
    nr = normalizer_report(structure_report(pair))
    assert nr.normalizer == pair.h
    assert nr.complement.dim == 0
    assert nr.split_part.dim == 0 and nr.compact_factor.dim == 0
    assert nr.all_ok


def test_report_lower_borel_in_sl2():
    pair = sl2_pair([(1, 0, 0), (0, 0, 1)])
    nr = normalizer_report(structure_report(pair))
    assert nr.normalizer == pair.h
    assert nr.complement.dim == 0
    assert nr.all_ok


def test_report_full_subalgebra():
    pair = sl2_pair([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    nr = normalizer_report(structure_report(pair))
    assert nr.normalizer == pair.algebra.full_space()
    assert nr.complement.dim == 0
    assert nr.all_ok


def test_report_gl2_projection_line():
    # normalizer = the conjugated torus span(E11+E21, E22-E21); the
    # complement of h inside it that meets the Levi's center is span(I),
    # which is split (it lies in the noncompact part of the center).
    pair = gl2_projection_pair()
    nr = normalizer_report(structure_report(pair))
    assert nr.normalizer == canonical_basis([(1, 0, 0, 1), (0, 1, 0, -1)], 4)
    assert nr.complement == canonical_basis([(1, 1, 0, 0)], 4)   # span(I)
    assert nr.split_part == nr.complement
    assert nr.compact_factor.dim == 0
    assert subspace_sum(pair.h, nr.complement) == nr.normalizer
    assert nr.all_ok


def test_report_compact_complement_direction():
    # In sl2+so2 the normalizer of the opposite Borel of the simple factor
    # picks up the central so2: the complement is compact, not split.
    pair = sl2_plus_so2_pair()
    nr = normalizer_report(structure_report(pair))
    assert nr.normalizer == canonical_basis(
        [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4)
    assert nr.complement == canonical_basis([(0, 0, 0, 1)], 4)   # span(J)
    assert nr.split_part.dim == 0
    assert nr.compact_factor == nr.complement
    assert nr.all_ok


def test_report_levi_adjusted_pair():
    # The shifted diagonal is self-normalizing; the report must run through
    # the nontrivial Levi adjustment and still certify everything.
    pair = shifted_diagonal_pair()
    sr = structure_report(pair)
    assert sr.levi_adjustment.factors
    assert not sr.adapted.levi.is_contained_in(sr.adjusted_levi)
    nr = normalizer_report(sr)
    assert nr.normalizer == pair.h
    assert nr.complement.dim == 0
    assert nr.all_ok


def test_a_levi_adjusted_report_solves_one_normalizer(monkeypatch):
    """N(h_std) is N(h) moved by Ad(w⁻¹), not a second transporter."""
    import sphlie.normalizer as normalizer

    sr = structure_report(shifted_diagonal_pair())
    assert sr.levi_adjustment.factors
    real_transporter = normalizer.transporter
    calls = []
    monkeypatch.setattr(
        normalizer, "transporter",
        lambda g, s, t, **kw: calls.append(s) or real_transporter(g, s, t,
                                                                  **kw))
    nr = normalizer_report(sr)
    assert calls == [sr.pair.h] and nr.all_ok
    h_std = sr.standard_form_h
    assert (real_transporter(sr.pair.algebra, h_std, h_std)
            == sr.levi_adjustment.inverse.image(nr.normalizer))


def test_report_opposite_diagonal_is_self_normalizing():
    g = LieAlgebra(direct_sum_basis([sl_basis(2), sl_basis(2)]), name="sl2+sl2")
    h1 = g.from_matrix(g.basis[0])
    h2 = g.from_matrix(g.basis[3])
    cd = cartan_data(g, positivity_basis=[h1, tuple(-x for x in h2)])
    diag = canonical_basis(
        [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)], 6)
    pair = spherical_pair(cd, diag)
    nr = normalizer_report(structure_report(pair))
    assert nr.normalizer == diag
    assert nr.complement.dim == 0
    assert nr.all_ok


# -- the closure flags on a misreported Levi split ----------------------------


def misreported(h_std, z_np, compact):
    """normalizer_report for h = 0 in sl(2), with the standard form h_std
    and the Levi split (center = z_np, compact ideals ``compact``) read off
    a report of sl(2)/so(2): not a true split, so the closure identities
    behind split_ok and elementary_ok can fail.  sl(2) coordinates are
    (H, E, F)."""
    sr = structure_report(sl2_pair([(0, 1, -1)]))
    zero = canonical_basis([], 3)
    levi = replace(sr.levi_structure, center=z_np, z_np=z_np, z_cp=zero,
                   compact_ideals=compact)
    return normalizer_report(replace(
        sr, pair=spherical_pair(sr.pair.cartan, zero), standard_form_h=h_std,
        levi_structure=levi))


H, E_MINUS_F = canonical_basis([(1, 0, 0)], 3), canonical_basis([(0, 1, -1)], 3)


def test_a_split_part_that_is_not_abelian_fails_elementary():
    # a = n(0) = sl(2) itself
    nr = misreported(canonical_basis([], 3), canonical_basis([
        (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3), canonical_basis([], 3))
    assert nr.split_part.dim == 3
    assert nr.split_ok and not nr.elementary_ok


def test_a_split_part_outside_the_split_torus_fails_elementary():
    # a = span(E + F): abelian, and ad(E + F) has the rational spectrum
    # 0, 2, -2, but E + F is not in the split torus span(H)
    nr = misreported(canonical_basis([], 3), canonical_basis([(0, 1, 1)], 3),
                     canonical_basis([], 3))
    assert nr.split_part == canonical_basis([(0, 1, 1)], 3)
    assert not nr.elementary_ok


def test_split_and_compact_parts_that_do_not_commute_fail_elementary():
    # a = span(H), m = span(E - F): [H, E - F] = 2(E + F)
    nr = misreported(canonical_basis([], 3), H, E_MINUS_F)
    assert (nr.split_part, nr.compact_factor) == (H, E_MINUS_F)
    assert not nr.elementary_ok


@pytest.mark.parametrize("h_std", [(0, 1, 1), (0, 1, 0)],
                         ids=["[a, h] not in h", "[m, h] not in h"])
def test_parts_that_do_not_normalize_h_fail_split(h_std):
    # n(0) = sl(2) = h_std ⊕ span(H, E - F), but [H, E + F] = 2(E - F)
    # and [E - F, E] = H leave h_std
    nr = misreported(canonical_basis([h_std], 3), H, E_MINUS_F)
    assert (nr.split_part, nr.compact_factor) == (H, E_MINUS_F)
    assert not nr.split_ok
