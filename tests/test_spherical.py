"""Sphericity, adapted parabolic, structure report, conjugation, transitivity.

Expected values are hand linear algebra on explicit 2x2 / 3x3 matrices,
written directly into the assertions.
"""

from fractions import Fraction as F

import pytest

from matrix_helpers import apply_ad, mat_invert
from sphlie.builders import (
    direct_sum_basis,
    elementary,
    gl,
    regular_diagonal_positivity,
    sl,
    sl_basis,
    so,
    so_basis,
)
from sphlie.errors import CertificationError, NotClosed, NotReductive, NotSpherical
from sphlie.liealg import LieAlgebra, cartan_data
from sphlie.linalg import (
    canonical_basis,
    identity_matrix,
    mat_apply,
    subspace_sum,
    zero_subspace,
)
from sphlie.spherical import (
    adapted_parabolic,
    candidate_subsets,
    compact_transitivity_check,
    conjugate_search,
    group_element_candidates,
    is_spherical,
    spherical_pair,
    structure_report,
)


# -- fixtures ---------------------------------------------------------------


def sl2_pair(h_rows):
    cd = cartan_data(sl(2))
    return spherical_pair(cd, canonical_basis(h_rows, 3))


def sl2x2_opposite_diag():
    g = LieAlgebra(direct_sum_basis([sl_basis(2), sl_basis(2)]), name="sl2+sl2")
    h1 = g.from_matrix(g.basis[0])
    h2 = g.from_matrix(g.basis[3])
    cd = cartan_data(g, positivity_basis=[h1, tuple(-x for x in h2)])
    diag = canonical_basis(
        [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)], 6)
    return spherical_pair(cd, diag)


def sl3_so3_pair():
    g = sl(3)
    reg = g.from_matrix(regular_diagonal_positivity(3))
    cd = cartan_data(g, positivity_basis=[reg, g.from_matrix(sl_basis(3)[0])])
    h = g.span_of_matrices(
        [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
         [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
         [[0, 0, 0], [0, 0, 1], [0, -1, 0]]])
    return spherical_pair(cd, h)


# -- sphericity -------------------------------------------------------------


def test_is_spherical_sl2_so2():
    pair = sl2_pair([(0, 1, -1)])  # span(E - F)
    assert is_spherical(pair) == (True, 0)


def test_is_spherical_sl2_minimal_parabolic_fails():
    pair = sl2_pair([(1, 0, 0), (0, 1, 0)])  # h = p itself
    assert is_spherical(pair) == (False, 1)


def test_is_spherical_diagonal_in_opposite_product():
    assert is_spherical(sl2x2_opposite_diag()) == (True, 0)


def test_spherical_pair_rejects_non_subalgebra():
    cd = cartan_data(sl(2))
    with pytest.raises(NotClosed):
        spherical_pair(cd, canonical_basis([(0, 1, 0), (0, 0, 1)], 3))


# -- adapted parabolic ------------------------------------------------------


def test_adapted_parabolic_sl2_so2():
    pd = adapted_parabolic(sl2_pair([(0, 1, -1)]))
    assert pd.subset == ()          # u must be all of n
    assert pd.q.dim == 2
    assert pd.nilradical == canonical_basis([(0, 1, 0)], 3)


def test_adapted_parabolic_lower_borel():
    pd = adapted_parabolic(sl2_pair([(1, 0, 0), (0, 0, 1)]))
    assert pd.subset == ()


def test_adapted_parabolic_full_h():
    pd = adapted_parabolic(sl2_pair([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert pd.subset_indices == (0,)  # n ∩ h = n forces u = 0
    assert pd.q == pd.cartan.algebra.full_space()


def test_adapted_parabolic_requires_spherical():
    with pytest.raises(NotSpherical):
        adapted_parabolic(sl2_pair([(1, 0, 0), (0, 1, 0)]))


def test_candidate_subsets_unique_on_examples():
    assert candidate_subsets(sl2_pair([(0, 1, -1)])) == [()]
    assert candidate_subsets(sl2x2_opposite_diag()) == [()]
    assert candidate_subsets(sl3_so3_pair()) == [()]


# -- structure report -------------------------------------------------------


def test_structure_report_sl2_so2():
    rep = structure_report(sl2_pair([(0, 1, -1)]))
    assert rep.adapted_subset == ()
    assert rep.candidates == ((),)
    assert rep.candidates_passing == 1
    assert all(rep.checks.values())
    assert set(rep.checks) == {
        "q_plus_h_is_g", "q_meets_h_inside_levi",
        "noncompact_levi_ideals_in_h", "levi_split_by_p_and_h",
        "nilradical_complement"}
    assert rep.h_reductive_part.dim == 0
    assert rep.h_split_part.dim == 0
    assert rep.rank_torus == canonical_basis([(1, 0, 0)], 3)
    assert rep.rank == 1


def test_structure_report_enumerates_candidates_once(monkeypatch):
    import sphlie.spherical as spherical
    calls = []
    real = spherical.candidate_subsets
    monkeypatch.setattr(spherical, "candidate_subsets",
                        lambda pair: calls.append(pair) or real(pair))
    pair = sl2_pair([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    rep = structure_report(pair)
    assert len(calls) == 1
    assert rep.candidates == ((0,),) and rep.adapted_subset == (0,)


def test_structure_report_lower_borel():
    rep = structure_report(sl2_pair([(1, 0, 0), (0, 0, 1)]))
    assert rep.adapted_subset == ()
    assert rep.h_reductive_part == canonical_basis([(1, 0, 0)], 3)
    assert rep.h_split_part == canonical_basis([(1, 0, 0)], 3)
    assert rep.rank == 0


def test_structure_report_opposite_diagonal():
    rep = structure_report(sl2x2_opposite_diag())
    assert rep.adapted_subset == ()
    # l = a, so h meets it exactly in the diagonal torus
    assert rep.h_reductive_part == canonical_basis([(1, 0, 0, 1, 0, 0)], 6)
    assert rep.h_split_part == rep.h_reductive_part
    assert rep.rank == 1
    assert all(rep.checks.values())


def test_structure_report_sl3_so3():
    rep = structure_report(sl3_so3_pair())
    assert rep.adapted_subset == ()
    assert rep.h_reductive_part.dim == 0
    assert rep.rank == 2
    assert all(rep.checks.values())


def test_structure_report_compact_algebra_member():
    g = so(3)
    cd = cartan_data(g)
    pair = spherical_pair(cd, g.span_of_matrices([so_basis(3)[0]]))
    rep = structure_report(pair)
    assert rep.adapted_subset == ()
    assert rep.rank == 0
    assert rep.levi_structure.compact_ideals == g.full_space()
    assert all(rep.checks.values())


def test_rank_bounded_by_split_torus():
    from sphlie.linalg import subspace_intersect

    for pair in (sl2_pair([(0, 1, -1)]),
                 sl2_pair([(1, 0, 0), (0, 0, 1)]),
                 sl2x2_opposite_diag(),
                 sl3_so3_pair()):
        rep = structure_report(pair)
        assert rep.rank <= pair.cartan.a.dim
        # monotone sanity: rank is the whole torus when l ∩ h stays inside
        # the noncompact ideals plus the compact half
        lh = subspace_intersect(rep.levi_structure.levi, pair.h)
        compactish = subspace_sum(rep.levi_structure.noncompact_ideals,
                                  pair.cartan.k)
        if lh.is_contained_in(compactish):
            assert rep.rank == pair.cartan.a.dim - \
                subspace_intersect(pair.cartan.a,
                                   rep.levi_structure.noncompact_ideals).dim


# -- conjugation ------------------------------------------------------------


def test_group_element_stream_deterministic():
    cd = cartan_data(sl(2))
    a = [d for _, d in zip(range(40), (x[1] for x in group_element_candidates(cd, seed=7)))]
    b = [d for _, d in zip(range(40), (x[1] for x in group_element_candidates(cd, seed=7)))]
    assert a == b
    assert a[0] == "identity"
    assert a[1].startswith("weyl")


def test_apply_ad_is_bracket_automorphism():
    import random

    from sphlie.linalg import mat_mul

    g = sl(3)
    reg = g.from_matrix(regular_diagonal_positivity(3))
    cd = cartan_data(g, positivity_basis=[reg, g.from_matrix(sl_basis(3)[0])])
    elems = []
    for word, _ in group_element_candidates(cd, seed=3):
        elems.append(word.matrix)
        if len(elems) == 8:
            break

    rng = random.Random(11)
    for m in elems:
        minv = mat_invert(m)

        def conj(x):
            return g.from_matrix(mat_mul(mat_mul(m, g.to_matrix(x)), minv))

        for _ in range(4):
            u = tuple(F(rng.randint(-3, 3)) for _ in range(g.dim))
            v = tuple(F(rng.randint(-3, 3)) for _ in range(g.dim))
            assert conj(g.bracket(u, v)) == g.bracket(conj(u), conj(v))


def test_conjugate_search_gl2_line():
    g = gl(2)
    cd = cartan_data(g)
    pair = spherical_pair(cd, g.span_of_matrices([elementary(2, 0, 0)]))
    assert is_spherical(pair) == (False, 1)
    res = conjugate_search(pair, budget=50)
    assert res is not None
    # identity and the Weyl flip fail; exp(E21) is the first single exponential
    assert res.attempts == 3
    assert res.description == "exp(1*g[(-1,1)#0])"
    assert res.conjugated == g.span_of_matrices([[[1, 0], [1, 0]]])
    assert is_spherical(spherical_pair(cd, res.conjugated))[0]


def test_conjugate_search_budget_exhausted_is_none():
    g = gl(2)
    cd = cartan_data(g)
    pair = spherical_pair(cd, g.span_of_matrices([elementary(2, 0, 0)]))
    assert conjugate_search(pair, budget=2) is None


def test_conjugate_search_identity_when_already_open():
    pair = sl2_pair([(0, 1, -1)])
    res = conjugate_search(pair, budget=5)
    assert res is not None
    assert res.attempts == 1
    assert res.description == "identity"
    assert res.element == identity_matrix(2)
    assert res.conjugated == pair.h


def test_conjugate_search_moves_upper_nilpotent_line():
    # h = n itself is not open at the base point, but the Weyl flip moves it
    # to the opposite nilpotent line, which is.
    pair = sl2_pair([(0, 1, 0)])
    assert is_spherical(pair) == (False, 1)
    res = conjugate_search(pair, budget=10)
    assert res is not None
    assert res.attempts == 2
    assert res.description == "weyl[(2)#0]"
    assert res.conjugated == canonical_basis([(0, 0, 1)], 3)
    rep = structure_report(spherical_pair(pair.cartan, res.conjugated))
    assert rep.rank == 1 and rep.adapted_subset == ()


def test_levi_adjustment_engages_for_shifted_diagonal():
    # Conjugating the diagonal by exp(E) in the first factor keeps the pair
    # spherical with the same adapted subset, but q ∩ h leaves the standard
    # Levi; the report must move the Levi by that same exponential and still
    # find rank 1.
    pair = sl2x2_opposite_diag()
    g = pair.algebra
    conj = g.span_of_matrices([
        [[1, -2, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],   # (H-2E, H)
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],      # (E, E)
        [[1, -1, 0, 0], [1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],    # (F+H-E, F)
    ])
    moved = spherical_pair(pair.cartan, conj)
    assert is_spherical(moved) == (True, 0)
    rep = structure_report(moved)
    word = rep.levi_adjustment
    assert word.factors
    assert rep.rank == 1
    assert rep.adapted_subset == ()
    # the adjusted Levi really contains q ∩ h, the standard one does not
    from sphlie.linalg import subspace_intersect
    meet = subspace_intersect(rep.adapted.q, conj)
    assert meet.is_contained_in(rep.adjusted_levi)
    assert not meet.is_contained_in(rep.adapted.levi)
    assert rep.standard_form_h == pair.h
    # Ad(word) is the product of the exp(ad w_i), and word.inverse undoes it
    from sphlie.linalg import (
        exp_nilpotent_matrix,
        mat_apply,
        mat_mul,
        unit_vector,
    )
    from sphlie.spherical import _levi_adjustment
    assert _levi_adjustment(moved.cartan, rep.adapted, meet).factors == \
        word.factors
    phi = identity_matrix(g.dim)
    for w in word.factors:
        phi = mat_mul(phi, exp_nilpotent_matrix(g.ad(w)))
    for j in range(g.dim):
        e_j = unit_vector(g.dim, j)
        assert word.ad(e_j) == mat_apply(phi, e_j)
        assert word.inverse.ad(word.ad(e_j)) == e_j


def test_levi_adjustment_undoes_a_move_by_the_nilradical():
    # Every catalog and ladder pair with u ≠ 0, and sl(3) with h the
    # opposite minimal parabolic, where u has two layers, with h moved by
    # exp(U), U ∈ u.  Ad(exp U) fixes p and every u_F, so the moved pair
    # is still spherical with the same adapted subset, rank and normalizer
    # dimension, and the adjusted Levi must contain q ∩ h.  When
    # z_u(q ∩ h) = 0 the Levi containing q ∩ h is unique, so the
    # adjustment must be exp(U) itself, give back h, and leave the whole
    # normalizer report as it was.  (Otherwise the standard Levi is kept,
    # and the normalizer's complement, read against it, may differ.)
    import random

    from sphlie.liealg import centralizer_in
    from sphlie.linalg import lin_comb, subspace_intersect
    from sphlie.normalizer import normalizer_report
    from sphlie.spherical import GroupWord
    from test_enumeration import catalog_pairs, ladder_pairs

    def summary(rep):
        nr = normalizer_report(rep)
        return (rep.adapted_subset, rep.rank, nr.normalizer.dim,
                nr.complement.dim, nr.split_part.dim, nr.compact_factor.dim,
                nr.all_ok)

    cd = cartan_data(sl(3))
    opposite = canonical_basis(list(cd.zero_space.basis) + [
        mat_apply(cd.theta, v) for v in cd.n.basis], cd.algebra.dim)
    pairs = [pair for _, pair, _ in catalog_pairs()] + ladder_pairs() + [
        spherical_pair(cd, opposite, "sl3_opposite")]
    adjusted = 0
    for pair in pairs:
        g = pair.algebra
        rep = structure_report(pair)
        u = rep.adapted.nilradical
        if u.dim == 0:
            continue
        unique = centralizer_in(
            g, subspace_intersect(rep.adapted.q, pair.h), u).dim == 0
        want = summary(rep)
        for seed in range(3):
            rng = random.Random(seed)
            U = lin_comb([rng.choice((1, -1, 2, -3, F(1, 2), F(-2, 3)))
                          for _ in u.basis], u.basis, g.dim)
            moved = spherical_pair(pair.cartan,
                                   GroupWord(g, (U,)).image(pair.h))
            label = (pair.label, seed)
            assert is_spherical(moved)[0], label
            got = structure_report(moved)
            assert summary(got)[:3] == want[:3], label
            meet = subspace_intersect(got.adapted.q, moved.h)
            assert meet.is_contained_in(got.adjusted_levi), label
            if unique:
                adjusted += 1
                assert got.levi_adjustment.factors == (U,), label
                assert got.standard_form_h == pair.h, label
                assert summary(got) == want, label
    assert adjusted == 12


def test_an_unsolvable_levi_adjustment_is_refused():
    # q ∩ h = span(v) for v ∈ u: v is nilpotent and every Levi of q is
    # reductive with u as a complement, so no Levi contains v
    from sphlie.catalog import get_entry
    from sphlie.problem import build_pair
    from sphlie.spherical import _levi_adjustment

    pair = build_pair(get_entry("sl2_opposite_borel").problem)
    pd = adapted_parabolic(pair)
    assert pd.nilradical.dim
    for v in pd.nilradical.basis:
        with pytest.raises(CertificationError, match="no Levi complement"):
            _levi_adjustment(pair.cartan, pd, canonical_basis([v], len(v)))


def test_rank_constant_over_openness_preserving_conjugates():
    for pair in (sl2_pair([(0, 1, -1)]), sl2x2_opposite_diag(), sl3_so3_pair()):
        base = structure_report(pair).rank
        cd = pair.cartan
        kept = 0
        for word, _ in group_element_candidates(cd, seed=5):
            moved = spherical_pair(cd, apply_ad(cd.algebra, word.matrix,
                                                pair.h))
            if not is_spherical(moved)[0]:
                continue
            assert structure_report(moved).rank == base
            kept += 1
            if kept >= 20:
                break
        assert kept >= 20


# -- compact transitivity ---------------------------------------------------


def test_transitivity_compact_subalgebra_passes_everywhere():
    rep = compact_transitivity_check(sl2_pair([(0, 1, -1)]), samples=100, seed=1)
    assert rep.verdict == "consistent-with-compact"
    assert rep.compact_type is True
    assert rep.samples_run == 100
    assert rep.witness is None


def test_transitivity_noncompact_witness_at_weyl_flip():
    rep = compact_transitivity_check(
        sl2_pair([(1, 0, 0), (0, 0, 1)]), samples=100, seed=1)
    assert rep.verdict == "witness-of-noncompactness"
    assert rep.compact_type is False
    assert rep.samples_run == 2
    assert rep.witness_description == "weyl[(2)#0]"
    assert rep.witness == ((F(0), F(1)), (F(-1), F(0)))


def test_transitivity_precondition_not_spherical():
    cd = cartan_data(sl(2))
    pair = spherical_pair(cd, zero_subspace(3))
    with pytest.raises(NotSpherical):
        compact_transitivity_check(pair, samples=10)


def test_transitivity_precondition_semisimple():
    g = gl(2)
    cd = cartan_data(g)
    pair = spherical_pair(cd, g.span_of_matrices([[[0, 1], [-1, 0]]]))
    with pytest.raises(NotReductive):
        compact_transitivity_check(pair, samples=10)


def test_transitivity_precondition_no_ideal_inside_h():
    g = LieAlgebra(direct_sum_basis([sl_basis(2), sl_basis(2)]), name="sl2+sl2")
    cd = cartan_data(g)
    first_factor = canonical_basis(
        [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], 6)
    pair = spherical_pair(cd, first_factor)
    with pytest.raises(CertificationError):
        compact_transitivity_check(pair, samples=10)


def count_kernel_calls(monkeypatch, names):
    """Count calls to the named sphlie.linalg kernels, rebinding each in
    every sphlie module that imported it.  ``mat_invert`` lives in the
    tests' ``matrix_helpers``, so no sphlie module can call it."""
    import sys
    from collections import Counter

    import matrix_helpers
    import sphlie.linalg as linalg

    calls = Counter()
    for name in names:
        real = getattr(linalg, name, None) or getattr(matrix_helpers, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.startswith("sphlie")
                    and getattr(mod, name, None) is real):
                monkeypatch.setattr(mod, name, counted)
    return calls


MATRIX_KERNELS = ("mat_invert", "mat_mul", "exp_nilpotent_matrix")


def words_leaving_p(cd, count, seed=0):
    """How many of the stream's first ``count`` words have a factor outside
    p, read off root signs: g is g_0 plus the root spaces, a direct sum,
    and p = g_0 + the positive root spaces, so a nonzero root vector lies
    in p exactly when its root is positive."""
    from itertools import islice

    def root_of(x):
        return next(r for r in cd.roots if cd.root_space(r).contains(x))

    return sum(
        any(root_of(x) not in cd.positive_roots for x in word.factors)
        for word, _ in islice(group_element_candidates(cd, seed), count))


def count_closure_checks(monkeypatch):
    calls = []
    real = LieAlgebra.brackets_within
    monkeypatch.setattr(
        LieAlgebra, "brackets_within",
        lambda g, *a: calls.append(a) or real(g, *a))
    return calls


def test_transitivity_ranks_each_sample_that_leaves_p(monkeypatch):
    """Past the preconditions and the stream's nilpotency certificate (the
    samples=1 run, whose one word is the identity), compact_transitivity_check
    makes one integer rank per sampled word with a factor outside p, and
    no rref, closure check or matrix."""
    from sphlie.catalog import get_entry
    from sphlie.problem import Problem, build_pair

    sl4_so4 = build_pair(
        Problem("sl4_so4", 4, tuple(sl_basis(4)), tuple(so_basis(4))))
    runs = [(sl3_so3_pair(), 1), (sl4_so4, 7),
            (build_pair(get_entry("sl2_so2").problem), 0)]
    for pair, seed in runs:
        counts = []
        for samples in (1, 100):
            with monkeypatch.context() as m:
                calls = count_kernel_calls(
                    m, ("int_rank", "rref") + MATRIX_KERNELS)
                closures = count_closure_checks(m)
                rep = compact_transitivity_check(pair, samples=samples,
                                                 seed=seed)
            assert rep.samples_run == samples
            counts.append((calls, len(closures)))
        (base, base_closures), (calls, closures) = counts
        leaving = words_leaving_p(pair.cartan, 100, seed)
        assert 0 < leaving < 100
        assert calls["int_rank"] - base["int_rank"] == leaving
        assert calls["rref"] == base["rref"]
        assert closures == base_closures
        for name in MATRIX_KERNELS:
            assert calls[name] == base[name], name


def test_open_orbit_test_builds_no_fraction_on_integral_data(monkeypatch):
    """The per-sample work of compact_transitivity_check and
    conjugate_search (trim the word's factors in p, move h's scaled basis
    by the rest of the word or its inverse, rank it modulo p) stays in
    ints when the structure constants, p, h and the word's factors are
    integral."""
    from itertools import islice

    from sphlie.orbits import _scaled_in
    from sphlie.spherical import _prepared_words, _trimmed_defect

    pair = sl3_so3_pair()
    cd = pair.cartan
    basis = [_scaled_in(cd.algebra, v) for v in pair.h.basis]
    # the identity, the Weyl elements and the single exponentials
    words = [factors for factors, _ in islice(_prepared_words(cd, 0), 40)]
    assert all(type(a) is int for factors in words for f in factors
               for a in f.vector)
    built = []
    real = F.__new__
    with monkeypatch.context() as m:
        m.setattr(F, "__new__",
                  lambda cls, *a, **k: built.append(a) or real(cls, *a, **k))
        defects = [_trimmed_defect(cd, basis, factors, inverse, 0)
                   for factors in words for inverse in (False, True)]
    assert built == []
    assert defects == [0] * 80


def test_exhausted_search_builds_no_matrix(monkeypatch):
    from sphlie.catalog import get_entry
    from sphlie.problem import build_pair

    pair = build_pair(get_entry("sl2_zero").problem)
    with monkeypatch.context() as m:
        calls = count_kernel_calls(m, ("mat_invert", "exp_nilpotent_matrix"))
        assert conjugate_search(pair, budget=30) is None
    assert not calls


def test_search_ranks_each_attempt_that_leaves_p(monkeypatch):
    """conjugate_search reads the identity's defect once (one integer
    rank), then makes one integer rank per attempted word with a factor
    outside p, and no closure check; the only rref canonicalises the
    winner's h."""
    from sphlie.catalog import catalog_entries, get_entry
    from sphlie.problem import build_pair

    cd = sl3_so3_pair().cartan
    line = spherical_pair(cd, cd.algebra.span_of_matrices([elementary(3, 0, 2)]))
    runs = [(build_pair(get_entry("sl2_zero").problem), 30, 0),
            (line, 100, 0), (line, 100, 5)]
    runs += [(build_pair(e.problem), 40, 0) for e in catalog_entries()
             if e.expected.needs_conjugation]
    outcomes = set()
    for pair, budget, seed in runs:
        with monkeypatch.context() as m:
            calls = count_kernel_calls(m, ("int_rank", "rref"))
            closures = count_closure_checks(m)
            found = conjugate_search(pair, budget=budget, seed=seed)
        attempts = budget if found is None else found.attempts
        leaving = words_leaving_p(pair.cartan, attempts, seed)
        assert calls["int_rank"] == 1 + leaving
        assert calls["rref"] == (0 if found is None else 1)
        assert closures == []
        outcomes.add((found is None, leaving < attempts - 1))
    # dim p + dim h < dim g for the line in sl(3), so no attempt wins; the
    # exhausted runs meet words in P past the identity
    assert (True, True) in outcomes
    assert any(not exhausted for exhausted, _ in outcomes)
    # with no Levi adjustment, h is its own standard form
    open_pair = sl3_so3_pair()
    rep = structure_report(open_pair)
    assert rep.levi_adjustment.factors == ()
    assert rep.standard_form_h is open_pair.h


def test_matrix_is_built_only_for_the_returned_element(monkeypatch):
    g = gl(2)
    line = spherical_pair(cartan_data(g),
                          g.span_of_matrices([elementary(2, 0, 0)]))
    borel = sl2_pair([(1, 0, 0), (0, 0, 1)])
    with monkeypatch.context() as m:
        calls = count_kernel_calls(m, ("exp_nilpotent_matrix",))
        found = conjugate_search(line, budget=50)
        rep = compact_transitivity_check(borel, samples=100, seed=1)
        assert found.attempts == 3 and rep.samples_run == 2
        assert not calls
        assert found.element == ((F(1), F(0)), (F(1), F(1)))
        assert calls["exp_nilpotent_matrix"] == 1     # exp(E21)
        assert rep.witness == ((F(0), F(1)), (F(-1), F(0)))
        assert calls["exp_nilpotent_matrix"] == 4     # exp(E)exp(-F)exp(E)
        assert found.element is found.element and rep.witness is rep.witness
        assert calls["exp_nilpotent_matrix"] == 4


# -- the word path against the matrix path -------------------------------------


def matrix_stream(cd, seed):
    """The candidate stream as explicit matrix products: Weyl elements
    exp(M)exp(t theta M)exp(M), single exponentials exp(tM), then seeded
    products of 2-4 such exponentials, with the descriptions' names.  For
    the Weyl elements H = [M, theta M] satisfies [H, M] = lambda M, and
    t = -2/lambda."""
    import random

    from sphlie.linalg import (
        exp_nilpotent_matrix,
        mat_add,
        mat_apply,
        mat_mul,
        mat_scale,
    )

    def bracket(x, y):
        return mat_add(mat_mul(x, y), mat_scale(-1, mat_mul(y, x)))

    g = cd.algebra

    def fmt(root):
        return "(" + ",".join(str(x) for x in root) + ")"

    yield identity_matrix(g.matrix_size), "identity"
    for root in sorted(cd.positive_roots):
        for i, v in enumerate(cd.root_space(root).basis):
            m = g.to_matrix(v)
            tm = g.to_matrix(mat_apply(cd.theta, v))
            hm = bracket(bracket(m, tm), m)
            r, c = next((r, c) for r, row in enumerate(m)
                        for c, x in enumerate(row) if x)
            lam = F(hm[r][c]) / m[r][c]
            assert hm == mat_scale(lam, m)
            e = exp_nilpotent_matrix(m)
            te = exp_nilpotent_matrix(mat_scale(F(-2) / lam, tm))
            yield mat_mul(mat_mul(e, te), e), f"weyl[{fmt(root)}#{i}]"
    pool = [(f"g[{fmt(root)}#{i}]", g.to_matrix(v))
            for root in sorted(cd.roots)
            for i, v in enumerate(cd.root_space(root).basis)]
    ts = [F(1), F(-1), F(2), F(-2), F(3), F(-3)]
    for t in ts:
        for name, mat in pool:
            yield exp_nilpotent_matrix(mat_scale(t, mat)), f"exp({t}*{name})"
    rng = random.Random(seed)
    coeffs = [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(-3)]
    while pool:
        acc = identity_matrix(g.matrix_size)
        names = []
        for _ in range(rng.randint(2, 4)):
            name, mat = pool[rng.randrange(len(pool))]
            t = coeffs[rng.randrange(len(coeffs))]
            acc = mat_mul(acc, exp_nilpotent_matrix(mat_scale(t, mat)))
            names.append(f"exp({t}*{name})")
        yield acc, "*".join(names)


def word_test_pairs():
    """Every catalog pair, sl(4)/so(4), and sl(2)/n and sl(3)/so(3) on mixed
    bases of g, where the Weyl elements' root vectors are rescaled (t = 9;
    t = 9, 4, 9)."""
    from sphlie.catalog import catalog_entries, get_entry
    from sphlie.problem import Problem, build_pair
    from test_exact_scalars import remixed

    problems = [e.problem for e in catalog_entries()]
    problems.append(
        Problem("sl4_so4", 4, tuple(sl_basis(4)), tuple(so_basis(4))))
    problems += [remixed(get_entry("sl2_n").problem, 3),
                 remixed(get_entry("sl3_so3").problem, 0)]
    return [build_pair(p) for p in problems]


def weyl_words(cd):
    """The Weyl candidates of the stream, which come before the first
    single exponential."""
    for word, desc in group_element_candidates(cd):
        if desc.startswith("exp("):
            return
        if desc.startswith("weyl"):
            yield word, desc


def weyl_pairs():
    from sphlie.catalog import catalog_entries
    from sphlie.problem import build_pair
    from test_exact_scalars import remixed

    for entry in catalog_entries():
        for seed in (None, *range(6)):
            problem = (entry.problem if seed is None
                       else remixed(entry.problem, seed))
            yield f"{entry.name}-{seed}", build_pair(problem).cartan


def test_weyl_candidates_normalize_a_on_any_basis():
    """Ad(exp(v) exp(t theta v) exp(v)) a = a for every Weyl candidate, on
    each catalog pair in its own basis and on six mixed bases of g, where v
    is the echelon root vector at whatever scale g's basis gives it."""
    scales = set()
    for label, cd in weyl_pairs():
        for word, desc in weyl_words(cd):
            assert word.image(cd.a) == cd.a, (label, desc)
            scales.add(word.factors[1] == mat_apply(cd.theta, word.factors[0]))
    assert scales == {True, False}


def test_word_action_matches_the_matrix_stream():
    from itertools import islice

    from sphlie.linalg import mat_mul, unit_vector

    for pair in word_test_pairs():
        cd = pair.cartan
        g = cd.algebra
        units = [unit_vector(g.dim, i) for i in range(g.dim)]
        streams = zip(group_element_candidates(cd, seed=2),
                      matrix_stream(cd, seed=2))
        for (word, desc), (mat, ref_desc) in islice(streams, 40):
            assert desc == ref_desc, pair.label
            assert word.matrix == mat, (pair.label, desc)
            inv = mat_invert(mat)
            for e in units:
                moved = word.ad(e)
                conj = g.from_matrix(mat_mul(mat_mul(mat, g.to_matrix(e)), inv))
                assert moved == conj, (pair.label, desc)
                assert apply_ad(g, mat, canonical_basis([e])) == \
                    canonical_basis([moved]), (pair.label, desc)
                assert word.inverse.ad(moved) == e, (pair.label, desc)
                assert word.ad(word.inverse.ad(e)) == e, (pair.label, desc)


def test_stream_rejects_a_factor_with_non_nilpotent_matrix():
    from dataclasses import replace

    from sphlie.errors import DimensionMismatch

    cd = cartan_data(sl(2))
    # theta sends the positive root vector E to H, so [E, theta E] = -2E is
    # not in a and the Weyl scale's root_value raises
    bad = replace(cd, theta=((F(1), F(1), F(0)), (F(0),) * 3, (F(0),) * 3))
    stream = group_element_candidates(bad)
    assert next(stream)[1] == "identity"
    with pytest.raises(DimensionMismatch, match="not in a"):
        next(stream)


def test_a_doctored_theta_fails_the_weyl_word_by_a_named_error():
    """theta E = E + F, outside g_-alpha: [E, theta E] = H scales the Weyl
    factor to -(E + F), which is not nilpotent.  The stream reads p off the
    root table and yields the word; the series of its ``ad`` raises
    NotNilpotent, and its ``matrix`` DimensionMismatch."""
    from dataclasses import replace

    from sphlie.errors import DimensionMismatch, NotNilpotent

    cd = cartan_data(sl(2))
    # sl(2) coordinates are (H, E, F); column 1 is theta E
    theta = tuple(tuple(F(e) for e in row)
                  for row in ((-1, 0, 0), (0, 1, -1), (0, 1, 0)))
    stream = group_element_candidates(replace(cd, theta=theta))
    assert next(stream)[1] == "identity"
    word, desc = next(stream)
    assert desc.startswith("weyl") and word.factors[1] == (0, -1, -1)
    with pytest.raises(NotNilpotent):
        word.ad((1, 0, 0))
    with pytest.raises(DimensionMismatch, match="not nilpotent"):
        word.matrix


# -- the integer-rank open-orbit test against a dense replay -------------------


def dense_defect(cd, vectors):
    """dim g - dim(p + span vectors), by one rref of the stacked bases."""
    from sphlie.linalg import rref

    return cd.algebra.dim - len(rref(list(cd.p.basis) + list(vectors))[0])


def replayed_transitivity(pair, samples, seed):
    """compact_transitivity_check's loop, replayed with the dense
    word.inverse.ad and rref: (verdict, samples_run, witness description)."""
    from sphlie.linalg import restrict_bilinear_form, symmetric_signature

    cd = pair.cartan
    compact = symmetric_signature(restrict_bilinear_form(
        cd.algebra.killing_form(), pair.h)) == (0, pair.h.dim, 0)
    run = 0
    for word, desc in group_element_candidates(cd, seed):
        if run >= samples:
            break
        run += 1
        if dense_defect(cd, [word.inverse.ad(v) for v in pair.h.basis]):
            return ("compact-type failure" if compact
                    else "witness-of-noncompactness"), run, desc
    return ("consistent-with-compact" if compact else "inconclusive"), run, None


def replayed_search(pair, budget, seed):
    """conjugate_search's loop, replayed with the dense word.ad and rref:
    (attempts, description, conjugated h), or None."""
    cd = pair.cartan
    attempts = 0
    for word, desc in group_element_candidates(cd, seed):
        if attempts >= budget:
            break
        attempts += 1
        moved = [word.ad(v) for v in pair.h.basis]
        if dense_defect(cd, moved) == 0:
            return attempts, desc, canonical_basis(moved, cd.algebra.dim)
    return None


def replay_pairs():
    """Every catalog pair on its own basis and on three mixed bases of g,
    where p's echelon rows and h's basis carry Fractions."""
    from sphlie.catalog import catalog_entries
    from sphlie.problem import build_pair
    from test_exact_scalars import remixed

    for entry in catalog_entries():
        for seed in (None, 1, 2, 3):
            problem = (entry.problem if seed is None
                       else remixed(entry.problem, seed))
            yield f"{entry.name}-{seed}", build_pair(problem)


def test_open_orbit_tests_match_the_dense_replay():
    from sphlie.errors import SphlieError

    compared = set()
    for label, pair in replay_pairs():
        cd = pair.cartan
        defect = dense_defect(cd, pair.h.basis)
        assert is_spherical(pair) == (defect == 0, defect), label
        for seed in (0, 3):
            found = conjugate_search(pair, budget=40, seed=seed)
            want = replayed_search(pair, 40, seed)
            assert want == (None if found is None else (
                found.attempts, found.description, found.conjugated)), label
            compared.add("found" if found else "exhausted")
            try:
                rep = compact_transitivity_check(pair, samples=60, seed=seed)
            except SphlieError:
                continue   # the criterion does not apply to this pair
            assert replayed_transitivity(pair, 60, seed) == (
                rep.verdict, rep.samples_run, rep.witness_description), label
            compared.add(rep.verdict)
    assert compared == {"found", "exhausted", "consistent-with-compact",
                        "witness-of-noncompactness"}


# -- trimmed sampling against the untrimmed reference ---------------------------


def untrimmed_transitivity(pair, samples, seed):
    """compact_transitivity_check's loop with h moved by each full word's
    inverse (GroupWord.image) and h + Ad(g)p = g decided by subspace_sum:
    (verdict, samples_run, witness description)."""
    from sphlie.linalg import restrict_bilinear_form, symmetric_signature

    cd = pair.cartan
    full = cd.algebra.full_space()
    compact = symmetric_signature(restrict_bilinear_form(
        cd.algebra.killing_form(), pair.h)) == (0, pair.h.dim, 0)
    run = 0
    for word, desc in group_element_candidates(cd, seed):
        if run >= samples:
            break
        run += 1
        if subspace_sum(cd.p, word.inverse.image(pair.h)) != full:
            return ("compact-type failure" if compact
                    else "witness-of-noncompactness"), run, desc
    return ("consistent-with-compact" if compact else "inconclusive"), run, None


def untrimmed_search(pair, budget, seed):
    """conjugate_search's loop with h moved by each full word
    (GroupWord.image) and p + Ad(g)h = g decided by subspace_sum:
    (attempts, description, conjugated h), or None."""
    cd = pair.cartan
    full = cd.algebra.full_space()
    attempts = 0
    for word, desc in group_element_candidates(cd, seed):
        if attempts >= budget:
            break
        attempts += 1
        moved = word.image(pair.h)
        if subspace_sum(cd.p, moved) == full:
            return attempts, desc, moved
    return None


def test_trimmed_transitivity_matches_the_untrimmed_reference():
    from sphlie.catalog import catalog_entries
    from sphlie.errors import SphlieError
    from sphlie.problem import Problem, build_pair

    problems = [e.problem for e in catalog_entries()
                if e.expected.spherical_at_base]
    problems.append(
        Problem("sl4_so4", 4, tuple(sl_basis(4)), tuple(so_basis(4))))
    verdicts = set()
    for problem in problems:
        pair = build_pair(problem)
        for seed in range(10):
            try:
                rep = compact_transitivity_check(pair, samples=100, seed=seed)
            except SphlieError:
                continue   # the criterion does not apply to this pair
            assert untrimmed_transitivity(pair, 100, seed) == (
                rep.verdict, rep.samples_run,
                rep.witness_description), (problem.name, seed)
            verdicts.add((problem.name, rep.verdict))
    assert ("sl4_so4", "consistent-with-compact") in verdicts
    assert ("sl2_opposite_borel", "witness-of-noncompactness") in verdicts


def test_trimmed_search_matches_the_untrimmed_reference():
    from sphlie.catalog import catalog_entries
    from sphlie.problem import build_pair

    cd = sl3_so3_pair().cartan
    line = spherical_pair(cd, cd.algebra.span_of_matrices([elementary(3, 0, 2)]))
    pairs = [build_pair(e.problem) for e in catalog_entries()
             if e.expected.needs_conjugation or not e.expected.spherical]
    for pair in pairs + [line]:
        for seed in range(10):
            found = conjugate_search(pair, budget=60, seed=seed)
            assert untrimmed_search(pair, 60, seed) == (None if found is None else (
                found.attempts, found.description, found.conjugated)), (
                    pair.label, seed)


@pytest.mark.parametrize("call", [
    lambda pair: compact_transitivity_check(pair, samples=-4),
    lambda pair: conjugate_search(pair, budget=-3),
])
def test_negative_counts_raise_a_named_error(call):
    from sphlie.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch, match="at least 0"):
        call(sl3_so3_pair())


def stream_test_cartans():
    """Every catalog and ladder pair, sl(3)/so(3) on a mixed basis of g, and
    sl(3) under the given Cartan involution X -> -D X^T D^-1, D =
    diag(1, 2, 3), which rescales theta on every root vector."""
    from sphlie.catalog import catalog_entries, get_entry
    from sphlie.problem import build_pair
    from test_enumeration import ladder_problems
    from test_exact_scalars import remixed

    problems = [e.problem for e in catalog_entries()] + ladder_problems()
    problems.append(remixed(get_entry("sl3_so3").problem, 0))
    g, d = sl(3), (1, 2, 3)
    theta = tuple(zip(*[g.from_matrix([[-F(d[i] * b[j][i], d[j])
                                         for j in range(3)] for i in range(3)])
                        for b in g.basis]))
    return ([build_pair(p).cartan for p in problems]
            + [cartan_data(g, theta=theta)])


def is_nilpotent_matrix(m):
    """Whether m^n = 0 for the n x n matrix m, by n - 1 products."""
    from sphlie.linalg import mat_mul

    power = m
    for _ in range(len(m) - 1):
        power = mat_mul(power, m)
    return not any(any(row) for row in power)


def test_each_stream_factor_is_prepared_once_with_its_root_sign(monkeypatch):
    """The stream scales each (pool vector, t) factor for the series once,
    and reads p-membership and nilpotency off the root table.  Replayed
    densely on the first 400 words: each factor's ``in_p`` agrees with
    cd.p.contains and with the sign of its root, and its matrix is
    nilpotent."""
    from itertools import islice

    import sphlie.spherical as spherical

    scanned = []
    real = spherical._exponent
    monkeypatch.setattr(spherical, "_exponent",
                        lambda g, x: scanned.append(x) or real(g, x))
    for cd in stream_test_cartans():
        g = cd.algebra
        scanned.clear()
        words = list(islice(spherical._prepared_words(cd, 1), 400))
        weyl = sum(cd.root_space(r).dim for r in cd.positive_roots)
        pool = sum(cd.root_space(r).dim for r in cd.roots)
        # two per Weyl word, then one per distinct (pool vector, t)
        assert len(scanned) <= 2 * weyl + 8 * pool, g.name
        assert len(scanned[2 * weyl:]) == len(set(scanned[2 * weyl:]))
        factors = {id(f): (f, desc) for fs, desc in words for f in fs}
        for f, desc in factors.values():
            root = next(r for r in cd.roots
                        if cd.root_space(r).contains(f.vector))
            assert f.in_p == cd.p.contains(f.vector) == (
                root in cd.positive_roots), (g.name, desc)
            assert is_nilpotent_matrix(g.to_matrix(f.vector)), (g.name, desc)
            assert f.exponent == real(g, f.vector)


# the series and rank calls of spherical.py, and the functions that may
# make them: the trimming helper for sampled words and is_spherical for h
# itself
TRIM_ALLOWED = {"_trimmed_defect": {"_exp_ad_scaled", "_open_defect"},
                "is_spherical": {"_open_defect"}}
SERIES_AND_RANK = {"_exp_ad_scaled", "_ad_scaled", "_open_defect"}


def untrimmed_moves(tree):
    """(function, line) of every call of ``_exp_ad_scaled``,
    ``<...>._ad_scaled`` or ``_open_defect`` that TRIM_ALLOWED does not
    allow the innermost enclosing function to make."""
    import ast

    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "attr", getattr(f, "id", None))
            if name in SERIES_AND_RANK and name not in TRIM_ALLOWED.get(fn, ()):
                found.append((fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


def test_only_the_trimming_helper_moves_a_sampled_word():
    import ast
    from pathlib import Path

    import sphlie.spherical as spherical

    tree = ast.parse(Path(spherical.__file__).read_text("utf-8"))
    assert untrimmed_moves(tree) == []


def test_the_trimming_lint_sees_an_untrimmed_loop():
    import ast

    # the sampling loops as they were before trimming
    tree = ast.parse(
        "def conjugate_search(pair, budget, seed=0):\n"
        "    for word, desc in group_element_candidates(cd, seed):\n"
        "        moved = [word._ad_scaled(v)[0] for v in basis]\n"
        "        if _open_defect(cd, moved) == 0:\n"
        "            return word\n"
        "def compact_transitivity_check(pair, samples=100, seed=0):\n"
        "    v = _exp_ad_scaled(g, word.inverse._exponents, basis[0])\n"
        "    def is_spherical(pair):\n"
        "        return _open_defect(cd, [v])\n")
    assert untrimmed_moves(tree) == [
        ("conjugate_search", 3), ("conjugate_search", 4),
        ("compact_transitivity_check", 7)]
    tree = ast.parse("def _trimmed_defect(cd, basis, factors, inverse, known):\n"
                     "    return _open_defect(cd, [_exp_ad_scaled(g, e, v)[0]"
                     " for v in basis])\n")
    assert untrimmed_moves(tree) == []


def dict_writes(tree):
    """Lines of every assignment to ``<expr>.__dict__[...]``, tuple targets
    and augmented assignments included."""
    import ast

    def targets(node):
        if isinstance(node, ast.Assign):
            return node.targets
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        return []

    def flat(t):
        if isinstance(t, (ast.Tuple, ast.List)):
            return [x for e in t.elts for x in flat(e)]
        return [t]

    return [node.lineno for node in ast.walk(tree)
            for t in targets(node) for x in flat(t)
            if isinstance(x, ast.Subscript)
            and isinstance(x.value, ast.Attribute)
            and x.value.attr == "__dict__"]


def test_no_module_writes_into_an_instance_dict():
    """A cached property is computed by its own getter, never seeded by a
    write into a (frozen) instance's ``__dict__``."""
    import ast
    from pathlib import Path

    import sphlie

    src = Path(sphlie.__file__).resolve().parent
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := dict_writes(ast.parse(path.read_text("utf-8"))))}
    assert found == {}, f"__dict__ writes: {found}"


def test_the_dict_write_lint_sees_a_seeded_cache():
    import ast

    # _word as it was when it seeded the word's series exponents
    tree = ast.parse(
        "def _word(g, factors):\n"
        "    word = GroupWord(g, tuple(f.vector for f in factors))\n"
        "    word.__dict__[\"_exponents\"] = tuple(\n"
        "        f.exponent for f in reversed(factors))\n"
        "    return word\n"
        "def f(a, b):\n"
        "    a.__dict__['x'], b.y = 1, 2\n"
        "    a.b.__dict__['z'] += 1\n"
        "    return a.__dict__['x'], dict(vars(b))\n")
    assert dict_writes(tree) == [3, 7, 8]
