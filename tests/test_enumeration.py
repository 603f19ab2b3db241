"""Candidate enumeration for the adapted parabolic against a brute force.

The brute force runs on all 2^r subsets F of the simple roots.  It decides
"root in span(F)" by a rank comparison, builds u_F from the positive root
spaces outside span(F), checks that ``standard_parabolic`` builds the same
Levi and nilradical, and applies the full complement test u_F ⊕ (n ∩ h) = n.
It uses neither root supports nor the dimension filter.
"""

from itertools import combinations

import pytest

import sphlie.spherical as spherical
from sphlie.builders import block_embed, sl, sl_basis, so_basis
from sphlie.catalog import catalog_entries
from sphlie.liealg import cartan_data
from sphlie.linalg import (
    canonical_basis,
    lin_comb,
    subspace_intersect,
    subspace_sum,
)
from sphlie.parabolic import standard_parabolic
from sphlie.problem import Problem, build_pair
from sphlie.spherical import (
    candidate_subsets,
    conjugate_search,
    is_spherical,
    spherical_pair,
)


def _in_span(root, roots):
    if not roots:
        return False
    return canonical_basis(list(roots) + [root]).dim == len(roots)


def reference_nilradicals(cd):
    """{F: u_F} over all subsets F, from rank tests on the roots."""
    d = cd.algebra.dim
    r = len(cd.simple_roots)
    out = {}
    for size in range(r + 1):
        for f in combinations(range(r), size):
            span_f = [cd.simple_roots[i] for i in f]
            levi = list(cd.zero_space.basis)
            nil = []
            for root in cd.roots:
                if _in_span(root, span_f):
                    levi.extend(cd.root_space(root).basis)
                elif root in cd.positive_roots:
                    nil.extend(cd.root_space(root).basis)
            pd = standard_parabolic(cd, f)
            assert pd.levi == canonical_basis(levi, d), f
            assert pd.nilradical == canonical_basis(nil, d), f
            out[f] = pd.nilradical
    return out


def brute_force(pair):
    cd = pair.cartan
    nh = subspace_intersect(cd.n, pair.h)
    return [f for f, u in reference_nilradicals(cd).items()
            if subspace_intersect(u, nh).dim == 0
            and subspace_sum(u, nh) == cd.n]


def dimension_filter(pair):
    """The subsets whose nilradical has the dimension of a complement of
    n ∩ h in n."""
    cd = pair.cartan
    nh = subspace_intersect(cd.n, pair.h)
    return [f for f, u in reference_nilradicals(cd).items()
            if u.dim + nh.dim == cd.n.dim]


def counting_standard_parabolic(monkeypatch):
    called = []

    def counted(cd, f):
        pd = standard_parabolic(cd, f)
        called.append(pd.subset_indices)
        return pd

    monkeypatch.setattr(spherical, "standard_parabolic", counted)
    return called


# -- pairs ------------------------------------------------------------------


def catalog_pairs():
    out = []
    for entry in sorted(catalog_entries(), key=lambda e: e.name):
        if not entry.expected.spherical:
            continue
        pair = build_pair(entry.problem)
        if not is_spherical(pair)[0]:
            found = conjugate_search(pair, entry.search_budget)
            pair = spherical_pair(pair.cartan, found.conjugated)
        out.append((entry.name, pair, entry.expected.adapted_subset))
    return out


_J = ((0, 1), (-1, 0))


def sl_so(n):
    return Problem(f"sl{n}_so{n}", n, tuple(sl_basis(n)), tuple(so_basis(n)))


def hinted_sl2_so2(k):
    """so(2)^k in sl(2)^k, block diagonal, with the hint's signs
    alternating."""
    size = 2 * k
    sl2s = [block_embed(m, size, off) for off in range(0, size, 2)
            for m in sl_basis(2)]
    so2s = [block_embed(_J, size, off) for off in range(0, size, 2)]
    return Problem(f"sl2x{k}_so2x{k}_hinted", size, tuple(sl2s), tuple(so2s),
                   minimal_parabolic_hint=tuple((-1) ** i for i in range(k)))


def ladder_problems():
    return [sl_so(4), sl_so(5), hinted_sl2_so2(6)]


def ladder_pairs():
    return [build_pair(p) for p in ladder_problems()]


@pytest.fixture(scope="module")
def ladder():
    return ladder_pairs()


# -- tests ------------------------------------------------------------------


def test_simple_coordinates_rebuild_every_positive_root():
    for n in (3, 4):
        cd = cartan_data(sl(n))
        dim_a = cd.a.dim
        assert len(cd.simple_coordinates) == len(cd.positive_roots)
        for root, coords in zip(cd.positive_roots, cd.simple_coordinates):
            assert all(c >= 0 for c in coords)
            assert lin_comb(coords, cd.simple_roots, dim_a) == root
            neg = tuple(-x for x in root)
            assert cd.support(root) == cd.support(neg) == frozenset(
                i for i, c in enumerate(coords) if c)


def test_catalog_candidates_match_brute_force():
    pairs = catalog_pairs()
    assert {exp for _, _, exp in pairs} >= {(), (0,), (1,)}
    for name, pair, expected in pairs:
        assert candidate_subsets(pair) == brute_force(pair) == [expected], name


def test_ladder_candidates_match_brute_force(ladder):
    for pair in ladder:
        assert candidate_subsets(pair) == brute_force(pair) == [()], \
            pair.label


@pytest.mark.parametrize("problem", [sl_so(n) for n in range(2, 8)]
                         + [hinted_sl2_so2(k) for k in range(2, 7)],
                         ids=lambda p: p.name)
def test_split_ladders_match_brute_force(problem):
    pair = build_pair(problem)
    assert candidate_subsets(pair) == brute_force(pair) == [()], pair.label


def test_several_passing_subsets_come_in_combinations_order():
    # h spanned by the sum of the simple root vectors of sl(4): each
    # {alpha_i} has a nilradical that misses it, so all three pass; the
    # walk finds them last index first
    cd = cartan_data(sl(4))
    tops = [cd.root_space(r).basis[0] for r in cd.simple_roots]
    pair = spherical_pair(cd, canonical_basis([lin_comb((1, 1, 1), tops,
                                                        cd.algebra.dim)]))
    assert candidate_subsets(pair) == brute_force(pair) == [(0,), (1,), (2,)]


@pytest.mark.parametrize("n", [3, 4])
def test_sl_n_with_h_equal_to_n(n):
    cd = cartan_data(sl(n))
    pair = spherical_pair(cd, cd.n)
    everything = tuple(range(len(cd.simple_roots)))
    assert candidate_subsets(pair) == brute_force(pair) == [everything]


@pytest.mark.parametrize("n", [3, 4])
def test_sl_n_with_h_a_single_positive_root_space(n):
    cd = cartan_data(sl(n))
    for root in cd.positive_roots:
        pair = spherical_pair(cd, cd.root_space(root))
        assert candidate_subsets(pair) == brute_force(pair), root


def test_sl3_exact_test_rejects_a_subset_the_filter_passes(monkeypatch):
    cd = cartan_data(sl(3))
    assert len(cd.simple_roots) == 2
    for i in (0, 1):
        pair = spherical_pair(cd, cd.root_space(cd.simple_roots[i]))
        called = counting_standard_parabolic(monkeypatch)
        assert candidate_subsets(pair) == [(i,)]
        # {alpha_j}, j != i, has a nilradical of the right dimension but it
        # contains g_{alpha_i} = h, so only the exact test rules it out
        assert called == dimension_filter(pair) == [(0,), (1,)]


def test_standard_parabolic_runs_only_on_subsets_passing_the_filter(
        monkeypatch, ladder):
    pair = ladder[2]
    assert len(pair.cartan.simple_roots) == 6
    called = counting_standard_parabolic(monkeypatch)
    assert candidate_subsets(pair) == [()]
    assert called == dimension_filter(pair) == [()]


def test_the_subset_walk_hashes_no_fraction(monkeypatch, ladder):
    """candidate_subsets and standard_parabolic read the roots by position,
    so on the hinted sl(2)^6 pair they hash no Fraction, whether F is given
    by indices or by roots."""
    from fractions import Fraction

    real, hashes = Fraction.__hash__, []
    monkeypatch.setattr(Fraction, "__hash__",
                        lambda self: hashes.append(self) or real(self))
    hash((Fraction(1, 3),))
    assert len(hashes) == 1  # the counter sees a hash inside a tuple
    hashes.clear()
    cd = ladder[2].cartan
    assert candidate_subsets(ladder[2]) == [()]
    standard_parabolic(cd, range(6))
    standard_parabolic(cd, [0, cd.simple_roots[3]])
    assert hashes == []


def test_levi_adjustment_inverse_on_catalog_and_ladder(ladder):
    from sphlie.linalg import (
        exp_nilpotent_matrix,
        identity_matrix,
        mat_apply,
        mat_mul,
        unit_vector,
    )
    from sphlie.spherical import adapted_parabolic

    pairs = [pair for _, pair, _ in catalog_pairs()] + list(ladder)
    for pair in pairs:
        g = pair.cartan.algebra
        pd = adapted_parabolic(pair)
        word = spherical._levi_adjustment(
            pair.cartan, pd, subspace_intersect(pd.q, pair.h))
        phi = identity_matrix(g.dim)
        for w in word.factors:
            phi = mat_mul(phi, exp_nilpotent_matrix(g.ad(w)))
        for j in range(g.dim):
            e_j = unit_vector(g.dim, j)
            assert word.ad(e_j) == mat_apply(phi, e_j), pair.label
            assert word.inverse.ad(word.ad(e_j)) == e_j, pair.label
