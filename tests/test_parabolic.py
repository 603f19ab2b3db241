"""Standard parabolics, Levi fine structure, characteristic elements.

Expected subspaces are written down directly as spans of explicit matrices
(block shapes), independent of the code that computes them.
"""

from fractions import Fraction as F

import pytest

from sphlie.builders import (
    block_embed,
    elementary,
    gl_basis,
    direct_sum_basis,
    regular_diagonal_positivity,
    sl,
    sl_basis,
    so_basis,
)
from sphlie.errors import DimensionMismatch
from sphlie.liealg import LieAlgebra, cartan_data, centralizer_in
from sphlie.linalg import (
    canonical_basis,
    subspace_intersect,
    subspace_sum,
    vec_scale,
)
from sphlie.parabolic import (
    characteristic_element,
    containment_check,
    levi_fine_structure,
    normalize_subset,
    standard_parabolic,
)


def sl3_data():
    g = sl(3)
    reg = g.from_matrix(regular_diagonal_positivity(3))
    h1 = g.from_matrix(sl_basis(3)[0])
    return g, cartan_data(g, positivity_basis=[reg, h1])


def test_sl2_parabolics():
    cd = cartan_data(sl(2))
    borel = standard_parabolic(cd, [])
    assert borel.levi == canonical_basis([(1, 0, 0)], 3)          # span H
    assert borel.nilradical == canonical_basis([(0, 1, 0)], 3)    # span E
    assert borel.q == canonical_basis([(1, 0, 0), (0, 1, 0)], 3)
    full = standard_parabolic(cd, [0])
    assert full.levi == cd.algebra.full_space()
    assert full.nilradical.dim == 0
    assert full.subset == ((F(2),),)
    assert full.subset_indices == (0,)


def test_sl3_single_root_parabolic_is_block_upper_triangular():
    g, cd = sl3_data()
    # the simple root with value tuple (2, -1) on (H1, H2) pairs E12 with E21
    pd = standard_parabolic(cd, [(2, -1)])
    expected_levi = g.span_of_matrices(
        [sl_basis(3)[0], sl_basis(3)[1], elementary(3, 0, 1), elementary(3, 1, 0)])
    expected_nil = g.span_of_matrices(
        [elementary(3, 0, 2), elementary(3, 1, 2)])
    assert pd.levi == expected_levi
    assert pd.nilradical == expected_nil
    assert pd.q == subspace_sum(expected_levi, expected_nil)
    assert pd.q.dim == 6
    # same subset given by index
    idx = cd.simple_roots.index((F(2), F(-1)))
    assert standard_parabolic(cd, [idx]).q == pd.q


@pytest.mark.parametrize("subset", [[], [0], [1], [0, 1]])
def test_sl3_parabolic_algebraic_properties(subset):
    g, cd = sl3_data()
    pd = standard_parabolic(cd, subset)
    assert g.is_subalgebra(pd.q)
    assert g.is_subalgebra(pd.levi)
    assert g.is_subalgebra(pd.nilradical)
    assert subspace_intersect(pd.levi, pd.nilradical).dim == 0
    assert subspace_sum(pd.levi, pd.nilradical) == pd.q
    # the nilradical is an ideal of q
    for u in pd.q.basis:
        for v in pd.nilradical.basis:
            assert pd.nilradical.contains(g.bracket(u, v))


def test_sl3_parabolic_lattice_matches_subset_lattice():
    g, cd = sl3_data()
    subsets = [frozenset(), frozenset([0]), frozenset([1]), frozenset([0, 1])]
    pds = {fs: standard_parabolic(cd, sorted(fs)) for fs in subsets}
    for fa in subsets:
        for fb in subsets:
            contained = pds[fa].q.is_contained_in(pds[fb].q)
            assert contained == (fa <= fb)
            # levi-vs-nilradical criterion agrees with containment
            assert containment_check(pds[fa], pds[fb]) == (fa <= fb)


def test_normalize_subset_rejects_bad_input():
    _, cd = sl3_data()
    with pytest.raises(DimensionMismatch):
        normalize_subset(cd, [5])
    with pytest.raises(DimensionMismatch):
        normalize_subset(cd, [(1, 1)])  # a root, but not simple
    # duplicates collapse
    assert normalize_subset(cd, [0, 0, 1]) == tuple(sorted(cd.simple_roots))


def test_characteristic_element_sl2():
    cd = cartan_data(sl(2))
    x = characteristic_element(cd, [])
    assert x == (F(-1, 2), F(0), F(0))
    assert characteristic_element(cd, [0]) == (F(0), F(0), F(0))


def test_characteristic_element_sl3():
    g, cd = sl3_data()
    # F = empty: values -1 on both simple roots -> diag(-1, 0, 1)
    x = characteristic_element(cd, [])
    assert g.to_matrix(x) == ((F(-1), F(0), F(0)),
                              (F(0), F(0), F(0)),
                              (F(0), F(0), F(1)))
    # F = {(2,-1)}: value 0 there, -1 on the other -> diag(-1/3, -1/3, 2/3)
    y = characteristic_element(cd, [(2, -1)])
    assert g.to_matrix(y) == ((F(-1, 3), F(0), F(0)),
                              (F(0), F(-1, 3), F(0)),
                              (F(0), F(0), F(2, 3)))


def test_characteristic_element_centralizer_is_levi():
    g, cd = sl3_data()
    for subset in ([], [0], [1], [0, 1]):
        pd = standard_parabolic(cd, subset)
        x = characteristic_element(cd, subset)
        zx = centralizer_in(g, canonical_basis([x], g.dim))
        assert zx == pd.levi
        # ad(x) acts with strictly negative eigenvalues on the nilradical:
        # here every root space is one-dimensional, so check eigenvectors
        for root in cd.roots:
            if cd.is_positive(root) and not cd.root_space(root).is_contained_in(pd.levi):
                lam = cd.root_value(root, x)
                assert lam < 0
                v = cd.root_space(root).basis[0]
                assert g.bracket(x, v) == vec_scale(lam, v)


def test_levi_fine_structure_sl3_gl2_block():
    g, cd = sl3_data()
    pd = standard_parabolic(cd, [(2, -1)])
    fs = levi_fine_structure(pd)
    # center of the block levi: diag(t, t, -2t)
    assert fs.center == g.span_of_matrices(
        [((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(-2)))])
    assert fs.z_np == fs.center
    assert fs.z_cp.dim == 0
    assert fs.compact_ideals.dim == 0
    assert fs.noncompact_ideals == g.span_of_matrices(
        [sl_basis(3)[0], elementary(3, 0, 1), elementary(3, 1, 0)])
    assert fs.reductive_complement == fs.center


def test_levi_fine_structure_extremes():
    g, cd = sl3_data()
    # minimal parabolic: levi = a, all center, all noncompact-center
    fs0 = levi_fine_structure(standard_parabolic(cd, []))
    assert fs0.center == cd.a and fs0.z_np == cd.a
    assert fs0.z_cp.dim == 0
    assert fs0.compact_ideals.dim == 0 and fs0.noncompact_ideals.dim == 0
    # full parabolic: levi = g, no center, one noncompact ideal
    fsg = levi_fine_structure(standard_parabolic(cd, [0, 1]))
    assert fsg.center.dim == 0
    assert fsg.noncompact_ideals == g.full_space()
    assert fsg.compact_ideals.dim == 0


def test_levi_with_compact_ideal():
    basis = direct_sum_basis([sl_basis(2), so_basis(3)])
    g = LieAlgebra(basis, name="sl2+so3")
    cd = cartan_data(g)
    pd = standard_parabolic(cd, [])
    fs = levi_fine_structure(pd)
    assert fs.z_np == cd.a and fs.z_cp.dim == 0
    assert fs.compact_ideals == g.span_of_matrices(
        [block_embed(m, 5, 2) for m in so_basis(3)])
    assert fs.noncompact_ideals.dim == 0
    # the compact factor together with the center is the reductive complement
    assert fs.reductive_complement.dim == 4


def test_levi_with_compact_center_part():
    basis = direct_sum_basis([gl_basis(2), so_basis(2)])
    g = LieAlgebra(basis, name="gl2+so2")
    cd = cartan_data(g)
    fs = levi_fine_structure(standard_parabolic(cd, []))
    assert fs.z_np == cd.a
    assert fs.z_cp == g.span_of_matrices([block_embed(so_basis(2)[0], 4, 2)])
    assert fs.z_cp.dim == 1
    assert fs.compact_ideals.dim == 0 and fs.noncompact_ideals.dim == 0
