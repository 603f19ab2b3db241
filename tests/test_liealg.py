import ast
import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mixed_levi
from matrix_helpers import (
    commutator,
    dense_structure,
    mat_invert,
    sl2_E,
    sl2_F,
    sl2_H,
)
from sphlie.builders import (
    add,
    block_embed,
    direct_sum_basis,
    elementary,
    gl,
    gl_basis,
    regular_diagonal_positivity,
    scale,
    sl,
    sl_basis,
    so,
    so_basis,
)
from sphlie.catalog import catalog_entries
from sphlie.errors import (
    CertificationError,
    DimensionMismatch,
    NotCartanInvolution,
    NotClosed,
    NotReductive,
    SpectrumError,
)
from sphlie.liealg import (
    LieAlgebra,
    _certify_cartan,
    _root_decomposition,
    cartan_data,
    cartan_decompose,
    centralizer_in,
    default_involution,
    maximal_abelian,
    simple_ideal_split,
)
from sphlie.linalg import (
    SpanSolver,
    as_vector,
    canonical_basis,
    is_zero_vector,
    kernel,
    mat_apply,
    membership,
    solve_linear,
    subspace_intersect,
    subspace_sum,
    symmetric_signature,
    unit_vector,
)
from test_enumeration import ladder_problems
from test_exact_scalars import mixed as mixed_q, remixed

F = Fraction


# -- independent oracle: Killing form of sl2 from hand-written ad matrices --
# basis order (H, E, F); brackets [H,E]=2E, [H,F]=-2F, [E,F]=H written out
# directly, no library calls.

AD_H = ((0, 0, 0), (0, 2, 0), (0, 0, -2))
AD_E = ((0, 0, 1), (-2, 0, 0), (0, 0, 0))
AD_F = ((0, -1, 0), (0, 0, 0), (2, 0, 0))


def trace_of_product(a, b):
    n = len(a)
    return sum(a[i][j] * b[j][i] for i in range(n) for j in range(n))


def test_sl2_killing_matches_ad_trace_oracle():
    g = sl(2)
    b = g.killing_form()
    # oracle values
    assert trace_of_product(AD_H, AD_H) == 8
    assert trace_of_product(AD_E, AD_F) == 4
    assert trace_of_product(AD_E, AD_E) == 0
    # library values in the same basis order (H, E, F)
    assert b[0][0] == F(8)
    assert b[1][2] == F(4)
    assert b[1][1] == F(0)
    # full cross-check of the 3x3 Gram matrix against the oracle
    ads = [AD_H, AD_E, AD_F]
    for i in range(3):
        for j in range(3):
            assert b[i][j] == trace_of_product(ads[i], ads[j])


def test_structure_constants_sl2():
    g = sl(2)
    h, e, f = (unit_vector(3, i) for i in range(3))
    assert g.bracket(h, e) == as_vector((0, 2, 0))
    assert g.bracket(h, f) == as_vector((0, 0, -2))
    assert g.bracket(e, f) == as_vector((1, 0, 0))


def test_jacobi_and_antisymmetry_on_basis_triples():
    for g in (sl(2), so(3), gl(2), sl(3)):
        d = g.dim
        basis = [unit_vector(d, i) for i in range(d)]
        for x in basis:
            for y in basis:
                assert g.bracket(x, y) == tuple(-c for c in g.bracket(y, x))
                for z in basis:
                    lhs = g.bracket(x, g.bracket(y, z))
                    mid = g.bracket(y, g.bracket(z, x))
                    rhs = g.bracket(z, g.bracket(x, y))
                    assert is_zero_vector(as_vector(
                        [a + b + c for a, b, c in zip(lhs, mid, rhs)]))


def test_killing_form_ad_invariance():
    g = sl(3)
    b = g.killing_form()
    d = g.dim

    def bv(u, v):
        return sum(u[i] * b[i][j] * v[j] for i in range(d) for j in range(d))

    basis = [unit_vector(d, i) for i in range(d)]
    for x in basis[:4]:
        for y in basis:
            for z in basis:
                assert bv(g.bracket(x, y), z) + bv(y, g.bracket(x, z)) == 0


def reference_structure(basis):
    """[e_i, e_j] for every ordered pair: the matrix commutator, written out,
    solved in the flattened basis and checked by rebuilding it."""
    n = len(basis[0])
    flat = [[F(e) for row in b for e in row] for b in basis]
    cols = [[v[k] for v in flat] for k in range(n * n)]
    out = []
    for x in basis:
        row = []
        for y in basis:
            br = [sum(F(x[r][k]) * y[k][c] - F(y[r][k]) * x[k][c]
                      for k in range(n)) for r in range(n) for c in range(n)]
            coords = solve_linear(cols, br)
            assert coords is not None
            assert [sum(c * v[k] for c, v in zip(coords, flat))
                    for k in range(n * n)] == br
            row.append(tuple(coords))
        out.append(tuple(row))
    return tuple(out)


def rational_mixing(basis, seed):
    """A seeded invertible rational change of basis: row i of a random
    matrix with entries like 2/3 and -5/2, certified invertible by its
    rank, combines the matrices of ``basis``."""
    rng = random.Random(seed)
    d, n = len(basis), len(basis[0])
    while True:
        mix = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
               for _ in range(d)]
        if canonical_basis(mix, d).dim == d:
            break
    return [tuple(tuple(sum((c * F(b[r][col]) for c, b in zip(row, basis)),
                            F(0)) for col in range(n)) for r in range(n))
            for row in mix]


def test_structure_table_matches_every_matrix_commutator():
    bases = [sl_basis(n) for n in (2, 3, 4)]
    bases += [so_basis(n) for n in (2, 3, 4)]
    bases += [gl_basis(n) for n in (1, 2, 3, 4)]
    bases += [e.problem.basis for e in catalog_entries()]
    # non-unit rational entries, so no product or coefficient is +-1 by luck
    bases += [rational_mixing(basis, seed) for seed, basis in enumerate(
        (sl_basis(3), gl_basis(2), so3_plus_centre().basis))]
    for basis in bases:
        g, ref = LieAlgebra(basis), reference_structure(basis)
        assert dense_structure(g) == ref
        d = g.dim
        # dense references, from the reference table alone
        assert g.killing_form() == tuple(
            tuple(sum((ref[i][l][k] * ref[j][k][l]
                       for k in range(d) for l in range(d)), F(0))
                  for j in range(d)) for i in range(d))
        assert g.center() == kernel(
            [[ref[i][j][k] for i in range(d)]
             for j in range(d) for k in range(d)], d)
        assert g.derived_algebra() == canonical_basis(
            [ref[i][j] for i in range(d) for j in range(d)], d)


def test_bracket_and_ad_reject_wrong_lengths():
    g = sl(2)
    e = (F(0), F(1), F(0))
    for x, y in ((e, (0, 0, 0, 1)), ((0, 0, 0, 1), e), (e, (0, 1)),
                 ((0, 1), e)):
        with pytest.raises(DimensionMismatch):
            g.bracket(x, y)
    for x in ((0, 1, 0, 1), (0, 1)):
        with pytest.raises(DimensionMismatch):
            g.ad(x)


def test_dependent_basis_rejected():
    with pytest.raises(DimensionMismatch):
        LieAlgebra([sl2_H(), sl2_H()])


def test_not_closed_reports_pair():
    with pytest.raises(NotClosed) as exc:
        LieAlgebra([sl2_H(), add(sl2_E(), sl2_F())])
    assert "0 and 1" in str(exc.value)


def test_so3_killing_negative_definite():
    g = so(3)
    assert symmetric_signature(g.killing_form()) == (0, 3, 0)


def test_invariant_form_gl2():
    g = gl(2)
    kappa = g.invariant_form()
    # the identity matrix spans the center; kappa(I, I) = tr(I^2) = 2
    iden = g.from_matrix(add(elementary(2, 0, 0), elementary(2, 1, 1)))
    val = sum(iden[i] * kappa[i][j] * iden[j]
              for i in range(4) for j in range(4))
    assert val == F(2)
    # nondegenerate on all of gl2
    assert symmetric_signature(kappa)[2] == 0


def test_invariant_form_requires_reductive():
    # 2-dim solvable: span(H, E) is closed but not reductive
    g = LieAlgebra([sl2_H(), sl2_E()])
    with pytest.raises(NotReductive):
        g.invariant_form()


def test_cartan_decompose_sl2():
    g = sl(2)
    theta, k, s = cartan_decompose(g)
    assert k == canonical_basis([(0, 1, -1)], 3)
    assert s == canonical_basis([(1, 0, 0), (0, 1, 1)], 3)
    # theta holds E <-> -F
    assert mat_apply(theta, unit_vector(3, 1)) == as_vector((0, 0, -1))


def test_involution_check_names_the_first_failing_pair():
    """Diagonal sign matrices are involutive; those that are not
    automorphisms must be rejected naming the first failing basis pair in
    row-major order over all d^2 ordered pairs, checked here densely."""
    seen_adjacent = False
    for g in (sl(2), sl(3), gl(2)):
        d, structure = g.dim, dense_structure(g)
        for mask in range(1, 2 ** d):
            signs = [F(-1) if mask >> i & 1 else F(1) for i in range(d)]
            theta = tuple(tuple(signs[i] if i == j else F(0)
                                for j in range(d)) for i in range(d))
            bad = [(i, j) for i in range(d) for j in range(d)
                   if any(signs[k] * c != signs[i] * signs[j] * c
                          for k, c in enumerate(structure[i][j]))]
            if not bad:
                cartan_decompose(g, theta)
                continue
            seen_adjacent |= bad[0][1] == bad[0][0] + 1
            with pytest.raises(NotCartanInvolution) as exc:
                cartan_decompose(g, theta)
            assert str(exc.value) == ("theta is not an automorphism (fails "
                                      f"on basis pair {bad[0][0]},{bad[0][1]})")
    assert seen_adjacent


INVOLUTION_BASES = [sl_basis(2), sl_basis(3), so_basis(4), gl_basis(2),
                    *(e.problem.basis for e in catalog_entries()),
                    *(p.basis for p in ladder_problems())]


def test_default_involution_is_the_dense_solve_of_minus_b_transpose():
    from sphlie.linalg import mat_scale, mat_transpose

    for basis in INVOLUTION_BASES:
        g = LieAlgebra(basis)
        cols = [g.from_matrix(mat_scale(-1, mat_transpose(b)))
                for b in g.basis]
        assert default_involution(g) == tuple(zip(*cols))


def test_k_and_s_are_the_kernels_of_theta_minus_and_plus_one():
    """k = im(1 + theta) and s = im(1 - theta) as cartan_decompose reads
    them, against the kernels of theta -+ 1, for the default theta and for
    a given one: Ad(diag(1, -1)) on sl(2), and -X^T given as a matrix."""
    from sphlie.linalg import mat_add, mat_scale, identity_matrix

    given = [(sl(2), ((1, 0, 0), (0, -1, 0), (0, 0, -1)))]
    for basis in INVOLUTION_BASES:
        g = LieAlgebra(basis)
        given.append((LieAlgebra(basis), default_involution(g)))
        given.append((g, None))
    for g, theta in given:
        th, k, s = cartan_decompose(g, theta)
        one = identity_matrix(g.dim)
        assert k == kernel(mat_add(th, mat_scale(-1, one)), g.dim)
        assert s == kernel(mat_add(th, one), g.dim)


def test_default_involution_needs_transpose_closure():
    g = LieAlgebra([sl2_H(), sl2_E()])  # upper triangular, not theta-stable
    with pytest.raises(NotClosed):
        default_involution(g)


def test_maximal_abelian_sl2_default_and_seeded():
    g = sl(2)
    _, _, s = cartan_decompose(g)
    a = maximal_abelian(g, s)
    assert a == canonical_basis([(1, 0, 0)], 3)
    seed = canonical_basis([(0, 1, 1)], 3)  # span(E + F)
    a2 = maximal_abelian(g, s, seed=seed)
    assert a2 == seed
    # certificate: z_s(a) = a
    assert centralizer_in(g, a2, within=s) == a2


SEEDED_TORUS_ALGEBRAS = (
    [(e.name, e.problem.basis) for e in catalog_entries()]
    + [(f"sl{n}", sl_basis(n)) for n in (4, 5, 6)])


@pytest.mark.parametrize("basis", [b for _, b in SEEDED_TORUS_ALGEBRAS],
                         ids=[name for name, _ in SEEDED_TORUS_ALGEBRAS])
def test_default_torus_seed_is_maximal(basis, monkeypatch):
    """cartan_data seeds a with (diagonal matrices) ∩ s, which is already
    maximal here, so the termination certificate z_s(a) = a is the only
    centralizer_in call."""
    import sphlie.liealg as liealg

    calls = []
    real = liealg.centralizer_in
    monkeypatch.setattr(liealg, "centralizer_in",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    g = LieAlgebra(basis)
    cd = cartan_data(g)
    assert len(calls) == 1
    n = g.matrix_size
    assert all(m[r][c] == 0 for m in map(g.to_matrix, cd.a.basis)
               for r in range(n) for c in range(n) if r != c)


def test_restricted_roots_sl2():
    cd = cartan_data(sl(2))
    assert cd.roots == ((F(-2),), (F(2),))
    assert cd.positive_roots == ((F(2),),)
    assert cd.simple_roots == ((F(2),),)
    assert cd.root_space((F(2),)) == canonical_basis([(0, 1, 0)], 3)
    assert cd.n == canonical_basis([(0, 1, 0)], 3)
    assert cd.p == canonical_basis([(1, 0, 0), (0, 1, 0)], 3)
    assert cd.m.dim == 0
    assert cd.root_value((F(2),), (1, 0, 0)) == F(2)


def test_restricted_roots_gl2():
    g = gl(2)
    cd = cartan_data(g)
    # a = diagonal matrices; one positive root; g0 = a; m = 0
    assert cd.a.dim == 2
    assert len(cd.roots) == 2
    assert len(cd.positive_roots) == 1
    assert cd.zero_space == cd.a
    assert cd.m.dim == 0
    # center of gl2 sits inside g0
    z = g.center()
    assert z.is_contained_in(cd.zero_space)
    assert z.dim == 1


def test_restricted_roots_sl3_upper_triangular_positivity():
    g = sl(3)
    reg = g.from_matrix(regular_diagonal_positivity(3))
    h1 = unit_vector(8, 0)
    cd = cartan_data(g, positivity_basis=[reg, h1])
    assert len(cd.roots) == 6
    assert len(cd.positive_roots) == 3
    assert len(cd.simple_roots) == 2
    # n is spanned by the strictly upper triangular part
    exp = g.span_of_matrices([elementary(3, 0, 1), elementary(3, 0, 2),
                              elementary(3, 1, 2)])
    assert cd.n == exp
    assert cd.zero_space == cd.a
    # root space brackets satisfy [g_a, g_b] <= g_(a+b)
    rootset = set(cd.roots)
    for alpha in cd.roots:
        for beta in cd.roots:
            target = tuple(x + y for x, y in zip(alpha, beta))
            ga, gb = cd.root_space(alpha), cd.root_space(beta)
            for u in ga.basis:
                for v in gb.basis:
                    w = g.bracket(u, v)
                    if is_zero_vector(w):
                        continue
                    if target in rootset:
                        assert cd.root_space(target).contains(w)
                    elif all(t == 0 for t in target):
                        assert cd.zero_space.contains(w)
                    else:
                        raise AssertionError("bracket escaped the grading")


def test_theta_flips_root_spaces():
    from sphlie.linalg import canonical_basis, mat_apply

    cd = cartan_data(sl(3))
    for alpha in cd.roots:
        neg = tuple(-x for x in alpha)
        image = canonical_basis([mat_apply(cd.theta, v)
                                 for v in cd.root_space(alpha).basis], 8)
        assert image == cd.root_space(neg)


def test_root_decomposition_dimension_formula():
    for g, kwargs in ((sl(2), {}), (sl(3), {}), (gl(2), {}), (so(3), {})):
        cd = cartan_data(g, **kwargs)
        total = cd.zero_space.dim + sum(cd.root_space(r).dim for r in cd.roots)
        assert total == g.dim
        assert subspace_sum(cd.m, cd.a) == cd.zero_space
        assert subspace_intersect(cd.m, cd.a).dim == 0


def test_theta_is_validated_once_per_cartan_data(monkeypatch):
    import sphlie.liealg as liealg
    calls = []
    real = liealg.cartan_decompose
    monkeypatch.setattr(liealg, "cartan_decompose",
                        lambda g, theta=None: calls.append(g) or real(g, theta))
    cartan_data(sl(3))
    assert len(calls) == 1


def reference_root_table(cd):
    """(space, support, positive, negative position) per root, keyed by
    the roots themselves: support from ``simple_coordinates``."""
    coords = dict(zip(cd.positive_roots, cd.simple_coordinates))
    spaces = dict(zip(cd.roots, cd._spaces))
    out = []
    for r in cd.roots:
        neg = tuple(-x for x in r)
        up = r in coords
        support = frozenset(i for i, c in enumerate(coords[r if up else neg])
                            if c)
        out.append((spaces[r], support, up, cd.roots.index(neg)))
    return tuple(out)


def root_table_problems():
    """Every catalog and ladder problem, and each catalog problem on two
    mixed bases of g, one integral and one with rational entries."""
    problems = [e.problem for e in catalog_entries()] + ladder_problems()
    for entry in catalog_entries():
        p = entry.problem
        problems += [remixed(p, 0), dataclasses.replace(p, basis=mixed_q(
            p.basis, 1, entries=(F(-1, 2), 0, F(2, 3))))]
    return problems


def test_root_lookups_match_the_list_scans():
    """The position table against a root-keyed reference and the public
    lookups against list scans; a new positivity, as a hint gives, rebuilds
    the table."""
    from sphlie.problem import build_pair

    for problem in root_table_problems():
        cd = build_pair(problem).cartan
        assert cd._table == reference_root_table(cd), problem.name
        for r in cd.roots:
            assert cd.is_positive(r) == (r in cd.positive_roots)
            assert cd.root_space(r) is cd._spaces[cd.roots.index(r)]
            pos = r if r in cd.positive_roots else tuple(-x for x in r)
            coords = cd.simple_coordinates[cd.positive_roots.index(pos)]
            assert cd.support(r) == frozenset(
                i for i, c in enumerate(coords) if c)
        non_roots = [(F(0),) * cd.a.dim]
        non_roots += [tuple(3 * x for x in r) for r in cd.roots[:1]]
        for r in non_roots:
            assert not cd.is_positive(r)
            with pytest.raises(KeyError, match="not a restricted root here"):
                cd.root_space(r)
        if cd.a.dim:
            flipped = dataclasses.replace(
                cd, positivity=tuple(tuple(-x for x in v)
                                     for v in cd.positivity))
            assert flipped._table == reference_root_table(flipped)
            assert [up for _, _, up, _ in flipped._table] == \
                [not up for _, _, up, _ in cd._table], problem.name


def test_simple_coordinates_match_a_span_solve():
    """The walk up from the simple roots against a solve in their span, on
    each problem's positivity and on its negation (for the hinted ladder
    pair, a negated hint)."""
    from sphlie.problem import build_pair

    for problem in root_table_problems():
        cd = build_pair(problem).cartan
        for c in (cd, dataclasses.replace(cd, positivity=tuple(
                tuple(-x for x in v) for v in cd.positivity))):
            solver = SpanSolver(c.simple_roots, c.a.dim)
            want = tuple(solver.coordinates(r) for r in c.positive_roots)
            assert c.simple_coordinates == want, problem.name
            assert all(type(x) is int and x >= 0
                       for sol in c.simple_coordinates for x in sol)


def test_the_ordering_stage_solves_nothing(monkeypatch):
    from sphlie.problem import build_pair

    cd = build_pair(ladder_problems()[1]).cartan
    calls = []
    real = SpanSolver.coordinates
    monkeypatch.setattr(SpanSolver, "coordinates",
                        lambda self, v: calls.append(v) or real(self, v))
    again = dataclasses.replace(cd, positivity=cd.positivity)
    assert calls == []
    assert again.simple_coordinates == cd.simple_coordinates


def test_dependent_simple_roots_are_refused():
    # 2 and 3 on a line: neither is a sum of two positive roots, so both
    # are simple, and they are dependent
    cd = cartan_data(sl(2))
    spaces = cd._spaces * 2
    with pytest.raises(CertificationError,
                       match="simple roots are linearly dependent"):
        dataclasses.replace(cd, roots=((F(2),), (F(3),), (F(-2),), (F(-3),)),
                            _spaces=spaces)


def test_cartan_data_rejects_a_positivity_basis_that_is_not_a_basis_of_a():
    g = sl(3)
    h1, h2, e12 = unit_vector(8, 0), unit_vector(8, 1), unit_vector(8, 2)
    for bad in ([h1], [h1, h1], [h1, e12], [h1, h2, h1]):
        with pytest.raises(DimensionMismatch,
                           match=r"not a basis of a \(dim 2\)"):
            cartan_data(g, positivity_basis=bad)
    # a reordered basis of a orders the same roots differently
    default = cartan_data(g)
    flipped = cartan_data(g, positivity_basis=[h2, h1])
    assert flipped.roots == default.roots
    assert set(flipped.positive_roots) != set(default.positive_roots)


def test_so3_has_no_roots():
    cd = cartan_data(so(3))
    assert cd.a.dim == 0
    assert cd.roots == ()
    assert cd.p.dim == 3 and cd.p == cd.algebra.full_space()
    assert cd.n.dim == 0
    assert cd.m == cd.k


def test_nonsemisimple_ad_spectrum_raises():
    # euclidean motion algebra: J rotates the translation plane (X, Y);
    # custom theta fixes J and flips X, Y, so a = span(X, Y) and ad X is a
    # nonzero nilpotent -> exact spectrum error, no float fallback.  This
    # theta is not Cartan, so only the weight stage can be handed it.
    J = ((0, -1, 0), (1, 0, 0), (0, 0, 0))
    X = elementary(3, 0, 2)
    Y = elementary(3, 1, 2)
    g = LieAlgebra([J, X, Y], name="euclid(2)")
    theta = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    th, k, s = cartan_decompose(g, theta)
    a = maximal_abelian(g, s)
    assert a.dim == 2
    with pytest.raises(SpectrumError):
        _root_decomposition(g, a, a.basis, th, k, s)
    # in sl(2), ad(H + E + F) has the irrational eigenvalues 0, ±2√2
    g = sl(2)
    with pytest.raises(SpectrumError):
        cartan_data(g, a_seed=canonical_basis([(1, 1, 1)], 3))


def test_simple_ideal_split_sl2_so3():
    sp = simple_ideal_split(sl(2))
    assert sp.center.dim == 0
    assert len(sp.ideals) == 1
    assert sp.ideals[0][0].dim == 3 and sp.ideals[0][1] is False

    sp = simple_ideal_split(so(3))
    assert sp.center.dim == 0
    assert len(sp.ideals) == 1 and sp.ideals[0][1] is True


def test_simple_ideal_split_center_plus_compact():
    # so(3) + R*I inside 3x3 matrices
    iden = tuple(tuple(F(1) if i == j else F(0) for j in range(3)) for i in range(3))
    g = LieAlgebra(so_basis(3) + [iden], name="so3+center")
    sp = simple_ideal_split(g)
    assert sp.center.dim == 1
    assert len(sp.ideals) == 1 and sp.ideals[0][1] is True


def test_simple_ideal_split_mixed_product():
    basis = direct_sum_basis([sl_basis(2), so_basis(3)])
    g = LieAlgebra(basis, name="sl2+so3")
    sp = simple_ideal_split(g)
    assert sp.center.dim == 0
    flags = sorted(c for _, c in sp.ideals)
    assert flags == [False, True]
    assert sum(sp_.dim for sp_, _ in sp.ideals) == 6
    # the pieces really are ideals of g
    for ideal, _ in sp.ideals:
        for u in ideal.basis:
            for j in range(g.dim):
                assert ideal.contains(g.bracket(unit_vector(g.dim, j), u))


def test_simple_ideal_split_two_noncompact():
    basis = direct_sum_basis([sl_basis(2), sl_basis(2)])
    g = LieAlgebra(basis, name="sl2+sl2")
    sp = simple_ideal_split(g)
    assert [c for _, c in sp.ideals] == [False, False]
    assert len(sp.ideals) == 2


def test_simple_ideal_split_rejects_nonreductive():
    g = LieAlgebra([sl2_H(), sl2_E()])
    with pytest.raises(NotReductive):
        simple_ideal_split(g)


def test_simple_ideal_split_sums_the_compact_ideals():
    basis = direct_sum_basis([so_basis(3), so_basis(3), sl_basis(2)])
    g = LieAlgebra(basis, name="so3+so3+sl2")
    sp = simple_ideal_split(g)
    assert sp.center.dim == 0
    assert sorted((ideal.dim, c) for ideal, c in sp.ideals) == [
        (3, False), (6, True)]
    compact = next(ideal for ideal, c in sp.ideals if c)
    assert compact == g.span_of_matrices(basis[:6])


def matrix_span(g, sub):
    """The span of the matrices of a subspace of g, flattened."""
    n = g.matrix_size
    return canonical_basis(
        [tuple(e for row in g.to_matrix(v) for e in row) for v in sub.basis],
        n * n)


def split_spans(g):
    """(matrix span of the compact ideals, sorted matrix spans of the
    noncompact ideals) of simple_ideal_split(g): no trace of g's basis."""
    sp = simple_ideal_split(g)
    compact = canonical_basis(
        [v for ideal, c in sp.ideals if c for v in ideal.basis], g.dim)
    return (matrix_span(g, compact),
            sorted(matrix_span(g, ideal).basis
                   for ideal, c in sp.ideals if not c))


def mixed(mats, seed):
    """An invertible recombination of ``mats``: a random unit lower
    triangular matrix times a random unit upper triangular one, with
    off-diagonal entries in {-1, 0, 1} (kept small: the torus's root values
    are rationals whose size grows with the mixing's)."""
    rng = random.Random(seed)
    d = len(mats)

    def unit_triangular(below):
        return [[F(1) if i == j else
                 F(rng.choice((-1, 0, 0, 1)))
                 if (j < i) == below and i != j else F(0)
                 for j in range(d)] for i in range(d)]

    low, up = unit_triangular(True), unit_triangular(False)
    mix = [[sum(low[i][k] * up[k][j] for k in range(d)) for j in range(d)]
           for i in range(d)]
    return [add(*(scale(c, m) for c, m in zip(row, mats))) for row in mix]


SPLIT_BASES = {entry.name: entry.problem.basis for entry in catalog_entries()
               if len(entry.problem.basis) <= 9}
SPLIT_BASES["sl2x2_so3"] = mixed_levi.basis()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(SPLIT_BASES)), st.integers(0, 2 ** 32))
@example("sl2x2_so3", 0)
def test_simple_ideal_split_is_basis_free(name, seed):
    basis = SPLIT_BASES[name]
    assert (split_spans(LieAlgebra(mixed(basis, seed)))
            == split_spans(LieAlgebra(basis)))


def test_simple_ideal_split_of_the_mixed_repro_basis():
    block = split_spans(LieAlgebra(mixed_levi.basis()))
    assert split_spans(LieAlgebra(mixed_levi.basis(mixed=True))) == block
    assert block[0].dim == 3 and [len(b) for b in block[1]] == [3, 3]


def test_cartan_data_rejects_an_involution_that_is_not_cartan():
    # Ad(diag(1, -1)) fixes H: an involutive automorphism, which
    # cartan_decompose accepts, but B(H, H) > 0 on its fixed space
    g = sl(2)
    theta = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    _, k, _ = cartan_decompose(g, theta)
    assert k == canonical_basis([(1, 0, 0)], 3)
    with pytest.raises(NotCartanInvolution, match=r"k ∩ \[g, g\] \(dim 1\)"):
        cartan_data(g, theta)


# the default theta = -X^T is proved Cartan (cartan_data's docstring); the
# check it skips must pass on every algebra closed under transpose
DEFAULT_THETA_BASES = {
    **{e.name: (e.problem.basis, True) for e in catalog_entries()},
    **{p.name: (p.basis, False) for p in ladder_problems()},
    **{f"sl{n}": (sl_basis(n), False) for n in range(2, 7)},
    **{f"so{n}": (so_basis(n), False) for n in range(3, 7)},
    "gl3": (gl_basis(3), False),   # a nonzero center
}


@pytest.mark.parametrize("name", sorted(DEFAULT_THETA_BASES))
def test_the_default_theta_passes_the_cartan_check_it_skips(name):
    """On g's own basis and, for a catalog entry, on its six mixed bases
    (:func:`mixed` above, seeds 0-5)."""
    basis, remix = DEFAULT_THETA_BASES[name]
    for b in [basis, *(mixed(basis, seed) for seed in range(6) if remix)]:
        g = LieAlgebra(b)
        _certify_cartan(g, *cartan_decompose(g)[1:])


# -- the invariant form against a dense reference -----------------------------


def dense_invariant_form(g):
    """Killing form from dense ad products plus tr(X_i X_j) of the parts of
    every pair of basis elements in z along [g, g]: d^2 matrix products."""
    from sphlie.linalg import mat_mul, mat_trace

    d = g.dim
    ads = [g.ad(unit_vector(d, i)) for i in range(d)]
    z, der = g.center(), g.derived_algebra()
    stacked = list(z.basis) + list(der.basis)
    inv = mat_invert(stacked)   # e_i = sum_k inv[i][k] stacked[k]
    zparts = [g.to_matrix(tuple(
        sum((inv[i][k] * stacked[k][m] for k in range(z.dim)), F(0))
        for m in range(d))) for i in range(d)]
    return tuple(tuple(mat_trace(mat_mul(ads[i], ads[j]))
                       + mat_trace(mat_mul(zparts[i], zparts[j]))
                       for j in range(d)) for i in range(d))


def so3_plus_centre():
    """so(3) + a 2-dim centre in 5 x 5 blocks, with a basis that mixes the
    two summands so that the parts in z along [g, g] are not basis rows."""
    a1, a2, a3 = (block_embed(m, 5, 0) for m in so_basis(3))
    z1, z2 = elementary(5, 3, 3), add(elementary(5, 3, 3), elementary(5, 4, 4))
    return LieAlgebra([add(a1, z1), a2, add(a3, scale(-2, z2)), z1,
                       add(z1, scale(3, z2))], name="so3+z")


def test_invariant_form_matches_the_dense_reference():
    for g in (gl(2), gl(3), so3_plus_centre(), sl(3), so(3)):
        assert g.invariant_form() == dense_invariant_form(g)
    assert so3_plus_centre().center().dim == 2
    assert sl(3).invariant_form() == sl(3).killing_form()


def test_invariant_form_of_a_non_reductive_algebra_raises_every_time():
    # the Heisenberg algebra: z = [g, g] = span(E_13)
    g = LieAlgebra([elementary(3, 0, 1), elementary(3, 1, 2),
                    elementary(3, 0, 2)], name="heis")
    for _ in range(2):
        with pytest.raises(NotReductive):
            g.invariant_form()


def test_transporter_into_the_full_space_skips_the_lift(monkeypatch):
    import sphlie.linalg as linalg
    from sphlie.liealg import transporter

    g = sl(3)
    s = canonical_basis([unit_vector(8, 0)], 8)
    expected = transporter(g, s, g.zero_space())
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda rows: calls.append(rows) or real(rows))
    for within in (None, g.full_space()):
        calls.clear()
        assert transporter(g, s, g.zero_space(), within) == expected
        # the kernel's elimination and its canonical basis, no lift
        assert len(calls) == 2


def test_a_transporter_within_a_proper_subspace_eliminates_twice(
        monkeypatch):
    """The null generators are lifted through within's basis and eliminated
    once, with no canonical basis of the kernel in within's coordinates."""
    import sphlie.linalg as linalg
    from sphlie.liealg import transporter

    g = sl(4)
    h = g.span_of_matrices(so_basis(4))
    within = canonical_basis([unit_vector(15, i) for i in range(0, 15, 2)],
                             15)
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda rows: calls.append(rows) or real(rows))
    out = transporter(g, h, h, within)
    assert 0 < out.dim < within.dim
    assert len(calls) == 2


def test_the_normalizer_transporter_builds_no_ad_matrix(monkeypatch):
    """On all of g, [e_m, u] comes from the table like any other bracket."""
    from sphlie.liealg import transporter

    g = sl(4)
    h = g.span_of_matrices(so_basis(4))
    calls = []
    real = LieAlgebra.ad
    monkeypatch.setattr(LieAlgebra, "ad",
                        lambda self, x: calls.append(x) or real(self, x))
    assert transporter(g, h, h) == h
    assert calls == []


@pytest.mark.parametrize("n", [4, 12])
def test_transporter_rejects_subspaces_outside_g(n):
    from sphlie.liealg import transporter

    g = sl(3)
    outside = canonical_basis([unit_vector(n, 0)], n)
    full, zero = g.full_space(), g.zero_space()
    for s, t, within in ((outside, zero, None), (full, outside, None),
                         (full, zero, outside)):
        with pytest.raises(DimensionMismatch):
            transporter(g, s, t, within)


@pytest.mark.parametrize("n", [4, 12])
def test_bracket_containment_rejects_subspaces_outside_g(n):
    from sphlie.normalizer import normalizer_in

    g = sl(3)
    s = canonical_basis([unit_vector(n, 0), unit_vector(n, 1)], n)
    with pytest.raises(DimensionMismatch):
        g.is_subalgebra(s)
    with pytest.raises(DimensionMismatch):
        g.brackets_within(s, s, g.full_space())
    with pytest.raises(DimensionMismatch):
        normalizer_in(g, s)


def test_cartan_data_certifies_an_arbitrary_a_seed():
    g = sl(3)
    _, k, s = cartan_decompose(g)
    outside = canonical_basis([k.basis[0]], 8)
    not_abelian = canonical_basis(s.basis[:3], 8)
    assert any(not is_zero_vector(g.bracket(u, v))
               for u in not_abelian.basis for v in not_abelian.basis)
    with pytest.raises(DimensionMismatch):
        cartan_data(g, a_seed=outside)
    with pytest.raises(NotClosed, match="^seed is not abelian$"):
        cartan_data(g, a_seed=not_abelian)


# -- the closure certificate [a, b] ⊆ target ---------------------------------

CLOSURE_ALGEBRAS = {"sl3": sl(3), "gl3": gl(3), "so4": so(4)}
CLOSURE_ENTRIES = (0, 0, 0, 1, -1, 2, F(1, 2))


def dense_brackets_within(g, a, b, target):
    """[x, y] in target for the full product of a's and b's bases: each
    bracket a matrix commutator solved back into g, each containment a
    rank."""
    return all(canonical_basis(
        [*target.basis, g.from_matrix(commutator(g.to_matrix(x),
                                                 g.to_matrix(y)))],
        g.dim).dim == target.dim for x in a.basis for y in b.basis)


@st.composite
def closure_cases(draw):
    """(g, a, b, target): a and b spans of up to three sparse vectors, b
    also a itself or its centralizer; the target zero, g, a random span, or
    the span of the nonzero brackets [a_i, b_j] or of all but the last."""
    g = CLOSURE_ALGEBRAS[draw(st.sampled_from(sorted(CLOSURE_ALGEBRAS)))]

    def span(max_size):
        rows = draw(st.lists(st.tuples(*[st.sampled_from(CLOSURE_ENTRIES)]
                                       * g.dim), max_size=max_size))
        return canonical_basis(rows, g.dim)

    a = span(3)
    b = draw(st.sampled_from(("same", "centralizer", "random")))
    b = (a if b == "same" else centralizer_in(g, a) if b == "centralizer"
         else span(3))
    brackets = [v for x in a.basis for y in b.basis
                if any(v := g.bracket(x, y))]
    target = draw(st.sampled_from(("zero", "full", "random", "all", "most")))
    target = {"zero": g.zero_space, "full": g.full_space,
              "random": lambda: span(4),
              "all": lambda: canonical_basis(brackets, g.dim),
              "most": lambda: canonical_basis(brackets[:-1], g.dim)}[target]()
    return g, a, b, target


@settings(max_examples=80, deadline=None)
@given(closure_cases())
def test_brackets_within_matches_the_full_dense_product(case):
    g, a, b, target = case
    want = dense_brackets_within(g, a, b, target)
    assert g.brackets_within(a, b, target) == want
    assert g.brackets_within(b, a, target) == want


def test_brackets_within_forms_each_unordered_pair_once(monkeypatch):
    g = sl(3)
    calls = []
    real = LieAlgebra._bracket_entries
    monkeypatch.setattr(LieAlgebra, "_bracket_entries",
                        lambda self, x, y: calls.append(1) or real(self, x, y))
    a = canonical_basis([unit_vector(8, i) for i in (0, 2, 5)], 8)
    b = canonical_basis([unit_vector(8, i) for i in (1, 3, 4, 7)], 8)
    assert g.brackets_within(a, a, g.full_space())
    assert len(calls) == 6          # i <= j of three
    assert g.brackets_within(a, b, g.full_space())
    assert len(calls) == 6 + 12     # every pair of three by four
    assert g.brackets_within(a, b, g.zero_space()) is False


def hand_rolled_closures(tree, allowed="brackets_within"):
    """Lines of ``<...>.contains(<...>.bracket(...))`` and
    ``is_zero_vector(<...>.bracket(...))`` outside the function named
    ``allowed``."""
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed
              for node in ast.walk(fn)}

    def called(node, name):
        f = getattr(node, "func", None)
        return (isinstance(node, ast.Call)
                and getattr(f, "attr", getattr(f, "id", None)) == name)

    return [node.lineno for node in ast.walk(tree)
            if id(node) not in exempt
            and (called(node, "contains") or called(node, "is_zero_vector"))
            and any(called(arg, "bracket") for arg in node.args)]


def test_only_the_closure_certificate_tests_bracket_containment():
    src = Path(__file__).resolve().parent.parent / "src" / "sphlie"
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := hand_rolled_closures(
                 ast.parse(path.read_text("utf-8"))))}
    assert found == {}, f"bracket containment outside brackets_within: {found}"


def test_the_closure_lint_sees_a_hand_rolled_loop():
    tree = ast.parse("def f(g, s, u, v):\n"
                     "    ok = s.contains(g.bracket(u, v))\n"
                     "    return ok and is_zero_vector(g.bracket(v, u))\n")
    assert hand_rolled_closures(tree) == [2, 3]
    tree = ast.parse("def brackets_within(self, a, t):\n"
                     "    return all(t.contains(self.bracket(x, x))"
                     " for x in a)\n")
    assert hand_rolled_closures(tree) == []


# -- counting guards: the sparse table end to end ------------------------------


def count_calls(monkeypatch, name):
    """Count the calls of ``sphlie.linalg.<name>`` through every sphlie
    module that imported it."""
    import sys

    import sphlie.linalg as linalg

    real, calls = getattr(linalg, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.split(".")[0] == "sphlie"
                and getattr(mod, name, None) is real):
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_the_structure_table_multiplies_no_matrix(monkeypatch):
    calls = count_calls(monkeypatch, "mat_mul")
    g = LieAlgebra(sl_basis(4))
    assert calls == []
    assert dense_structure(g) == reference_structure(sl_basis(4))


def test_transporter_applies_no_matrix(monkeypatch):
    from sphlie.liealg import largest_ideal_within, transporter

    g = sl(3)
    calls = count_calls(monkeypatch, "mat_apply")
    h = canonical_basis([unit_vector(8, 0), unit_vector(8, 1)], 8)
    transporter(g, h, h)
    centralizer_in(g, h, within=h)
    largest_ideal_within(g, h)
    assert calls == []


def test_the_dense_table_lives_in_the_tests():
    """The package keeps only the sparse table; the dense one is the test
    helper ``dense_structure``, whose [i][j] is [e_i, e_j]."""
    assert not hasattr(LieAlgebra, "structure")
    g = sl(3)
    table = dense_structure(g)
    assert all(table[i][j] == g.bracket(unit_vector(8, i), unit_vector(8, j))
               for i in range(8) for j in range(8))


def test_the_weight_stage_forms_no_ad_matrix(monkeypatch):
    """On g's own basis of sl(4) and sl(5) every ad h, h in a, is diagonal,
    and its diagonal is read off the structure table."""
    calls = []
    real = LieAlgebra.ad
    monkeypatch.setattr(LieAlgebra, "ad",
                        lambda self, x: calls.append(x) or real(self, x))
    sl(2).ad(unit_vector(3, 0))
    assert len(calls) == 1
    calls.clear()
    for n in (4, 5):
        assert len(cartan_data(sl(n)).roots) == n * (n - 1)
    assert calls == []


def test_weight_stage_reads_the_grading_off(monkeypatch):
    # on g's own basis the weight stage sees only diagonal restrictions,
    # so no Krylov sequence runs, unhinted on sl(4) and hinted on sl(2)^6
    import sphlie.spectral as spectral
    from sphlie.problem import Problem, build_pair

    calls = []
    real = spectral.vector_minimal_polynomial
    monkeypatch.setattr(spectral, "vector_minimal_polynomial",
                        lambda *args: calls.append(1) or real(*args))
    assert len(cartan_data(sl(4)).roots) == 12
    j = ((0, 1), (-1, 0))
    sl2x6 = build_pair(Problem(
        name="sl2x6_so2x6_hinted", matrix_size=12,
        basis=tuple(direct_sum_basis([sl_basis(2)] * 6)),
        subalgebra_basis=tuple(block_embed(j, 12, off)
                               for off in range(0, 12, 2)),
        minimal_parabolic_hint=(1, -1, 1, -1, 1, -1)))
    assert len(sl2x6.cartan.roots) == 12
    assert calls == []
