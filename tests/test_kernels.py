"""Property tests: the zero-skipping exact kernels against dense references.

Each reference below is written out densely from the definition, with no
library calls, so a kernel that skips a nonzero term shows up as a
mismatch.  Inputs are random sparse rational matrices and vectors.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_helpers import commutator, dense_structure
from sphlie.builders import gl, sl, so
from sphlie.catalog import catalog_entries, get_entry
from sphlie.errors import DimensionMismatch
from sphlie.liealg import LieAlgebra, SpanSolver, centralizer_in, transporter
from sphlie.linalg import (
    _scaled,
    as_vector,
    canonical_basis,
    int_rank,
    kernel,
    lin_comb,
    mat_apply,
    mat_mul,
    residual_operator,
    rref,
    subspace_intersect,
    unit_vector,
)
from sphlie.problem import build_pair
from sphlie.spherical import _open_defect
from test_exact_scalars import mixed, remixed

PROPS = settings(max_examples=60, deadline=None)

# about two thirds zeros, the rest small rationals
entries = st.one_of(st.just(F(0)), st.just(F(0)),
                    st.fractions(min_value=-4, max_value=4, max_denominator=3))


def vectors(n):
    return st.tuples(*[entries] * n)


def matrices(rows, cols):
    return st.tuples(*[vectors(cols)] * rows)


dims = st.integers(min_value=1, max_value=5)


# -- dense references ---------------------------------------------------------


def dense_mul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
                       for j in range(len(b[0])))
                 for i in range(len(a)))


def dense_apply(a, v):
    return tuple(sum((row[k] * v[k] for k in range(len(v))), F(0))
                 for row in a)


def dense_rref(rows):
    """Textbook Gauss-Jordan: every entry of every row is recomputed."""
    work = [[F(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    pivots, top = [], 0
    for col in range(ncols):
        sel = next((r for r in range(top, len(work)) if work[r][col] != 0),
                   None)
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        work[top] = [x / work[top][col] for x in work[top]]
        for r in range(len(work)):
            if r != top:
                c = work[r][col]
                work[r] = [x - c * y for x, y in zip(work[r], work[top])]
        pivots.append(col)
        top += 1
    return [tuple(r) for r in work[:top]], pivots


def dense_combination(coeffs, vecs, n):
    return tuple(sum((c * v[k] for c, v in zip(coeffs, vecs)), F(0))
                 for k in range(n))


def dense_bracket(g, x, y):
    structure = dense_structure(g)
    return tuple(sum((x[i] * y[j] * structure[i][j][k]
                      for i in range(g.dim) for j in range(g.dim)), F(0))
                 for k in range(g.dim))


# -- linalg kernels -----------------------------------------------------------


@PROPS
@given(st.tuples(dims, dims, dims).flatmap(
    lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[1], s[2]))))
def test_mat_mul_matches_dense(ab):
    a, b = ab
    assert mat_mul(a, b) == dense_mul(a, b)


@PROPS
@given(st.tuples(dims, dims).flatmap(
    lambda s: st.tuples(matrices(s[0], s[1]), vectors(s[1]))))
def test_mat_apply_matches_dense(av):
    a, v = av
    assert mat_apply(a, v) == dense_apply(a, v)


@PROPS
@given(st.tuples(st.integers(0, 6), dims).flatmap(
    lambda s: matrices(s[0], s[1])))
def test_rref_matches_dense(rows):
    assert rref(rows) == dense_rref(rows)


# ints, integral Fractions and proper Fractions, each also as a zero, and
# units often enough that rows lead with 1 and are not rescaled
mixed_entries = st.one_of(
    st.just(0), st.just(F(0)), st.sampled_from([1, -1, F(1), F(-1), F(2)]),
    st.integers(-4, 4), st.integers(-4, 4).map(F),
    st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def wide_sparse_rows(draw):
    """Up to 8 rows of 20-30 columns with 1-3 nonzeros each."""
    n = draw(st.integers(20, 30))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [0] * n
        for c in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                               unique=True)):
            row[c] = draw(mixed_entries.filter(bool))
        rows.append(tuple(row))
    return rows


def exact_typed(x):
    return type(x) is int or (type(x) is F and x.denominator > 1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(st.integers(0, 6), dims).flatmap(
    lambda s: st.lists(st.tuples(*[mixed_entries] * s[1]), min_size=s[0],
                       max_size=s[0])), wide_sparse_rows()), st.data())
def test_rref_entries_are_exactly_typed(rows, data):
    # repeated rows and a zero row on top of the drawn ones
    if rows:
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))
        rows.insert(data.draw(st.integers(0, len(rows))),
                    (F(0),) * len(rows[0]))
    red, pivots = rref(rows)
    assert (red, pivots) == dense_rref(rows)
    assert all(exact_typed(x) for row in red for x in row)


def test_rref_rejects_ragged_rows():
    with pytest.raises(DimensionMismatch):
        rref([(1, 2, 3), (1, 2)])
    with pytest.raises(DimensionMismatch):
        canonical_basis([(F(1), 0), (0, 0, 1)])


def test_rref_of_a_unimodular_matrix_builds_no_fraction(monkeypatch):
    # L U for L lower and U upper unitriangular: every remainder leads with
    # 1, so the elimination stays in ints.  U has two more columns than
    # rows, so columns without a pivot are carried too.
    n = 6
    low = [[1 if i == j else (i * j + 1) % 5 - 2 if j < i else 0
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (i + 2 * j) % 7 - 3 if j > i else 0
           for j in range(n + 2)] for i in range(n)]
    a = [tuple(sum(low[i][k] * up[k][j] for k in range(n))
               for j in range(n + 2)) for i in range(n)]
    built = []
    real = F.__new__
    monkeypatch.setattr(F, "__new__", staticmethod(
        lambda cls, *args, **kwargs: built.append(args)
        or real(cls, *args, **kwargs)))
    red, pivots = rref(a)
    assert built == []
    assert pivots == list(range(n))
    assert all(type(x) is int for row in red for x in row)
    # the counter does see a Fraction the elimination builds
    assert rref([(2, 1)]) == ([(1, F(1, 2))], [0]) and built
    monkeypatch.undo()
    assert (red, pivots) == dense_rref(a)


@PROPS
@given(st.tuples(dims, st.integers(0, 4)).flatmap(
    lambda s: st.tuples(matrices(s[1], s[0]), vectors(s[1]))))
def test_lin_comb_matches_dense(vc):
    vecs, coeffs = vc
    n = len(vecs[0]) if vecs else 3
    assert lin_comb(coeffs, vecs, n) == dense_combination(coeffs, vecs, n)


def test_as_vector_keeps_fractions_and_converts_the_rest():
    half = F(1, 2)
    v = as_vector((half, 3, "2/3"))
    assert v == (F(1, 2), 3, F(2, 3)) and v[0] is half
    assert type(v[1]) is int and type(v[2]) is F


@PROPS
@given(st.tuples(dims, st.integers(1, 4)).flatmap(
    lambda s: st.tuples(matrices(s[1], s[0]), vectors(s[1]), vectors(s[0]))))
def test_span_solver_matches_dense(data):
    rows, coeffs, outside = data
    red, _ = dense_rref(rows)
    if len(red) < len(rows):
        return  # SpanSolver needs an independent list
    n = len(rows[0])
    solver = SpanSolver(rows, n)
    inside = dense_combination(coeffs, rows, n)
    assert solver.coordinates(inside) == tuple(coeffs)
    in_span = len(dense_rref(list(rows) + [outside])[0]) == len(rows)
    got = solver.coordinates(outside)
    if in_span:
        assert got is not None and dense_combination(got, rows, n) == outside
    else:
        assert got is None


# -- bracket and ad -----------------------------------------------------------

algebras = st.sampled_from([(sl, 2), (sl, 3), (gl, 2), (so, 4)]).map(
    lambda spec: spec[0](spec[1]))


def algebra_and_vectors(count):
    return algebras.flatmap(
        lambda g: st.tuples(st.just(g), *[vectors(g.dim)] * count))


@PROPS
@given(algebra_and_vectors(2))
def test_bracket_matches_dense_and_matrix_commutator(data):
    g, x, y = data
    got = g.bracket(x, y)
    assert got == dense_bracket(g, x, y)
    assert got == g.from_matrix(commutator(g.to_matrix(x), g.to_matrix(y)))


@PROPS
@given(algebra_and_vectors(1))
def test_ad_columns_are_dense_brackets(data):
    g, x = data
    ad = g.ad(x)
    for j in range(g.dim):
        col = tuple(ad[k][j] for k in range(g.dim))
        assert col == dense_bracket(g, x, unit_vector(g.dim, j))


def test_killing_form_matches_dense_trace_of_ad_products():
    for g in (sl(3), gl(2), so(4)):
        st = dense_structure(g)
        d = g.dim
        dense = tuple(tuple(sum((st[i][l][k] * st[j][k][l]
                                 for k in range(d) for l in range(d)), F(0))
                            for j in range(d))
                      for i in range(d))
        assert g.killing_form() == dense


@PROPS
@given(dims.flatmap(lambda n: st.tuples(
    st.just(n), *[st.lists(vectors(n), max_size=3)] * 3)))
def test_subspace_intersect_matches_the_zassenhaus_reference(data):
    # a and b share the span of ``shared``, so their meet is often proper
    n, only_a, only_b, shared = data
    a = canonical_basis(only_a + shared, n)
    b = canonical_basis(only_b + shared, n)
    # Zassenhaus: rows (u | u) for u in a and (w | 0) for w in b; the rows
    # whose left half vanishes after elimination span a ∩ b on the right
    zero = (F(0),) * n
    red, _ = dense_rref([u + u for u in a.basis] + [w + zero for w in b.basis])
    meet, _ = dense_rref([row[n:] for row in red if not any(row[:n])])
    assert list(subspace_intersect(a, b).basis) == meet


def stacked_meet(a, b):
    """a ∩ b by the stacked formula: the kernel of [A | -B], one row per
    ambient coordinate, then the span of sum_i x_i a_i over its basis."""
    n, p, q = a.ambient_dim, a.dim, b.dim
    if p + q == 0:
        return []
    rows = [[u[c] for u in a.basis] + [-w[c] for w in b.basis]
            for c in range(n)]
    red, pivots = dense_rref(rows)
    gens = []
    for f in (c for c in range(p + q) if c not in pivots):
        x = [F(0)] * (p + q)
        x[f] = F(1)
        for row, col in zip(red, pivots):
            x[col] = -row[f]
        gens.append(dense_combination(x[:p], a.basis, n))
    return dense_rref(gens)[0] if gens else []


@PROPS
@given(dims.flatmap(lambda n: st.tuples(
    st.just(n), *[st.lists(vectors(n), max_size=4)] * 3)))
def test_subspace_intersect_matches_the_stacked_kernel(data):
    n, only_a, only_b, shared = data
    a = canonical_basis(only_a + shared, n)
    b = canonical_basis(only_b + shared, n)
    meet = subspace_intersect(a, b)
    assert list(meet.basis) == stacked_meet(a, b)
    assert subspace_intersect(b, a) == meet
    assert all(type(x) is int or x.denominator > 1
               for row in meet.basis for x in row)
    # a ⊆ b gives a, whichever side is passed first
    both = canonical_basis(only_a + only_b + shared, n)
    assert subspace_intersect(a, both) == a == subspace_intersect(both, a)
    zero, full = canonical_basis([], n), canonical_basis(
        [unit_vector(n, i) for i in range(n)], n)
    assert subspace_intersect(zero, b) == zero == subspace_intersect(b, zero)
    assert subspace_intersect(full, b) == b == subspace_intersect(b, full)


def test_subspace_intersect_eliminates_twice(monkeypatch):
    import sphlie.linalg as linalg

    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda rows: calls.append(rows) or real(rows))
    a = canonical_basis([unit_vector(4, 0), unit_vector(4, 1)], 4)
    b = canonical_basis([(F(1), F(1), F(0), F(0)), unit_vector(4, 2)], 4)
    calls.clear()
    assert subspace_intersect(a, b).basis == ((F(1), F(1), F(0), F(0)),)
    # the null space of a's residuals modulo b, then the span of the
    # combinations of a's basis it gives
    assert len(calls) == 2


# -- residuals modulo a subspace: transporter and the open-orbit defect -------


@lru_cache(maxsize=None)
def catalog_pair(name, seed=None):
    """A catalog pair, on g's listed basis or (for a seed) on a mixed one,
    where p's echelon rows often carry Fractions."""
    problem = get_entry(name).problem
    return build_pair(problem if seed is None else remixed(problem, seed))


def subspaces(g, max_gens=3):
    return st.lists(vectors(g.dim), max_size=max_gens).map(
        lambda vecs: canonical_basis(vecs, g.dim))


def catalog_keys():
    """(name, seed) of a catalog pair: its listed basis or a mixed one."""
    return st.tuples(st.sampled_from(sorted(e.name for e in catalog_entries())),
                     st.sampled_from((None, 0, 1, 2, 3)))


@lru_cache(maxsize=None)
def halved_algebra(name, seed):
    """A catalog algebra on a basis mixed with entries ±1/2, so that its
    structure constants carry Fractions; the ±1 mix of ``remixed`` is
    unimodular and keeps them ints."""
    return LieAlgebra(mixed(get_entry(name).problem.basis, seed,
                            (F(-1, 2), 0, F(1, 2))))


def catalog_subspaces():
    """(g, s, t, within) in a catalog algebra, on its listed basis, a mixed
    one, or one mixed with halves: t is often 0 or g, s often 0, and
    ``within`` either g (passed as None) or a random subspace."""
    def draw(g):
        t = st.one_of(st.just(g.zero_space()), st.just(g.full_space()),
                      subspaces(g))
        within = st.one_of(st.none(), subspaces(g, 4))
        return st.tuples(st.just(g), subspaces(g), t, within)
    return st.one_of(
        catalog_keys().map(lambda key: catalog_pair(*key).algebra),
        catalog_keys().filter(lambda key: key[1] is not None).map(
            lambda key: halved_algebra(*key))).flatmap(draw)


def residual_operator_transporter(g, s, t, w):
    """{x in w : [x, s] in t}: the kernel, in w's coordinates, of the dense
    residual operator of t applied to every bracket [w_m, u], lifted to g."""
    if w.dim == 0:
        return w
    res = residual_operator(t)
    brk = [[dense_apply(res, dense_bracket(g, wb, u)) for u in s.basis]
           for wb in w.basis]
    rows = [[brk[m][uidx][k] for m in range(w.dim)]
            for uidx in range(s.dim) for k in range(g.dim)]
    return canonical_basis([w.from_coordinates(c)
                            for c in kernel(rows, w.dim).basis], g.dim)


@PROPS
@given(catalog_subspaces())
def test_transporter_matches_the_residual_operator_kernel(data):
    g, s, t, within = data
    w = g.full_space() if within is None else within
    assert transporter(g, s, t, within) == residual_operator_transporter(
        g, s, t, w)
    assert centralizer_in(g, s, within) == residual_operator_transporter(
        g, s, g.zero_space(), w)


# nonzero scales, small and large, integral and not
scales = st.one_of(st.integers(1, 10**12), st.integers(-10**12, -1),
                   st.fractions(-7, 7, max_denominator=9).filter(bool))


@PROPS
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(st.one_of(vectors(n), st.just((F(0),) * n),
                        st.tuples(*[st.integers(-10**30, 10**30)] * n)),
              scales), max_size=7)), st.data())
def test_int_rank_is_the_rank_of_rref(rows, data):
    # zero rows, large entries, and rows repeated at another scale
    if rows:
        rows += [(v, s * 3) for v, s in data.draw(
            st.lists(st.sampled_from(rows), max_size=3))]
    ints = [_scaled({i: s * a for i, a in enumerate(v) if a})[0]
            for v, s in rows]
    assert all(type(a) is int for row in ints for a in row.values())
    assert int_rank(ints) == len(rref([v for v, _ in rows])[0])


def test_int_rank_of_no_rows_is_zero():
    assert int_rank([]) == 0
    assert int_rank([{}, {3: 0}]) == 0


@PROPS
@given(catalog_keys().flatmap(
    lambda key: st.tuples(
        st.just(catalog_pair(*key).cartan),
        st.lists(st.tuples(vectors(catalog_pair(*key).algebra.dim), scales),
                 max_size=4))))
def test_open_defect_is_the_codimension_of_p_plus_the_span(data):
    # each vector goes in sparse, at its own scale, as the series' scaled
    # ints do; on a mixed basis p's echelon rows carry Fractions
    cd, scaled = data
    g = cd.algebra
    vecs = [v for v, _ in scaled]
    sparse = [{i: s * a for i, a in enumerate(v) if a} for v, s in scaled]
    assert _open_defect(cd, sparse) == g.dim - canonical_basis(
        list(cd.p.basis) + vecs, g.dim).dim
