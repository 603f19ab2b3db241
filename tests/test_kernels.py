"""Property tests: the zero-skipping exact kernels against dense references.

Each reference below is written out densely from the definition, with no
library calls, so a kernel that skips a nonzero term shows up as a
mismatch.  Inputs are random sparse rational matrices and vectors.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from sphlie.builders import gl, sl, so
from sphlie.liealg import SpanSolver, commutator
from sphlie.linalg import (
    as_vector,
    lin_comb,
    mat_apply,
    mat_mul,
    rref,
    unit_vector,
)

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
    work = [list(r) for r in rows]
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
    return tuple(sum((x[i] * y[j] * g.structure[i][j][k]
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
    assert v == (F(1, 2), F(3), F(2, 3)) and v[0] is half
    assert all(type(x) is F for x in v)


@PROPS
@given(st.tuples(dims, st.integers(1, 4)).flatmap(
    lambda s: st.tuples(matrices(s[1], s[0]), vectors(s[1]), vectors(s[0]))))
def test_span_solver_matches_dense(data):
    rows, coeffs, outside = data
    red, _ = dense_rref(rows)
    if len(red) < len(rows):
        return  # SpanSolver needs an independent list
    solver = SpanSolver(rows)
    n = len(rows[0])
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
        st = g.structure
        d = g.dim
        dense = tuple(tuple(sum((st[i][l][k] * st[j][k][l]
                                 for k in range(d) for l in range(d)), F(0))
                            for j in range(d))
                      for i in range(d))
        assert g.killing_form() == dense
