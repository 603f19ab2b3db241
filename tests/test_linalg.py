import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_helpers import mat_invert
from sphlie.errors import DimensionMismatch
from sphlie.linalg import (
    as_matrix,
    as_vector,
    canonical_basis,
    complement_in,
    full_subspace,
    identity_matrix,
    kernel,
    mat_mul,
    membership,
    restrict_bilinear_form,
    rref,
    solve_linear,
    subspace_intersect,
    subspace_sum,
    symmetric_signature,
    zero_subspace,
)


def span(*vecs, ambient=None):
    return canonical_basis([as_vector(v) for v in vecs], ambient)


def rand_vec(rng, n):
    return as_vector([Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(n)])


def test_canonical_basis_scales_to_identity():
    s = span((2, 0), (0, 3))
    assert s.basis == (as_vector((1, 0)), as_vector((0, 1)))
    assert s.dim == 2


def test_canonical_basis_unique_under_shuffle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        vecs = [rand_vec(rng, n) for _ in range(rng.randint(0, 5))]
        a = canonical_basis(vecs, n)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        # also mix in random combinations of the originals: same span
        for _ in range(3):
            if vecs:
                c = [Fraction(rng.randint(-2, 2)) for _ in vecs]
                shuffled.append(as_vector(
                    [sum(ci * v[k] for ci, v in zip(c, vecs)) for k in range(n)]))
        b = canonical_basis(shuffled, n)
        assert a == b


def test_empty_generating_set_needs_ambient():
    z = canonical_basis([], 3)
    assert z.dim == 0 and z.ambient_dim == 3
    with pytest.raises(DimensionMismatch):
        canonical_basis([])


def test_full_and_zero_subspaces_are_canonical():
    for n in range(1, 7):
        assert zero_subspace(n) == canonical_basis([], n)
        assert full_subspace(n) == canonical_basis(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)
    for build in (zero_subspace, full_subspace):
        with pytest.raises(DimensionMismatch):
            build(0)


def test_mixed_dimension_rejected():
    with pytest.raises(DimensionMismatch):
        canonical_basis([(1, 0), (1, 0, 0)])


def test_sum_and_intersection_of_coordinate_planes():
    xy = span((1, 0, 0), (0, 1, 0))
    yz = span((0, 1, 0), (0, 0, 1))
    assert subspace_sum(xy, yz) == full_subspace(3)
    assert subspace_intersect(xy, yz) == span((0, 1, 0))


def test_membership_returns_coordinates():
    s = span((1, 0), (0, 1))
    assert membership((2, 3), s) == as_vector((2, 3))
    line = span((1, 2, 0))
    assert membership((3, 6, 0), line) == (Fraction(3),)
    assert membership((1, 1, 0), line) is None
    assert membership((0, 0, 0), line) == (Fraction(0),)


def test_complement_pivot_rule():
    a = span((1, 1, 0))
    b = full_subspace(3)
    c = complement_in(a, b)
    # pivot of a is column 0, so the complement keeps the unit vectors with
    # pivots 1 and 2
    assert c == span((0, 1, 0), (0, 0, 1))
    with pytest.raises(DimensionMismatch):
        complement_in(span((1, 0, 1)), span((1, 0, 0), (0, 1, 0)))


def test_dimension_formula_on_random_spans():
    rng = random.Random(20260815)
    for _ in range(60):
        n = rng.randint(1, 7)
        a = canonical_basis([rand_vec(rng, n) for _ in range(rng.randint(0, n))], n)
        b = canonical_basis([rand_vec(rng, n) for _ in range(rng.randint(0, n))], n)
        s = subspace_sum(a, b)
        i = subspace_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        assert i.is_contained_in(a) and i.is_contained_in(b)
        assert a.is_contained_in(s) and b.is_contained_in(s)


def test_complement_is_a_complement_on_random_spans():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 7)
        b = canonical_basis([rand_vec(rng, n) for _ in range(rng.randint(1, n + 1))], n)
        if b.dim == 0:
            continue
        k = rng.randint(0, b.dim)
        a = canonical_basis([b.from_coordinates(rand_vec(rng, b.dim)) for _ in range(k)], n)
        c = complement_in(a, b)
        assert subspace_sum(a, c) == b
        assert subspace_intersect(a, c).dim == 0
        assert c.dim == b.dim - a.dim


def test_membership_round_trip_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        s = canonical_basis([rand_vec(rng, n) for _ in range(rng.randint(1, n))], n)
        coords = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(s.dim)]
        v = s.from_coordinates(coords)
        assert membership(v, s) == tuple(coords)


def test_kernel_and_solve():
    rows = [as_vector((1, 2, 3)), as_vector((2, 4, 6))]
    k = kernel(rows, 3)
    assert k.dim == 2
    for v in k.basis:
        assert sum(a * b for a, b in zip(rows[0], v)) == 0
    x = solve_linear([as_vector((1, 1)), as_vector((1, -1))], as_vector((3, 1)))
    assert x == as_vector((2, 1))
    assert solve_linear([as_vector((1, 1)), as_vector((2, 2))], as_vector((1, 3))) is None
    assert solve_linear([], []) == ()


def back_substitution(rows, rhs):
    """A x = b by one elimination of [A | b]: the pivot rows give x at the
    pivots and the free variables are 0; None when a pivot lands on b."""
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    x = [0] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None
        x[p] = row[-1]
    return tuple(x)


SMALL = st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_solve_linear_matches_back_substitution(m, n, data):
    """Consistent, inconsistent and rank-deficient systems: the solution
    with free variables 0, or None, exactly as back substitution gives."""
    rows = [data.draw(st.lists(SMALL, min_size=n, max_size=n))
            for _ in range(m)]
    if data.draw(st.booleans()):
        # a combination of two rows makes the system rank-deficient
        c = data.draw(SMALL)
        rows.append([c * a + b for a, b in zip(rows[0], rows[-1])])
    if data.draw(st.booleans()):
        # b in the column span: consistent
        x = data.draw(st.lists(SMALL, min_size=n, max_size=n))
        rhs = [sum(a * y for a, y in zip(r, x)) for r in rows]
    else:
        rhs = data.draw(st.lists(SMALL, min_size=len(rows),
                                 max_size=len(rows)))
    rows = [as_vector(r) for r in rows]
    rhs = as_vector(rhs)
    got = solve_linear(rows, rhs)
    assert got == back_substitution(rows, rhs)
    if got is not None:
        assert all(sum(a * y for a, y in zip(r, got)) == b
                   for r, b in zip(rows, rhs))
        assert all(type(a) is int or a.denominator > 1 for a in got)


def test_matrix_inverse():
    m = as_matrix([(1, 2), (3, 4)])
    inv = mat_invert(m)
    assert mat_mul(m, inv) == identity_matrix(2)
    with pytest.raises(DimensionMismatch):
        mat_invert(as_matrix([(1, 2), (2, 4)]))


def test_mat_mul_shape_mismatch_raises_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_mul(((Fraction(1),),), ())
    with pytest.raises(DimensionMismatch):
        mat_mul(as_matrix([(1, 2)]), as_matrix([(1, 2)]))


def test_symmetric_signature():
    assert symmetric_signature(as_matrix([(8, 0), (0, 0)])) == (1, 0, 1)
    assert symmetric_signature(as_matrix([(-2, 0, 0), (0, -2, 0), (0, 0, -2)])) == (0, 3, 0)
    # hyperbolic plane: all-zero diagonal exercises the e_i -> e_i + e_j step
    assert symmetric_signature(as_matrix([(0, 1), (1, 0)])) == (1, 1, 0)
    assert symmetric_signature(as_matrix([(0, 0), (0, 0)])) == (0, 0, 2)


def test_restrict_bilinear_form():
    form = as_matrix([(8, 0, 0), (0, 0, 4), (0, 4, 0)])  # sl2 Killing in (H,E,F)
    s = span((1, 0, 0), (0, 1, 1))  # a + (E+F) directions
    gram = restrict_bilinear_form(form, s)
    assert gram == as_matrix([(8, 0), (0, 8)])
