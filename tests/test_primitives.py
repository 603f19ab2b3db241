"""The three shared primitives against dense references written here.

* ``transporter`` {x in W : [x, S] ⊆ T}, and the three kernels built on it
  (``centralizer_in``, ``normalizer_in``, ``largest_ideal_within``), against
  a kernel computed from the definition: brackets from the structure
  constants, membership in T as the vanishing of every functional that
  annihilates T, and a textbook Gauss-Jordan elimination.
* ``DirectSum.components``: recombination, membership of each part, None
  outside the sum, overlap detection and zero pieces.
* ``is_direct_sum`` against the two-condition test it replaces.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matrix_helpers import dense_structure, sl2_E, sl2_F, sl2_H
from sphlie.builders import block_embed, gl, sl, so
from sphlie.catalog import catalog_entries
from sphlie.errors import DimensionMismatch
from sphlie.liealg import (
    LieAlgebra,
    centralizer_in,
    largest_ideal_within,
    transporter,
)
from sphlie.linalg import (
    DirectSum,
    canonical_basis,
    is_direct_sum,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
)
from sphlie.normalizer import normalizer_in
from sphlie.problem import build_pair

# -- dense references ---------------------------------------------------------


def dense_rref(rows):
    """Textbook Gauss-Jordan; the nonzero reduced rows as tuples."""
    work = [[F(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    top = 0
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
        top += 1
    return [tuple(r) for r in work[:top]]


def dense_kernel(rows, ncols):
    """Basis of {c : row . c = 0 for every row}."""
    red = dense_rref(rows)
    pivots = [next(j for j, x in enumerate(r) if x != 0) for r in red]
    out = []
    for free in (j for j in range(ncols) if j not in pivots):
        c = [F(0)] * ncols
        c[free] = F(1)
        for r, p in zip(red, pivots):
            c[p] = -r[free]
        out.append(c)
    return out


def dense_bracket(g, x, y):
    """sum_ij x_i y_j [e_i, e_j] from the structure constants."""
    out = [F(0)] * g.dim
    structure = dense_structure(g)
    for i in range(g.dim):
        for j in range(g.dim):
            if x[i] and y[j]:
                for k, c in enumerate(structure[i][j]):
                    out[k] += x[i] * y[j] * c
    return out


def dense_transporter(g, s_rows, t_rows, w_rows):
    """RREF basis of {x in span(w_rows) : [x, s] in span(t_rows) for every
    s in s_rows}, from the definition."""
    d = g.dim
    annihilator = dense_kernel(t_rows, d) if t_rows else [
        [F(int(i == j)) for j in range(d)] for i in range(d)]
    rows = []
    for s in s_rows:
        brackets = [dense_bracket(g, w, s) for w in w_rows]
        for phi in annihilator:
            rows.append([sum((p * b for p, b in zip(phi, br)), F(0))
                         for br in brackets])
    coeffs = dense_kernel(rows, len(w_rows))
    return dense_rref([[sum((c[m] * w_rows[m][k] for m in range(len(w_rows))),
                            F(0)) for k in range(d)] for c in coeffs])


def dense_largest_ideal(g, h_rows):
    units = [[F(int(i == j)) for j in range(g.dim)] for i in range(g.dim)]
    current = dense_rref(h_rows)
    while True:
        nxt = dense_transporter(g, units, current, current) if current else []
        if nxt == current:
            return current
        current = nxt


# -- inputs -------------------------------------------------------------------

SMALL_RATIONALS = (F(0), F(0), F(1), F(-1), F(2), F(1, 2))


def random_vector(rng, d, density=0.3):
    return tuple(rng.choice(SMALL_RATIONALS[2:]) if rng.random() < density
                 else F(0) for _ in range(d))


def random_subspace(rng, d, max_gens=3):
    return canonical_basis(
        [random_vector(rng, d) for _ in range(rng.randint(0, max_gens))], d)


def random_subalgebra(rng, g):
    """The subalgebra generated by one or two sparse random elements."""
    s = canonical_basis([random_vector(rng, g.dim, 0.2)
                         for _ in range(rng.randint(1, 2))], g.dim)
    while True:
        grown = canonical_basis(
            list(s.basis) + [g.bracket(u, v) for u in s.basis
                             for v in s.basis], g.dim)
        if grown == s:
            return s
        s = grown


def algebras_with_subalgebras():
    """(label, g, subalgebras): sl/so/gl(n <= 4) with random subalgebras,
    and every catalog algebra with its h and random subalgebras."""
    rng = random.Random(5)
    out = []
    for make, n in ((sl, 2), (sl, 3), (sl, 4), (so, 3), (so, 4), (gl, 2),
                    (gl, 3), (gl, 4)):
        g = make(n)
        out.append((f"{make.__name__}{n}", g,
                    [random_subalgebra(rng, g) for _ in range(3)]))
    for entry in sorted(catalog_entries(), key=lambda e: e.name):
        pair = build_pair(entry.problem)
        g = pair.algebra
        out.append((entry.name, g,
                    [pair.h] + [random_subalgebra(rng, g) for _ in range(2)]))
    return out


CASES = algebras_with_subalgebras()
IDS = [label for label, _, _ in CASES]


def rows(s):
    return [list(v) for v in s.basis]


# -- transporter and the kernels built on it ----------------------------------


@pytest.mark.parametrize("label,g,subs", CASES, ids=IDS)
def test_transporter_matches_the_definition(label, g, subs):
    rng = random.Random(label)
    for _ in range(4):
        s, t, w = (random_subspace(rng, g.dim) for _ in range(3))
        for within in (w, None):
            w_rows = rows(within) if within is not None else rows(
                g.full_space())
            want = dense_transporter(g, rows(s), rows(t), w_rows)
            assert list(transporter(g, s, t, within).basis) == want


@pytest.mark.parametrize("label,g,subs", CASES, ids=IDS)
def test_centralizer_and_normalizer_match_the_definition(label, g, subs):
    full = rows(g.full_space())
    for h in subs:
        assert list(centralizer_in(g, h).basis) == dense_transporter(
            g, rows(h), [], full)
        assert list(centralizer_in(g, h, within=h).basis) == \
            dense_transporter(g, rows(h), [], rows(h))
        assert list(normalizer_in(g, h).basis) == dense_transporter(
            g, rows(h), rows(h), full)


@pytest.mark.parametrize("label,g,subs", CASES, ids=IDS)
def test_largest_ideal_within_matches_the_definition(label, g, subs):
    for h in subs:
        got = largest_ideal_within(g, h)
        assert list(got.basis) == dense_largest_ideal(g, rows(h))
        assert got.is_contained_in(h)
        assert all(got.contains(g.bracket(x, e)) for x in got.basis
                   for e in g.full_space().basis)


def test_largest_ideal_of_a_factor_plus_a_torus_line():
    sl2x2 = [block_embed(m, 4, off) for off in (0, 2)
             for m in (sl2_H(), sl2_E(), sl2_F())]
    g = LieAlgebra(sl2x2)
    first = g.span_of_matrices(sl2x2[:3])
    h = g.span_of_matrices(sl2x2[:3] + [sl2x2[3]])
    assert largest_ideal_within(g, h) == first


def test_largest_ideal_in_a_proper_subalgebra_of_a_simple_algebra_is_zero():
    g = sl(3)
    for h in (g.span_of_matrices([[[1, 0, 0], [0, -1, 0], [0, 0, 0]],
                                  [[0, 1, 0], [0, 0, 0], [0, 0, 0]]]),
              random_subalgebra(random.Random(1), g)):
        if h != g.full_space():
            assert largest_ideal_within(g, h) == g.zero_space()
    assert largest_ideal_within(g, g.full_space()) == g.full_space()


# -- DirectSum ----------------------------------------------------------------

PROPS = settings(max_examples=80, deadline=None)
entries = st.sampled_from(SMALL_RATIONALS)


@st.composite
def pieces_and_vector(draw):
    n = draw(st.integers(1, 5))
    vec = st.tuples(*[entries] * n)
    pieces = [canonical_basis(draw(st.lists(vec, max_size=3)), n)
              for _ in range(draw(st.integers(1, 3)))]
    coeffs = [draw(st.lists(entries, min_size=p.dim, max_size=p.dim))
              for p in pieces]
    extra = draw(st.one_of(st.just((F(0),) * n), vec))
    return n, pieces, coeffs, extra


@PROPS
@given(pieces_and_vector())
def test_direct_sum_components_split_and_recombine(data):
    n, pieces, coeffs, extra = data
    stacked = [list(v) for p in pieces for v in p.basis]
    if len(dense_rref(stacked)) < len(stacked):
        with pytest.raises(DimensionMismatch):
            DirectSum(pieces)
        return
    split = DirectSum(pieces)
    inside = [sum((c * v[k] for cs, p in zip(coeffs, pieces)
                   for c, v in zip(cs, p.basis)), F(0)) for k in range(n)]
    v = tuple(a + b for a, b in zip(inside, extra))
    parts = split.components(v)
    in_sum = len(dense_rref(stacked + [list(v)])) == len(dense_rref(stacked))
    if not in_sum:
        assert parts is None
        return
    assert len(parts) == len(pieces)
    assert tuple(sum(col, F(0)) for col in zip(*parts)) == v
    for part, p in zip(parts, pieces):
        assert len(dense_rref(rows(p) + [list(part)])) == p.dim
    if extra == (F(0),) * n:
        for part, cs, p in zip(parts, coeffs, pieces):
            assert list(part) == [sum((c * b[k] for c, b in zip(cs, p.basis)),
                                      F(0)) for k in range(n)]


def test_direct_sum_with_zero_pieces():
    n = 3
    zero = zero_subspace(n)
    line = canonical_basis([(1, 2, 0)])
    split = DirectSum([zero, line, zero])
    v = (F(2), F(4), F(0))
    assert split.components(v) == [(F(0),) * n, v, (F(0),) * n]
    assert split.components((F(0), F(0), F(1))) is None
    assert DirectSum([zero]).components((F(0),) * n) == [(F(0),) * n]
    assert DirectSum([zero]).components((F(1), F(0), F(0))) is None


def test_direct_sum_rejects_overlap_and_mixed_ambients():
    a = canonical_basis([(1, 0, 0), (0, 1, 0)])
    b = canonical_basis([(1, 1, 0)])
    with pytest.raises(DimensionMismatch):
        DirectSum([a, b])
    with pytest.raises(DimensionMismatch):
        DirectSum([a, canonical_basis([(1, 1)])])


# -- is_direct_sum --------------------------------------------------------------


@PROPS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), *[st.lists(st.tuples(*[entries] * n), max_size=3)] * 3,
    st.booleans())))
# dimensions that add up around a different whole
@example((3, [(F(1), F(0), F(0))], [(F(0), F(1), F(0))],
          [(F(1), F(0), F(0)), (F(0), F(0), F(1))], False))
def test_is_direct_sum_matches_the_two_condition_form(data):
    n, a_gens, b_gens, w_gens, use_sum = data
    a, b = canonical_basis(a_gens, n), canonical_basis(b_gens, n)
    whole = subspace_sum(a, b) if use_sum else canonical_basis(w_gens, n)
    old = subspace_intersect(a, b).dim == 0 and subspace_sum(a, b) == whole
    assert is_direct_sum(whole, a, b) == old
