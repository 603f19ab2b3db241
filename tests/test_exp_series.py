"""The sparse, integer-scaled exponential series against a dense reference.

``dense_exp_ad`` sums (ad X)^k y / k! over Fraction with the dense matrix
``g.ad(X)``, written out here, so a series that skips a nonzero term,
mis-scales a partial sum or divides wrongly shows up as a mismatch.
Algebras are the catalog's on their own bases, with int structure
constants, and on mixed bases (``test_exact_scalars.mixed`` with entries
½ and −2), whose structure constants are Fractions.  Elements are drawn
from the nilradical n of the minimal parabolic, which acts nilpotently.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphlie.catalog import catalog_entries
from sphlie.errors import DimensionMismatch, NotNilpotent
from sphlie.linalg import vec_scale
from sphlie.liealg import LieAlgebra
from sphlie.orbits import exp_ad_apply
from sphlie.problem import build_pair
from sphlie.spherical import GroupWord
from test_exact_scalars import exact, mixed

PROPS = settings(max_examples=40, deadline=None)
HALVES = (-1, 0, 1, F(1, 2), -2)
scalars = st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                    st.fractions(-2, 2, max_denominator=3))


def dense_exp_ad(g, x, y):
    ad = g.ad(x)
    total = [F(a) for a in y]
    term = list(total)
    for k in range(1, g.dim + 1):
        term = [sum((row[j] * term[j] for j in range(g.dim)), F(0)) / k
                for row in ad]
        if not any(term):
            return tuple(total)
        total = [a + b for a, b in zip(total, term)]
    raise AssertionError("ad x is not nilpotent on y")


@lru_cache(maxsize=None)
def pair(name):
    return build_pair(next(e for e in catalog_entries()
                           if e.name == name).problem)


NAMES = sorted(e.name for e in catalog_entries()
               if pair(e.name).cartan.n.dim > 0)
# each mixing seed gives every entry Fraction structure constants
SEEDS = (None, 0, 1, 4)


@lru_cache(maxsize=None)
def algebra(name, seed):
    """(g, n's basis, H in a, a root vector y with [H, y] ≠ 0), on the
    catalog basis for seed None and on a mixed basis otherwise."""
    cd = pair(name).cartan
    g = cd.algebra
    root = next(r for r in sorted(cd.roots) if r[0] != 0)
    vecs = [*cd.n.basis, cd.a.basis[0], cd.root_space(root).basis[0]]
    if seed is not None:
        mixed_g = LieAlgebra(mixed(g.basis, seed, HALVES))
        vecs = [mixed_g.from_matrix(g.to_matrix(v)) for v in vecs]
        g = mixed_g
    return g, tuple(vecs[:-2]), vecs[-2], vecs[-1]


@pytest.mark.parametrize("seed", SEEDS[1:])
def test_mixed_bases_have_fraction_structure_constants(seed):
    for name in NAMES:
        g = algebra(name, seed)[0]
        assert any(type(c) is F for ti in g._terms for tij in ti
                   for _, c in tij)


def combination(draw, basis, dim):
    coeffs = draw(st.lists(scalars, min_size=len(basis),
                           max_size=len(basis)))
    out = [F(0)] * dim
    for c, v in zip(coeffs, basis):
        for k, a in enumerate(v):
            out[k] += c * a
    # integral entries as Fraction(k, 1): the series must normalise them
    return tuple(out)


@PROPS
@given(st.sampled_from(NAMES), st.sampled_from(SEEDS), st.data())
def test_exp_ad_apply_matches_the_dense_series(name, seed, data):
    g, n, _, _ = algebra(name, seed)
    x = combination(data.draw, n, g.dim)
    y = data.draw(st.lists(scalars, min_size=g.dim, max_size=g.dim))
    got = exp_ad_apply(g, x, tuple(y))
    assert got == dense_exp_ad(g, x, y)
    assert all(exact(a) for a in got)


@PROPS
@given(st.sampled_from(NAMES), st.sampled_from(SEEDS), st.data())
def test_group_word_ad_matches_the_composed_dense_series(name, seed, data):
    g, n, _, _ = algebra(name, seed)
    factors = tuple(combination(data.draw, n, g.dim)
                    for _ in range(data.draw(st.integers(0, 3))))
    y = tuple(data.draw(st.lists(scalars, min_size=g.dim, max_size=g.dim)))
    want = y
    for x in reversed(factors):
        want = dense_exp_ad(g, x, want)
    word = GroupWord(g, factors)
    got = word.ad(y)
    assert got == tuple(want)
    assert all(exact(a) for a in got)
    assert word.inverse.ad(got) == tuple(y)
    # the inverse is the word of the negated factors in reverse order
    negated = tuple(vec_scale(-1, x) for x in reversed(factors))
    assert word.inverse.factors == negated
    assert word.inverse._exponents == GroupWord(g, negated)._exponents


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", NAMES)
def test_series_errors(name, seed):
    g, n, h, y = algebra(name, seed)
    x = n[0]
    for bad_x, bad_y in ((x, y + (0,)), (x + (0,), y), (x[:-1], y),
                         (x, y[:-1])):
        with pytest.raises(DimensionMismatch):
            exp_ad_apply(g, bad_x, bad_y)
        with pytest.raises(DimensionMismatch):
            GroupWord(g, (bad_x,)).ad(bad_y)
    # ad H scales the root vector y by a nonzero root value: no end
    with pytest.raises(NotNilpotent):
        exp_ad_apply(g, h, y)
    with pytest.raises(NotNilpotent):
        GroupWord(g, (x, h)).ad(y)
