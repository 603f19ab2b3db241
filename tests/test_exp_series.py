"""The sparse, integer-scaled exponential series against a dense reference.

``dense_exp_ad`` sums (ad X)^k y / k! over Fraction with the dense matrix
``g.ad(X)``, written out here, so a series that skips a nonzero term,
mis-scales a partial sum or divides wrongly shows up as a mismatch.
Algebras are the catalog's on their own bases, with int structure
constants, and on mixed bases (``test_exact_scalars.mixed`` with entries
½ and −2), whose structure constants are Fractions.  Elements are drawn
from the nilradical n of the minimal parabolic, which acts nilpotently.
"""

from dataclasses import replace
from fractions import Fraction as F
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphlie.catalog import catalog_entries
from sphlie.errors import DimensionMismatch, NotNilpotent
from sphlie.linalg import canonical_basis, lin_comb, vec_scale
from sphlie.liealg import LieAlgebra
import sphlie.orbits as orbits
from sphlie.orbits import (
    _COEFF_POOL,
    _draw,
    _draw_indices,
    _exponent,
    _pool_exponent,
    _prepared_basis,
    exp_ad_apply,
    orbit_identity_check,
    random_u_element,
)
from sphlie.parabolic import standard_parabolic
from sphlie.problem import build_pair
from sphlie.spherical import GroupWord
from test_exact_scalars import exact, mixed, remixed

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


@PROPS
@given(st.sampled_from(NAMES), st.sampled_from(SEEDS), st.data())
def test_sparse_combination_gives_the_dense_exponent(name, seed, data):
    # orbit_identity_check builds each drawn U from u's basis, prepared
    # once as ints over one denominator; the ints and the denominator must
    # be those of the dense U, so every sample computes exactly what the
    # dense path would
    g, n, _, _ = algebra(name, seed)
    ks = data.draw(st.lists(st.integers(0, len(_COEFF_POOL) - 1),
                            min_size=len(n), max_size=len(n)))
    coeffs = [_COEFF_POOL[k] for k in ks]
    assert _pool_exponent(g, _prepared_basis(g, n), ks) == _exponent(
        g, lin_comb(coeffs, n, g.dim))


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


def replayed_check(dp, samples, seed, draws=None):
    """orbit_identity_check replayed with the dense series and the public
    membership test: (ok, samples_run, witness).  Each drawn U, memo or
    not, is checked; ``draws`` collects them."""
    rng = Random(seed)
    for i in range(samples):
        u = random_u_element(dp, rng)
        if draws is not None:
            draws.append(u)
        moved = dense_exp_ad(dp.algebra, u, dp.x0)
        if not dp.bracket_image.contains(
                tuple(a - b for a, b in zip(moved, dp.x0))):
            return False, i + 1, u
    return True, samples, None


def parabolic_pairs():
    for name in NAMES:
        problems = [pair(name).cartan]
        for seed in (0, 3):
            entry = next(e for e in catalog_entries() if e.name == name)
            problems.append(build_pair(remixed(entry.problem, seed)).cartan)
        for cd in problems:
            yield name, cd


def outcome(report):
    return report.ok, report.samples_run, report.witness


@pytest.fixture
def exponents(monkeypatch):
    """The exponent of each e^{ad U} series orbit_identity_check runs."""
    seen = []
    real = orbits._exp_ad_series

    def recorded(g, x, y, den):
        seen.append(x)
        return real(g, x, y, den)

    monkeypatch.setattr(orbits, "_exp_ad_series", recorded)
    return seen


def checked_once(dp, draws, samples):
    """The exponents of the draws a check that runs each distinct draw once
    evaluates: every draw when 10^dim u exceeds the sample count (no memo),
    else each distinct draw at its first occurrence."""
    if len(_COEFF_POOL) ** dp.u.dim <= samples:
        draws = list(dict.fromkeys(draws))
    return [_exponent(dp.algebra, u) for u in draws]


def assert_replayed(dp, samples, seed, exponents):
    draws = []
    want = replayed_check(dp, samples, seed, draws)
    exponents.clear()
    assert outcome(orbit_identity_check(dp, samples, seed)) == want
    assert exponents == checked_once(dp, draws, samples)
    return want


@pytest.mark.parametrize("name,cd", list(parabolic_pairs()))
def test_orbit_identity_check_matches_the_dense_replay(name, cd, exponents):
    # 100 samples repeat draws on the pairs with dim u <= 2, which the
    # check evaluates once each
    dp = standard_parabolic(cd, ()).derivation
    assert assert_replayed(dp, 100, 5, exponents) == (True, 100, None)
    # a hyperplane of [x0, u] in its place: the identity must fail at the
    # same sample with the same witness as the replay
    broken = replace(dp, bracket_image=canonical_basis(
        dp.bracket_image.basis[1:], dp.algebra.dim))
    assert not assert_replayed(broken, 100, 5, exponents)[0]


@pytest.mark.parametrize("name,cd", [(name, cd) for name, cd in
                                     parabolic_pairs() if cd.n.dim == 1])
def test_a_failure_after_repeated_passing_draws_matches_the_replay(
        name, cd, exponents):
    # with [x0, u] cut to 0 only U = 0 passes; find a seed whose draws
    # repeat a passing U before the first failing one
    dp = standard_parabolic(cd, ()).derivation
    broken = replace(dp, bracket_image=canonical_basis([], dp.algebra.dim))
    for seed in range(2000):
        draws = []
        replayed_check(broken, 100, seed, draws)
        if len(set(draws[:-1])) < len(draws) - 1:
            break
    else:
        pytest.fail("no seed repeats a passing draw")
    ok, samples_run, _ = assert_replayed(broken, 100, seed, exponents)
    assert not ok and samples_run >= 3


def test_index_draws_follow_the_coefficient_stream():
    # the pool drawn by value, as every earlier sampler did: drawing
    # indices must give the same values and leave Random in the same state
    dp = standard_parabolic(pair("sl3_so3").cartan, ()).derivation
    for seed in (0, 1, 5, 99):
        by_index, by_value = Random(seed), Random(seed)
        for n in range(50):
            want = [by_value.choice(_COEFF_POOL) for _ in dp.u.basis]
            if n % 2:
                assert _draw(dp, by_index) == want
            else:
                ks = _draw_indices(dp, by_index)
                assert [_COEFF_POOL[k] for k in ks] == want
            assert by_index.getstate() == by_value.getstate()


@pytest.mark.parametrize("name,samples,most", [
    ("so3_so2", 100, 1),       # u = 0: one possible U
    ("sl2_so2", 100, 10),      # dim u = 1: 10 possible U
    ("sl2_so2", 9, 9),         # a grid of 10 > 9 samples: no memo
    ("sl3_so3", 100, 100),     # dim u = 3: grid of 1000 > 100, no memo
    ("sl3_so3", 0, 0),
])
def test_each_distinct_draw_runs_one_series(monkeypatch, exponents, name,
                                            samples, most):
    memos, draws = [], []
    monkeypatch.setattr(orbits, "bytearray", lambda n: memos.append(n) or
                        bytearray(n), raising=False)
    monkeypatch.setattr(orbits, "_draw_indices", lambda dp, rng: draws.append(
        1) or _draw_indices(dp, rng))
    dp = standard_parabolic(pair(name).cartan, ()).derivation
    report = orbit_identity_check(dp, samples, 3)
    assert (report.ok, report.samples_run) == (True, samples)
    grid = len(_COEFF_POOL) ** dp.u.dim
    assert len(memos) == (grid <= samples)
    assert all(n <= samples for n in memos)
    if grid <= samples:
        assert 1 <= len(exponents) <= most
    else:
        assert len(exponents) == most == samples
    # once every point of the grid has passed, drawing stops
    assert len(draws) < samples if len(exponents) == grid else \
        len(draws) == samples
    if grid == 1:
        assert len(draws) == 1
