from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphlie.spectral as spectral
from matrix_helpers import mat_invert
from sphlie.builders import sl
from sphlie.errors import SpectrumError
from sphlie.linalg import (
    as_matrix,
    canonical_basis,
    full_subspace,
    kernel,
    mat_apply,
    mat_mul,
    subspace_intersect,
    unit_vector,
)
from sphlie.spectral import (
    eigen_split,
    rational_roots,
    restriction_matrix,
    vector_minimal_polynomial,
)

F = Fraction


def test_rational_roots_simple():
    # x^2 - 4 -> {-2, 2}
    assert rational_roots([F(-4), F(0), F(1)]) == [F(-2), F(2)]
    # x^3 - x -> {-1, 0, 1}
    assert rational_roots([F(0), F(-1), F(0), F(1)]) == [F(-1), F(0), F(1)]
    # 2x - 1 as monicized x - 1/2
    assert rational_roots([F(-1), F(2)]) == [F(1, 2)]


def test_rational_roots_rejects_repeated():
    # (x-1)^2, and x^2 (x-1), whose repeated root is 0
    for p in ([F(1), F(-2), F(1)], [F(0), F(0), F(-1), F(1)]):
        with pytest.raises(SpectrumError, match="repeated"):
            rational_roots(p)


def test_rational_roots_rejects_irrational():
    # x^2 - 2
    with pytest.raises(SpectrumError):
        rational_roots([F(-2), F(0), F(1)])


def poly_times(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


ROOT_GRID = sorted({F(n, d) for n in range(-4, 5) for d in (1, 2, 3)})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(ROOT_GRID), unique=True, max_size=4),
       st.booleans(),
       st.sampled_from([None, [F(-2), F(0), F(1)], [F(1), F(0), F(1)]]),
       st.sampled_from([F(1), F(-3), F(2, 5)]))
def test_rational_roots_are_the_distinct_roots_or_a_named_error(
        roots, repeat, quadratic, lead):
    """A product of linear factors over a grid of rationals, zero included,
    sometimes with one root repeated and sometimes times x^2 - 2 or
    x^2 + 1, at one of three leading coefficients: the sorted distinct roots come
    back exactly when the product is squarefree and splits over Q."""
    repeat = repeat and bool(roots)
    factors = [[-r, F(1)] for r in roots + roots[-1:] * repeat]
    if quadratic is not None:
        factors.append(quadratic)
    p = [lead]
    for f in factors:
        p = poly_times(p, f)
    if not repeat and quadratic is None:
        got = rational_roots(p)
        assert got == sorted(roots)
        assert all(type(r) is F for r in got)
    else:
        with pytest.raises(SpectrumError):
            rational_roots(p)


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(st.lists(RATIONALS, unique=True, min_size=1, max_size=4),
       RATIONALS.filter(bool), st.sampled_from(["split", "square", "x2+1",
                                                "x2-2"]))
def test_each_root_is_divided_out_exactly_once(roots, lead, shape):
    """c·∏(x − rᵢ) over distinct rationals gives back the sorted rᵢ; a
    squared factor is named not semisimple, and a factor x² + 1 or x² − 2
    irrational."""
    factors = [[-r, F(1)] for r in roots]
    factors += {"split": [], "square": [factors[0]],
                "x2+1": [[F(1), F(0), F(1)]],
                "x2-2": [[F(-2), F(0), F(1)]]}[shape]
    p = [lead]
    for f in factors:
        p = poly_times(p, f)
    if shape == "split":
        assert rational_roots(p) == sorted(roots)
    else:
        with pytest.raises(SpectrumError, match="not semisimple"
                           if shape == "square" else "irrational"):
            rational_roots(p)

def test_vector_minimal_polynomial():
    m = as_matrix([(0, 2, 0), (0, 0, 0), (0, 0, -2)])

    def ap(v):
        return mat_apply(m, v)

    # e2 has M e2 = 2 e1, M^2 e2 = 0 -> minimal polynomial x^2
    with pytest.raises(SpectrumError):
        rational_roots(vector_minimal_polynomial(ap, (F(0), F(1), F(0))))


def test_eigen_split_diagonalizable():
    m = as_matrix([(0, 0, 0), (0, 2, 0), (0, 0, -2)])
    split = eigen_split(m, full_subspace(3))
    assert [(lam, sp.dim) for lam, sp in split] == [(F(-2), 1), (F(0), 1), (F(2), 1)]


def test_eigen_split_on_invariant_subspace():
    m = as_matrix([(1, 1, 0), (0, 1, 0), (0, 0, 3)])
    sub = canonical_basis([(0, 0, 1)], 3)
    assert eigen_split(m, sub) == [(F(3), sub)]


def test_restriction_not_invariant():
    m = as_matrix([(0, 1), (1, 0)])
    sub = canonical_basis([(1, 0)], 2)
    with pytest.raises(SpectrumError):
        restriction_matrix(m, sub)


def test_eigen_split_rejects_jordan_block():
    m = as_matrix([(1, 1), (0, 1)])
    with pytest.raises(SpectrumError):
        eigen_split(m, full_subspace(2))


# a fixed unit upper triangular P; conjugating by it leaves the operator
# diagonalizable but not diagonal, so eigen_split takes the Krylov path
P8 = tuple(tuple(1 if j == i else (-1) ** j if j == i + 1 else
                 2 if j == i + 3 else 0 for j in range(8)) for i in range(8))


def test_eigen_split_computes_each_kernel_once(monkeypatch):
    # P ad(H1) P^-1 on sl3 has the five eigenvalues -2, -1, 0, 1, 2; each
    # eigenvalue's kernel is computed once.
    g = sl(3)
    op = mat_mul(mat_mul(P8, g.ad(unit_vector(g.dim, 0))), mat_invert(P8))
    calls = []
    real = spectral.kernel
    monkeypatch.setattr(spectral, "kernel",
                        lambda rows, n: calls.append(n) or real(rows, n))
    split = eigen_split(op, g.full_space())
    assert [lam for lam, _ in split] == [F(-2), F(-1), F(0), F(1), F(2)]
    assert [sp.dim for _, sp in split] == [1, 2, 2, 2, 1]
    assert len(calls) == 5


def reference_split(op, sub, candidates):
    """Reference: sub ∩ ker(op - lam) for each candidate eigenvalue, from
    one kernel of the whole operator each."""
    n = len(op)
    out = []
    for lam in sorted(set(candidates)):
        shifted = [[op[i][j] - (lam if i == j else 0) for j in range(n)]
                   for i in range(n)]
        space = subspace_intersect(sub, kernel(shifted, n))
        if space.dim:
            out.append((lam, space))
    return out


def is_diagonal(m):
    return all(not x for i, row in enumerate(m) for j, x in enumerate(row)
               if i != j)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from((0, 1, -1, 2, F(1, 2), F(-3, 2))),
             min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.lists(st.sampled_from((0, 0, 1, -1, 2, F(1, 3))),
             min_size=n * n, max_size=n * n),
    st.booleans())))
def test_eigen_split_matches_the_kernel_reference(data):
    # diagonal D on a coordinate subspace, or P D P^-1 on its image under a
    # unit lower times unit upper triangular P
    diag, keep, mix, conjugate = data
    n = len(diag)
    d = tuple(tuple(diag[i] if i == j else 0 for j in range(n))
              for i in range(n))
    coords = [unit_vector(n, i) for i in range(n) if keep[i]]
    op, sub = d, canonical_basis(coords, n)
    if conjugate:
        low, up = (tuple(tuple(1 if i == j else mix[i * n + j] if side(i, j)
                               else 0 for j in range(n)) for i in range(n))
                   for side in (int.__gt__, int.__lt__))
        p = mat_mul(low, up)
        op = mat_mul(mat_mul(p, d), mat_invert(p))
        sub = canonical_basis([mat_apply(p, v) for v in coords], n)
    calls = []
    real = spectral.vector_minimal_polynomial
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "vector_minimal_polynomial",
                   lambda *args: calls.append(1) or real(*args))
        split = eigen_split(op, sub)
    assert split == reference_split(op, sub, diag)
    assert all(type(lam) is F for lam, _ in split)
    diagonal = sub.dim == 0 or is_diagonal(restriction_matrix(op, sub))
    assert (not calls) == diagonal


def resolving_minimal_polynomial(apply_op, v):
    """Reference: solve the whole Krylov list afresh at every step."""
    from sphlie.linalg import SpanSolver

    krylov, cur = [], v
    while True:
        sol = SpanSolver(krylov, len(v)).coordinates(cur)
        if sol is not None:
            return [-c for c in sol] + [F(1)]
        krylov.append(cur)
        cur = apply_op(cur)


def test_vector_minimal_polynomial_matches_the_resolving_reference(monkeypatch):
    import random

    import sphlie.linalg as linalg
    from sphlie.errors import DimensionMismatch
    from sphlie.linalg import mat_mul

    rng = random.Random(3)
    small = (F(0), F(0), F(1), F(-1), F(2), F(1, 3))
    cases = []
    while len(cases) < 30:
        n = rng.randint(1, 6)
        p = tuple(tuple(rng.choice(small) for _ in range(n)) for _ in range(n))
        try:
            pinv = mat_invert(p)
        except DimensionMismatch:
            continue
        # semisimple with rational, often repeated, eigenvalues
        d = tuple(tuple(F(rng.randint(-2, 2)) if i == j else F(0)
                        for j in range(n)) for i in range(n))
        m = mat_mul(mat_mul(p, d), pinv)
        vecs = [tuple(rng.choice(small) for _ in range(n)) for _ in range(3)]
        cases.append((m, vecs + [unit_vector(n, 0), (F(0),) * n]))
    expected = [[resolving_minimal_polynomial(lambda x: mat_apply(m, x), v)
                 for v in vecs] for m, vecs in cases]
    eliminations = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda rows: eliminations.append(rows) or real(rows))
    got = [[vector_minimal_polynomial(lambda x: mat_apply(m, x), v)
            for v in vecs] for m, vecs in cases]
    assert got == expected
    assert any(len(p) > 3 for ps in got for p in ps)
    # one echelon form grown in place: no elimination from scratch
    assert eliminations == []
