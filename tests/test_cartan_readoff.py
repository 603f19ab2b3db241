"""The Cartan stage against dense references written here.

* Structure constants and ``from_matrix``, read off pivots in the package,
  against one dense Gauss-Jordan elimination of each basis and all its
  commutators over ``Fraction``, on sparse bases (whose disjoint supports
  the package skips) and on dense remixed catalog and ladder bases.
* The weight and ordering stages, which read a diagonal ad off and order
  the roots in ints, against the per-element ``eigen_split`` refinement and
  ``Fraction`` arithmetic: on every catalog entry, on the hinted entries
  with their signs flipped, and on mixed bases of g.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from sphlie import liealg
from sphlie.builders import direct_sum_basis, gl_basis, sl_basis, so_basis
from sphlie.catalog import catalog_entries, get_entry
from sphlie.errors import CertificationError, NotClosed
from sphlie.liealg import (
    LieAlgebra,
    _root_decomposition,
    cartan_data,
    cartan_decompose,
    maximal_abelian,
)
from sphlie.linalg import (
    canonical_basis,
    identity_matrix,
    lin_comb,
    mat_unflatten,
    subspace_sum,
)
from sphlie.problem import build_pair, positivity_from_hint
from sphlie.spectral import eigen_split
from test_enumeration import ladder_problems
from test_exact_scalars import exact, mixed, remixed

HALVES = (-1, 0, 1, Fraction(1, 2), -2)


def flat(m) -> list:
    return [x for row in m for x in row]


def dense_commutator(x, y) -> list:
    n = len(x)
    return [[sum(x[r][k] * y[k][c] - y[r][k] * x[k][c] for k in range(n))
             for c in range(n)] for r in range(n)]


def dense_solve(columns, targets) -> list:
    """Per target, its coefficients in the independent ``columns``, or None
    when it is outside their span: one Gauss-Jordan elimination of the
    dense matrix [columns | targets] over Fraction."""
    m, d = len(columns[0]), len(columns)
    rows = [[Fraction(c[r]) for c in columns] + [Fraction(t[r]) for t in targets]
            for r in range(m)]
    for col in range(d):
        sel = next(r for r in range(col, m) if rows[r][col])
        rows[col], rows[sel] = rows[sel], rows[col]
        piv = rows[col][col]
        rows[col] = [x / piv for x in rows[col]]
        for r in range(m):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [None if any(rows[r][d + t] for r in range(d, m))
            else tuple(rows[r][d + t] for r in range(d))
            for t in range(len(targets))]


def reference_terms(basis) -> dict:
    """(i, j) -> the nonzero (k, c) of [b_i, b_j] = sum_k c b_k, i < j."""
    d = len(basis)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    sols = dense_solve([flat(b) for b in basis],
                       [flat(dense_commutator(basis[i], basis[j]))
                        for i, j in pairs])
    return {ij: [(k, c) for k, c in enumerate(sol) if c]
            for ij, sol in zip(pairs, sols)}


def assert_table_matches(g: LieAlgebra, basis) -> None:
    for (i, j), terms in reference_terms(basis).items():
        assert g._terms[i][j] == terms, (i, j)
        assert g._terms[j][i] == [(k, -c) for k, c in terms], (j, i)
        assert all(exact(c) for _, c in g._terms[i][j])
    assert all(g._terms[i][i] == [] for i in range(len(basis)))


BASES = {
    **{f"sl{n}": sl_basis(n) for n in range(2, 6)},
    **{f"so{n}": so_basis(n) for n in range(3, 6)},
    **{f"gl{n}": gl_basis(n) for n in range(2, 6)},
    **{f"sl{n}_mixed{s}": mixed(sl_basis(n), s, HALVES)
       for n in (2, 3, 4) for s in (0, 1)},
    "so4_mixed": mixed(so_basis(4), 2, HALVES),
    "gl3_mixed": mixed(gl_basis(3), 3, HALVES),
    "sl2x2_so3": direct_sum_basis([sl_basis(2), sl_basis(2), so_basis(3)]),
    "sl2x6": direct_sum_basis([sl_basis(2)] * 6),
    **{f"catalog_{e.name}": e.problem.basis for e in catalog_entries()},
    **{f"catalog_{e.name}_remixed{s}": remixed(e.problem, s).basis
       for e in catalog_entries() for s in (0, 1)},
    **{f"ladder_{p.name}_remixed0": remixed(p, 0).basis
       for p in ladder_problems()},
}


@pytest.mark.parametrize("name", sorted(BASES))
def test_structure_constants_match_a_dense_solve(name):
    basis = BASES[name]
    assert_table_matches(LieAlgebra(basis), basis)


@pytest.mark.parametrize("name", sorted(BASES))
def test_from_matrix_matches_a_dense_solve(name):
    basis = BASES[name]
    g = LieAlgebra(basis)
    n, d = len(basis[0]), len(basis)
    coeffs = [[Fraction((3 * i + 5 * k) % 7 - 3, 1 + (i + k) % 3)
               for i in range(d)] for k in range(3)]
    inside = [mat_unflatten(lin_comb(c, [flat(b) for b in basis], n * n), n)
              for c in coeffs]
    outside = [tuple(tuple(1 if r == c == 0 else 0 for c in range(n))
                     for r in range(n)),
               tuple(tuple(Fraction(r + 2 * c, 3) for c in range(n))
                     for r in range(n))]
    mats = inside + outside + list(basis)
    expected = dense_solve([flat(b) for b in basis], [flat(m) for m in mats])
    for m, want in zip(mats, expected):
        got = g.from_matrix(m)
        assert got == want
        assert got is None or all(exact(x) for x in got)
    assert [g.from_matrix(m) for m in inside] == [tuple(c) for c in coeffs]


def test_only_brackets_of_meeting_supports_are_formed(monkeypatch):
    """In the block-diagonal sl(2)^6 basis b_i b_j = b_j b_i = 0 unless b_i
    and b_j share a block, so 6 * 3 = 18 of the 153 commutators are formed,
    and the table still matches the dense reference."""
    formed = []
    real = liealg._flat_commutator
    monkeypatch.setattr(liealg, "_flat_commutator",
                        lambda x, y, n: formed.append(1) or real(x, y, n))
    basis = BASES["sl2x6"]
    g = LieAlgebra(basis)
    assert len(formed) == 18
    assert_table_matches(g, basis)


E12 = ((0, 1), (0, 0))
E21 = ((0, 0), (1, 0))


def unit(n, r, c):
    return tuple(tuple(int((i, j) == (r, c)) for j in range(n))
                 for i in range(n))


@pytest.mark.parametrize("basis, message", [
    ([E12, E21], "bracket of basis elements 0 and 1 escapes the span"),
    (sl_basis(3)[:-1], "bracket of basis elements 2 and 6 escapes the span"),
    (mixed(sl_basis(3), 1, HALVES)[1:],
     "bracket of basis elements 0 and 1 escapes the span"),
    (so_basis(4)[:2] + so_basis(4)[3:],
     "bracket of basis elements 0 and 3 escapes the span"),
    # (0, 1) is skipped, as no support meets; E12 E23 = E13 escapes
    ([unit(4, 0, 1), unit(4, 2, 3), unit(4, 1, 2)],
     "bracket of basis elements 0 and 2 escapes the span"),
])
def test_a_basis_that_is_not_closed_names_the_first_pair(basis, message):
    with pytest.raises(NotClosed) as err:
        LieAlgebra(basis)
    assert str(err.value) == message


# -- weight and ordering stages ----------------------------------------------


def reference_order(cd) -> dict:
    """The fields of ``cd`` recomputed from its a, positivity and algebra:
    the joint eigenspaces by the per-element eigen_split refinement, each
    root read as Fractions, the ordering in Fraction arithmetic."""
    g, a = cd.algebra, cd.a
    nn = g.matrix_size ** 2
    splitters = canonical_basis([lin_comb(h, g._flat, nn) for h in a.basis],
                                nn)
    pieces = [g.full_space()]
    for f in splitters.basis:
        adh = g.ad(g.from_matrix(mat_unflatten(f, g.matrix_size)))
        pieces = [eig for sub in pieces for _, eig in eigen_split(adh, sub)]
    weights = {}
    for sp in pieces:
        v, p = sp.basis[0], sp.pivots[0]
        weights[tuple(Fraction(g.bracket(h, v)[p]) for h in a.basis)] = sp
    zero = weights.pop((Fraction(0),) * a.dim)
    roots = sorted(weights)
    pos_coords = [a.coordinates_of(v) for v in cd.positivity]

    def positive(r) -> bool:
        for coords in pos_coords:
            x = sum((Fraction(c) * y for c, y in zip(coords, r)), Fraction(0))
            if x:
                return x > 0
        return False

    positives = [r for r in roots if positive(r)]
    posset = set(positives)
    simples = sorted(r for r in positives
                     if not any(tuple(x - y for x, y in zip(r, b)) in posset
                                for b in positives))
    n = canonical_basis([v for r in positives for v in weights[r].basis],
                        g.dim)
    return {
        "roots": tuple(roots),
        "spaces": tuple(weights[r] for r in roots),
        "zero_space": zero,
        "positive_roots": tuple(positives),
        "simple_roots": tuple(simples),
        "simple_coordinates": tuple(dense_solve(simples, positives)
                                    if simples else [() for _ in positives]),
        "n": n,
        "p": subspace_sum(zero, n),
    }


def assert_matches_reference(cd) -> None:
    want = reference_order(cd)
    assert cd.roots == want["roots"]
    assert all(type(x) is Fraction for r in cd.roots for x in r)
    assert tuple(cd.root_space(r) for r in cd.roots) == want["spaces"]
    assert cd.zero_space == want["zero_space"]
    assert cd.positive_roots == want["positive_roots"]
    assert cd.simple_roots == want["simple_roots"]
    assert all(type(x) is Fraction
               for r in cd.positive_roots + cd.simple_roots for x in r)
    assert cd.simple_coordinates == want["simple_coordinates"]
    assert all(exact(c) for sol in cd.simple_coordinates for c in sol)
    assert cd.n == want["n"]
    assert cd.p == want["p"]


def catalog_problems():
    """(id, problem): every catalog entry, each hinted one with its signs
    flipped, and two mixed bases of each."""
    out = []
    for entry in catalog_entries():
        p = entry.problem
        out.append((entry.name, p))
        if p.minimal_parabolic_hint is not None:
            out.append((f"{entry.name}-flipped", replace(
                p, minimal_parabolic_hint=tuple(
                    -s for s in p.minimal_parabolic_hint))))
        out += [(f"{entry.name}-mixed{seed}", remixed(p, seed))
                for seed in (0, 1)]
    return out


CATALOG_PROBLEMS = catalog_problems()


@pytest.mark.parametrize("problem", [p for _, p in CATALOG_PROBLEMS],
                         ids=[name for name, _ in CATALOG_PROBLEMS])
def test_weights_and_order_match_the_fraction_reference(problem):
    assert_matches_reference(build_pair(problem).cartan)


def counting_eigen_split(monkeypatch) -> list:
    calls = []
    real = liealg.eigen_split
    monkeypatch.setattr(liealg, "eigen_split",
                        lambda op, sub: calls.append(sub) or real(op, sub))
    return calls


def test_ladder_weights_are_read_off_without_eigen_split(monkeypatch):
    """ad of the torus is diagonal on g's basis for sl(4)/so(4), sl(5)/so(5)
    and the hinted sl(2)^6: no eigen_split runs."""
    calls = counting_eigen_split(monkeypatch)
    sl2x6 = LieAlgebra(direct_sum_basis([sl_basis(2)] * 6))
    cds = [cartan_data(LieAlgebra(sl_basis(4))),
           cartan_data(LieAlgebra(sl_basis(5))),
           positivity_from_hint(sl2x6, None, (1, -1, 1, -1, 1, -1))]
    assert calls == []
    for cd in cds:
        assert_matches_reference(cd)


def test_a_torus_not_diagonal_on_the_basis_still_refines(monkeypatch):
    calls = counting_eigen_split(monkeypatch)
    cd = build_pair(remixed(get_entry("sl3_so3").problem, 0)).cartan
    assert calls
    assert_matches_reference(cd)


def test_a_theta_that_keeps_root_spaces_is_refused():
    """Equal dimensions alone do not pass: with theta = 1 in place of the
    Cartan involution, g_alpha and g_-alpha agree in dimension, but theta
    does not map one into the other."""
    g = LieAlgebra(sl_basis(3))
    th, k, s = cartan_decompose(g)
    a = maximal_abelian(g, s)
    with pytest.raises(CertificationError,
                       match="theta does not map the root space of"):
        _root_decomposition(g, a, a.basis, identity_matrix(g.dim), k, s)
