"""The scalar representation: every entry the package builds is an ``int``
when integral and otherwise a ``Fraction`` with denominator > 1, never a
``float``; and ``/``, which turns two ints into a float, appears only in
the one exact-division helper."""

import ast
import random
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphlie.builders import add, scale, sl
from sphlie.catalog import catalog_entries, get_entry, run_entry
from sphlie.errors import DimensionMismatch
from sphlie.linalg import (
    SpanSolver,
    Subspace,
    lin_comb,
    mat_apply,
    mat_mul,
    rref,
)
from sphlie.orbits import exp_ad_apply
from sphlie.problem import build_pair

SRC = Path(__file__).resolve().parent.parent / "src" / "sphlie"
PROPS = settings(max_examples=40, deadline=None)

# integral Fractions such as F(2) are in range, so outputs must normalise
scalars = st.one_of(st.integers(-4, 4),
                    st.fractions(-3, 3, max_denominator=4))


def vectors(n):
    return st.lists(scalars, min_size=n, max_size=n).map(tuple)


def matrices(rows, cols):
    return st.lists(vectors(cols), min_size=rows, max_size=rows).map(tuple)


def exact(x) -> bool:
    return type(x) is int or (type(x) is F and x.denominator > 1)


def all_exact(rows) -> bool:
    return all(exact(x) for row in rows for x in row)


# -- kernels on int/Fraction inputs -------------------------------------------


@PROPS
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.integers(1, 4).flatmap(lambda m: matrices(m, n)),
                        matrices(n, 3), vectors(n))))
def test_dense_kernels_return_exact_entries(data):
    a, b, v = data
    red, _ = rref(a)
    assert all_exact(red)
    assert all_exact(mat_mul(a, b))
    assert all_exact([mat_apply(a, v)])
    assert all_exact([lin_comb(a[0], b, 3)])


G = sl(3)
# E_01, E_02, E_12: any combination of them is nilpotent
UPPER = (2, 3, 4)


@PROPS
@given(vectors(G.dim), vectors(G.dim), vectors(len(UPPER)))
def test_lie_kernels_return_exact_entries(x, y, upper):
    nil = tuple(upper[UPPER.index(i)] if i in UPPER else 0
                for i in range(G.dim))
    assert all_exact([G.bracket(x, y)])
    assert all_exact(G.ad(x))
    assert all_exact([exp_ad_apply(G, nil, y)])


@PROPS
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.integers(1, n).flatmap(lambda k: matrices(k, n)),
                        vectors(n))))
def test_span_solver_returns_exact_coordinates(data):
    rows, coeffs = data
    try:
        solver = SpanSolver(rows, len(coeffs))
    except DimensionMismatch:  # a dependent draw has no coordinates
        return
    inside = lin_comb(coeffs, rows, len(coeffs))
    assert all_exact([solver.coordinates(inside)])
    assert all_exact([solver.coordinates(coeffs) or ()])


# -- whole analyses -----------------------------------------------------------


def scalars_in(obj):
    """(inside a Subspace basis, scalar) for every number reachable from
    obj through containers, dataclasses and sphlie objects."""
    seen, stack, out = set(), [(obj, False)], []
    while stack:
        item, in_basis = stack.pop()
        if isinstance(item, (bool, str, type(None))):
            continue
        if isinstance(item, (int, float, F)):
            out.append((in_basis, item))
            continue
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, Subspace):
            stack += [(row, True) for row in item.basis]
        if isinstance(item, (tuple, list, set, frozenset)):
            stack += [(x, in_basis) for x in item]
        elif isinstance(item, dict):
            stack += [(x, False) for pair in item.items() for x in pair]
        elif type(item).__module__.startswith("sphlie"):
            attrs = dict(vars(item)) if hasattr(item, "__dict__") else {}
            if is_dataclass(item):
                attrs.update((f.name, getattr(item, f.name))
                             for f in fields(item))
            stack += [(x, False) for x in attrs.values()]
    return out


def assert_no_float(result):
    found = scalars_in(result)
    assert found
    assert not [x for _, x in found if isinstance(x, float)]
    assert all(exact(x) for in_basis, x in found if in_basis)


NAMES = sorted(entry.name for entry in catalog_entries())


@pytest.mark.parametrize("name", NAMES)
def test_catalog_analyses_hold_no_float(name):
    assert_no_float(run_entry(get_entry(name)))


def mixed(mats, seed, entries=(-1, 0, 1)):
    """A unit lower times unit upper triangular recombination of ``mats``
    with off-diagonal entries drawn from ``entries``."""
    rng = random.Random(seed)
    d = len(mats)
    low = [[1 if i == j else rng.choice(entries) if j < i else 0
            for j in range(d)] for i in range(d)]
    up = [[1 if i == j else rng.choice(entries) if j > i else 0
           for j in range(d)] for i in range(d)]
    mix = [[sum(low[i][k] * up[k][j] for k in range(d)) for j in range(d)]
           for i in range(d)]
    return tuple(add(*(scale(c, m) for c, m in zip(row, mats)))
                 for row in mix)


def remixed(problem, seed):
    """problem on a mixed basis of g: the same matrix pair, with g's basis
    moved by :func:`mixed`."""
    return replace(problem, basis=mixed(problem.basis, seed))


# these follow the positive system, which still follows g's basis
BASIS_BOUND_FIELDS = {"spherical_at_base", "needs_conjugation", "spherical",
                      "adapted_subset"}


@pytest.mark.parametrize("name", NAMES)
def test_mixed_basis_run_certifies_every_basis_free_field(name):
    """The same matrix pair on six mixed bases of g: no SphlieError (the
    torus grows from the diagonal matrices, so it has rational ad-spectrum
    whatever g's basis), and every expected field that does not follow the
    positive system holds, the normalizer split and the Weyl-candidate
    conjugations included."""
    entry = get_entry(name)
    for seed in range(6):
        moved = replace(entry, problem=remixed(entry.problem, seed))
        result = run_entry(moved)
        assert {f.split(":")[0] for f in result.failures} <= \
            BASIS_BOUND_FIELDS, (seed, result.failures)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(NAMES), st.integers(0, 2 ** 32))
def test_mixed_basis_analyses_hold_no_float(name, seed):
    entry = get_entry(name)
    assert_no_float(run_entry(
        replace(entry, problem=remixed(entry.problem, seed))))


def root_shape(problem):
    cd = build_pair(problem).cartan
    return len(cd.roots), sorted(cd.root_space(r).dim for r in cd.roots)


@pytest.mark.parametrize("seed", range(8))
def test_hinted_torus_splits_on_a_widely_mixed_basis(seed):
    # the weight stage splits by elements of a that do not depend on g's
    # basis, so their ad-eigenvalues stay small however g is mixed
    problem = get_entry("sl2x3_diag_mixed").problem
    wide = replace(problem, basis=mixed(problem.basis, seed,
                                        (-1, 0, 1, F(1, 2), -2)))
    assert root_shape(wide) == root_shape(problem)


def test_remixed_sl3_so3_builds():
    problem = get_entry("sl3_so3").problem
    assert root_shape(remixed(problem, 5)) == root_shape(problem)


# -- the division lint ---------------------------------------------------------


def divisions(tree: ast.AST, allowed: str | None) -> list[int]:
    """Lines of ``/`` and ``/=`` outside the function named ``allowed``."""
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed
              for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div) and id(node) not in exempt]


def test_only_the_exact_helper_divides():
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := divisions(ast.parse(path.read_text("utf-8")),
                                    "_div" if path.name == "linalg.py"
                                    else None))}
    assert found == {}, f"division outside linalg._div: {found}"


def test_the_division_lint_sees_a_float_division():
    tree = ast.parse("def f(t, k):\n    t[0] /= k\n    return t[1] / k\n")
    assert divisions(tree, "_div") == [2, 3]
    assert divisions(ast.parse("def _div(a, b):\n    return a / b\n"),
                     "_div") == []
