"""Problem files: an exact, JSON-compatible input format for pairs (g, h).

Every numeric entry is an integer or a string "p/q"; floating point
literals are rejected outright, because exactness is the contract of the
whole package.  Parse errors carry the position of the offending entry,
e.g. ``basis[2][0][1]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CertificationError, ProblemFormatError
from .liealg import (
    CartanData,
    LieAlgebra,
    _noncompact_ideals,
    cartan_data,
)
from .linalg import (
    Matrix,
    Scalar,
    Vector,
    _exact,
    _null_generators,
    canonical_basis,
    is_direct_sum,
    subspace_intersect,
    vec_scale,
)
from .spherical import (
    SphericalPair,
    conjugate_search,
    is_spherical,
    spherical_pair,
)

SCHEMA_VERSION = 1

_KNOWN_KEYS = frozenset({
    "schema_version", "name", "matrix_size", "basis", "subalgebra_basis",
    "theta", "a_seed", "positivity_basis", "minimal_parabolic_hint",
})


@dataclass(frozen=True)
class Problem:
    """A parsed problem: ambient matrices for g, a spanning set for h, and
    optional Cartan/positivity data."""

    name: str
    matrix_size: int
    basis: tuple[Matrix, ...]
    subalgebra_basis: tuple[Matrix, ...]
    theta: Optional[Matrix] = None
    a_seed: Optional[tuple[Matrix, ...]] = None
    positivity_basis: Optional[tuple[Matrix, ...]] = None
    minimal_parabolic_hint: Optional[tuple[int, ...]] = None


# -- rational / matrix parsing ------------------------------------------------


def parse_rational(value, where: str) -> Scalar:
    """An int or a 'p/q' string as a Scalar: an int when integral."""
    if isinstance(value, bool):
        raise ProblemFormatError(f"{where}: expected a number, got a boolean")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        try:
            return _exact(Fraction(value))
        except (ValueError, ZeroDivisionError):
            raise ProblemFormatError(
                f"{where}: malformed rational {value!r}") from None
    raise ProblemFormatError(
        f"{where}: expected an integer or a 'p/q' string, "
        f"got {type(value).__name__}")


def parse_matrix(value, size: int, where: str) -> Matrix:
    """A size x size matrix.  A row of plain ints (not bools) passes
    through; only other rows format their entries' ``where[i][j]``."""
    if not isinstance(value, list) or len(value) != size:
        raise ProblemFormatError(
            f"{where}: expected {size} rows, got "
            + (str(len(value)) if isinstance(value, list) else
               type(value).__name__))
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != size:
            raise ProblemFormatError(
                f"{where}[{i}]: expected {size} entries, got "
                + (str(len(row)) if isinstance(row, list) else
                   type(row).__name__))
        rows.append(tuple(row) if all(type(e) is int for e in row) else
                    tuple(parse_rational(e, f"{where}[{i}][{j}]")
                          for j, e in enumerate(row)))
    return tuple(rows)


def parse_matrix_list(value, size: int, where: str,
                      allow_empty: bool = True) -> tuple[Matrix, ...]:
    if not isinstance(value, list):
        raise ProblemFormatError(f"{where}: expected a list of matrices")
    if not value and not allow_empty:
        raise ProblemFormatError(f"{where}: must not be empty")
    return tuple(parse_matrix(m, size, f"{where}[{k}]")
                 for k, m in enumerate(value))


def _reject_float(text: str) -> Fraction:
    raise ProblemFormatError(
        f"floating point literal {text!r} is not accepted; "
        "write rationals as integers or 'p/q' strings")


def parse_problem_dict(data) -> Problem:
    if not isinstance(data, dict):
        raise ProblemFormatError("top level: expected an object")
    unknown = sorted(set(data) - _KNOWN_KEYS)
    if unknown:
        raise ProblemFormatError(f"unknown keys: {', '.join(unknown)}")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ProblemFormatError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ProblemFormatError("name: expected a string")
    size = data.get("matrix_size")
    if not isinstance(size, int) or isinstance(size, bool) or size <= 0:
        raise ProblemFormatError("matrix_size: expected a positive integer")
    if "basis" not in data:
        raise ProblemFormatError("basis: missing")
    basis = parse_matrix_list(data["basis"], size, "basis", allow_empty=False)
    if "subalgebra_basis" not in data:
        raise ProblemFormatError("subalgebra_basis: missing")
    sub = parse_matrix_list(data["subalgebra_basis"], size,
                            "subalgebra_basis")
    theta = None
    if data.get("theta") is not None:
        dim, raw = len(basis), data["theta"]
        if (not isinstance(raw, list) or len(raw) != dim
                or any(not isinstance(row, list) or len(row) != dim
                       for row in raw)):
            raise ProblemFormatError(
                f"theta: expected a {dim}x{dim} coordinate matrix")
        theta = parse_matrix(raw, dim, "theta")
    a_seed = None
    if data.get("a_seed") is not None:
        a_seed = parse_matrix_list(data["a_seed"], size, "a_seed")
    positivity = None
    if data.get("positivity_basis") is not None:
        positivity = parse_matrix_list(data["positivity_basis"], size,
                                       "positivity_basis")
    hint = None
    if data.get("minimal_parabolic_hint") is not None:
        raw = data["minimal_parabolic_hint"]
        if (not isinstance(raw, list)
                or any(not isinstance(s, int) or isinstance(s, bool)
                       or s not in (1, -1) for s in raw)):
            raise ProblemFormatError(
                "minimal_parabolic_hint: expected a list of 1/-1 signs")
        hint = tuple(raw)
    problem = Problem(name=name, matrix_size=size, basis=basis,
                      subalgebra_basis=sub, theta=theta, a_seed=a_seed,
                      positivity_basis=positivity,
                      minimal_parabolic_hint=hint)
    _check_hint_exclusive(problem)
    return problem


def _check_hint_exclusive(problem: Problem) -> None:
    """A minimal-parabolic hint fixes a and its positivity itself, so it
    excludes ``a_seed`` and ``positivity_basis``; raise rather than ignore
    them."""
    if problem.minimal_parabolic_hint is None:
        return
    for key in ("a_seed", "positivity_basis"):
        if getattr(problem, key) is not None:
            raise ProblemFormatError(
                f"{key} and minimal_parabolic_hint are mutually exclusive")


def parse_problem_text(text: str) -> Problem:
    try:
        data = json.loads(text, parse_float=_reject_float)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past Python's digit limit, or arrays
        # nested past the recursion limit
        raise ProblemFormatError(f"invalid JSON: {exc}") from None
    return parse_problem_dict(data)


def parse_problem(path) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from None
    return parse_problem_text(text)


# -- serialization ------------------------------------------------------------


def format_rational(f: Scalar):
    """Exact JSON value: plain int when integral, 'p/q' string otherwise."""
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def matrix_to_json(m: Matrix) -> list:
    return [[format_rational(e) for e in row] for row in m]


def problem_to_dict(problem: Problem) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "name": problem.name,
        "matrix_size": problem.matrix_size,
        "basis": [matrix_to_json(m) for m in problem.basis],
        "subalgebra_basis": [matrix_to_json(m)
                             for m in problem.subalgebra_basis],
    }
    if problem.theta is not None:
        out["theta"] = matrix_to_json(problem.theta)
    if problem.a_seed is not None:
        out["a_seed"] = [matrix_to_json(m) for m in problem.a_seed]
    if problem.positivity_basis is not None:
        out["positivity_basis"] = [matrix_to_json(m)
                                   for m in problem.positivity_basis]
    if problem.minimal_parabolic_hint is not None:
        out["minimal_parabolic_hint"] = list(problem.minimal_parabolic_hint)
    return out


def problem_to_json(problem: Problem) -> str:
    return json.dumps(problem_to_dict(problem), indent=2, sort_keys=True) + "\n"


# -- assembly -----------------------------------------------------------------


def positivity_from_hint(g: LieAlgebra, theta: Optional[Matrix],
                         signs: Sequence[int]) -> CartanData:
    """The Cartan data of the diagonal torus a, its roots ordered by one
    sign per noncompact simple ideal l_n,C.

    Ideals are ordered by the pivots of their echelon bases (for a
    block-diagonal construction this is block order).  Positivity runs
    through a ∩ l_n,C ideal by ideal: a +1 keeps its echelon basis, a -1
    negates it, flipping which root spaces count as positive in that
    factor.  The split part of the center comes last with positive
    orientation.  Certified: a = (z(g) ∩ s) ⊕ (⊕_C a ∩ l_n,C).

    z(g) ∩ s is read off the roots as their common kernel on a, which is
    the common kernel of the simple roots, since every root is an integer
    combination of them.  An x in z(g) ∩ s commutes with a, so it lies in
    z_s(a) = a, which :func:`~sphlie.liealg.maximal_abelian` certified;
    and [x, g_alpha] = alpha(x) g_alpha = 0 with g_alpha nonzero, so every
    root vanishes at x.  Conversely, an x in a on which every root vanishes
    kills each g_alpha, and it kills g_0 = m ⊕ a, the 0-eigenspace of ad a;
    these spaces span g, so ad x = 0 and x lies in z(g) ∩ s.
    """
    cd = cartan_data(g, theta)
    noncompact = sorted(
        _noncompact_ideals(cd, range(len(cd.simple_roots)), g.full_space()),
        key=lambda sp: sp.pivots)
    if len(signs) != len(noncompact):
        raise ProblemFormatError(
            f"minimal_parabolic_hint: expected {len(noncompact)} signs "
            f"(one per noncompact simple ideal), got {len(signs)}")
    parts = [subspace_intersect(cd.a, ideal) for ideal in noncompact]
    center_split = canonical_basis(
        [cd.a.from_coordinates(v)
         for v in _null_generators(cd.simple_roots, cd.a.dim)], g.dim)
    if not is_direct_sum(cd.a, center_split, *parts):
        raise CertificationError(
            f"a = (z ∩ s) ⊕ (⊕_C a ∩ l_n,C) fails: dim a = {cd.a.dim}, "
            f"parts of dims "
            f"{' + '.join(str(p.dim) for p in [center_split, *parts])}")
    positivity = [vec_scale(sign, v)
                  for sign, part in zip(signs, parts) for v in part.basis]
    return replace(cd, positivity=(*positivity, *center_split.basis))


def _coordinates(g: LieAlgebra, matrices: Sequence[Matrix],
                 key: str) -> list[Vector]:
    """g's coordinates of each matrix of a problem field."""
    out = []
    for i, m in enumerate(matrices):
        v = g.from_matrix(m)
        if v is None:
            raise ProblemFormatError(
                f"{key}[{i}]: not an element of the algebra")
        out.append(v)
    return out


def build_pair(problem: Problem) -> SphericalPair:
    """Assemble the spherical pair a problem describes.

    Algebra-closure and dimension failures from the underlying modules pass
    through unchanged; they are input errors in the same sense as parse
    errors.
    """
    _check_hint_exclusive(problem)
    g = LieAlgebra(problem.basis, name=problem.name or "g")
    h = g.span_of_matrices(problem.subalgebra_basis)
    if problem.minimal_parabolic_hint is not None:
        cd = positivity_from_hint(g, problem.theta,
                                  problem.minimal_parabolic_hint)
    else:
        a_seed = positivity = None
        if problem.a_seed is not None:
            a_seed = canonical_basis(
                _coordinates(g, problem.a_seed, "a_seed"), g.dim)
        if problem.positivity_basis is not None:
            positivity = _coordinates(g, problem.positivity_basis,
                                      "positivity_basis")
        cd = cartan_data(g, theta=problem.theta, a_seed=a_seed,
                         positivity_basis=positivity)
    return spherical_pair(cd, h, label=problem.name)


def find_open_pair(problem: Problem, budget: int, seed: int) -> tuple:
    """The stages every analysis starts with: build the pair, test the orbit
    at the base point and, if it is not open and ``budget`` > 0, search for
    a conjugate whose orbit is.

    Returns (pair, open at base, defect at base, search result, final),
    where ``final`` is the open pair, or None when none was found.
    """
    pair = build_pair(problem)
    ok, defect = is_spherical(pair)
    search = None
    final: Optional[SphericalPair] = pair if ok else None
    if not ok and budget > 0:
        search = conjugate_search(pair, budget, seed=seed)
        if search is not None:
            # Ad(word) is an automorphism, so the moved h is closed too and
            # is not re-certified
            final = SphericalPair(pair.cartan, search.conjugated,
                                  label=problem.name)
    return pair, ok, defect, search, final
