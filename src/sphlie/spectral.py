"""Exact spectra of rational operators that are required to act semisimply.

The design rule of the package is that every operator whose eigenvalues we
consume (ad of a split torus element, the derivation in the orbit module)
must be diagonalizable over Q.  Anything else -- irrational eigenvalues or
nontrivial Jordan blocks -- raises :class:`SpectrumError` instead of silently
switching number systems.

Eigenvalues are read off a diagonal restriction, or else found from vector
minimal polynomials (Krylov sequences plus the rational root theorem), never
from floating-point routines.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable

from .errors import SpectrumError
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    ZERO,
    ONE,
    Scalar,
    _div,
    _exact,
    _exact_row,
    _integral,
    canonical_basis,
    kernel,
    mat_apply,
    unit_vector,
    zero_subspace,
)

Poly = list[Scalar]  # dense, low degree first, leading coefficient nonzero


# the largest |n| whose divisors the rational root search enumerates
_DIVISOR_CAP = 1_000_000_000_000


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return []
    if n > _DIVISOR_CAP:
        raise SpectrumError(
            "polynomial constant term too large for exact rational root search")
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _deflate(p: Poly, r: Fraction) -> tuple[Poly, Scalar]:
    """One Horner pass: the quotient of ``p`` by x - r, and the remainder
    p(r)."""
    acc, top = ZERO, []  # top: the quotient, high degree first, then p(r)
    for c in reversed(p):
        acc = _exact(acc * r + c)
        top.append(acc)
    return top[-2::-1], acc


def rational_roots(p: Poly) -> list[Fraction]:
    """All roots, as Fractions, of a rational polynomial (low degree first)
    that splits over Q.

    ``p`` is made monic and its zero roots are stripped first; then each
    candidate of the rational root theorem is divided out, by one Horner
    pass that also yields the remainder, for as long as it is a root, so
    every root leaves once per multiplicity, and a root that leaves twice
    is repeated.
    Raises SpectrumError if ``p`` has a repeated root (non-semisimple action)
    or an irreducible factor of degree >= 2 (irrational spectrum).
    """
    p = list(p)
    while p[-1] == 0:
        p.pop()
    zeros = next(i for i, c in enumerate(p) if c)
    roots = [Fraction(0)] * zeros
    p = [_div(c, p[-1]) for c in p[zeros:]]
    if len(p) > 1:
        # p is monic, so at the lcm of its denominators the ints have
        # content 1
        ip = _integral([p])[0]
        cands = {Fraction(sign * num, d) for num in _divisors(ip[0])
                 for d in _divisors(ip[-1]) for sign in (1, -1)}
        for r in sorted(cands):
            while len(p) > 1:
                q, rem = _deflate(p, r)
                if rem:
                    break
                roots.append(r)
                p = q
    if len(set(roots)) < len(roots):
        raise SpectrumError("operator is not semisimple (repeated eigenvalue "
                            "in a minimal polynomial)")
    if len(p) > 1:
        raise SpectrumError("operator has an irrational eigenvalue "
                            "(minimal polynomial does not split over Q)")
    return sorted(roots)


def vector_minimal_polynomial(apply_op: Callable[[Vector], Vector], v: Vector) -> Poly:
    """Monic generator of {p : p(M) v = 0} via the first Krylov dependency.

    M^k v is reduced against one echelon form of the Krylov vectors before
    it, grown a row per step; each row keeps its trail, its coefficients in
    those vectors, so the first M^k v reducing to zero gives p."""
    rows: list[tuple[int, list, list]] = []  # pivot, nonzero (j, x) of row, trail
    cur = v
    for k in range(len(v) + 1):
        red, trail = list(cur), [ZERO] * k + [ONE]  # red = sum_i trail_i M^i v
        for p, row, rtrail in rows:
            c = red[p]
            if c:
                for j, x in row:
                    red[j] -= c * x
                for j, x in rtrail:
                    trail[j] -= c * x
        p = next((j for j, x in enumerate(red) if x), None)
        if p is None:
            return list(_exact_row(trail))
        inv = _div(ONE, red[p])
        rows.append((p, [(j, _exact(x * inv)) for j, x in enumerate(red) if x],
                     [(j, _exact(x * inv)) for j, x in enumerate(trail) if x]))
        cur = apply_op(cur)
    raise SpectrumError("Krylov sequence failed to close")  # pragma: no cover


def restriction_matrix(op: Matrix, sub: Subspace) -> Matrix:
    """Matrix of ``op`` restricted to an invariant subspace, in its echelon
    basis.  Raises SpectrumError if the subspace is not invariant."""
    cols = []
    for b in sub.basis:
        w = mat_apply(op, b)
        coords = sub.coordinates_of(w)
        if coords is None:
            raise SpectrumError("subspace is not invariant under the operator")
        cols.append(coords)
    s = sub.dim
    return tuple(tuple(cols[j][i] for j in range(s)) for i in range(s))


def eigen_split(op: Matrix, sub: Subspace) -> list[tuple[Fraction, Subspace]]:
    """Split an invariant subspace into eigenspaces of a semisimple rational
    operator.

    Returns (eigenvalue, eigenspace) pairs sorted by eigenvalue, with each
    eigenvalue a Fraction; the eigenspaces are subspaces of the ambient
    space and their dimensions add up to dim(sub).  Raises SpectrumError
    when the restricted operator is not semisimple with rational spectrum.

    When the restriction to sub's echelon basis is diagonal, the grading is
    read off: rows with equal diagonal entries span one eigenspace.  Any
    other restriction is split from vector minimal polynomials, one kernel
    per eigenvalue, lifted back to the ambient space.
    """
    if sub.dim == 0:
        return []
    small = restriction_matrix(op, sub)
    s = sub.dim
    if all(not x for i, row in enumerate(small) for j, x in enumerate(row)
           if i != j):
        # every echelon row of sub is an eigenvector, and a subset of RREF
        # rows is the RREF of its span
        rows: dict[Fraction, list[Vector]] = {}
        for i, b in enumerate(sub.basis):
            rows.setdefault(Fraction(small[i][i]), []).append(b)
        return [(lam, Subspace(sub.ambient_dim, tuple(rows[lam])))
                for lam in sorted(rows)]

    def apply_small(v: Vector) -> Vector:
        return mat_apply(small, v)

    spaces: dict[Fraction, Subspace] = {}   # eigenvalue -> kernel in Q^s
    covered = zero_subspace(s)
    probe = 0
    while covered.dim < s:
        # probe with the first unit vector not yet inside the covered span
        while probe < s and covered.contains(unit_vector(s, probe)):
            probe += 1
        if probe >= s:  # pragma: no cover - dimension bookkeeping prevents this
            raise SpectrumError("eigenspaces fail to exhaust an invariant subspace")
        p = vector_minimal_polynomial(apply_small, unit_vector(s, probe))
        new = set(rational_roots(p)) - spaces.keys()
        if not new:
            raise SpectrumError("operator is not semisimple on an invariant "
                                "subspace (eigenspaces do not exhaust it)")
        for lam in new:
            shifted = tuple(
                _exact_row(small[i][j] - (lam if i == j else 0)
                           for j in range(s))
                for i in range(s))
            spaces[lam] = kernel(shifted, s)
        covered = canonical_basis(
            [v for sp in spaces.values() for v in sp.basis], s)
    total = sum(sp.dim for sp in spaces.values())
    if total != s:  # pragma: no cover - covered-dim loop guarantees this
        raise SpectrumError("eigenspace dimensions do not add up")
    out = []
    for lam, sp in sorted(spaces.items()):
        lifted = canonical_basis(
            [sub.from_coordinates(row) for row in sp.basis], sub.ambient_dim)
        out.append((lam, lifted))
    return out
