"""Exact spectra of rational operators that are required to act semisimply.

The design rule of the package is that every operator whose eigenvalues we
consume (ad of a split torus element, the derivation in the orbit module)
must be diagonalizable over Q.  Anything else -- irrational eigenvalues or
nontrivial Jordan blocks -- raises :class:`SpectrumError` instead of silently
switching number systems.

Eigenvalues are found from vector minimal polynomials (Krylov sequences plus
the rational root theorem), never from floating-point routines.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Sequence

from .errors import SpectrumError
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    ZERO,
    ONE,
    canonical_basis,
    kernel,
    lin_comb,
    mat_apply,
    solve_linear,
    subspace_sum,
    unit_vector,
    zero_subspace,
)

Poly = list[Fraction]  # dense, low degree first, leading coefficient nonzero


def poly_degree(p: Poly) -> int:
    return len(p) - 1


def poly_normalize(p: Sequence[Fraction]) -> Poly:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def poly_monic(p: Poly) -> Poly:
    lead = p[-1]
    return [c / lead for c in p]


def poly_derivative(p: Poly) -> Poly:
    return poly_normalize([c * i for i, c in enumerate(p)][1:])


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [ZERO] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and any(c != 0 for c in a):
        a = poly_normalize(a)
        if len(a) < len(b):
            break
        coef = a[-1] / b[-1]
        deg = len(a) - len(b)
        q[deg] = coef
        for i, c in enumerate(b):
            a[deg + i] -= coef * c
        a = a[:-1]
    return poly_normalize(q), poly_normalize(a)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a) if a else a


def _divisors(n: int, cap: int = 1_000_000_000_000) -> list[int]:
    n = abs(n)
    if n == 0:
        return []
    if n > cap:
        raise SpectrumError(
            "polynomial constant term too large for exact rational root search")
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def rational_roots(p: Poly) -> list[Fraction]:
    """All roots of a monic rational polynomial that splits over Q.

    Raises SpectrumError if ``p`` has a repeated root (non-semisimple action)
    or an irreducible factor of degree >= 2 (irrational spectrum).
    """
    p = poly_monic(poly_normalize(p))
    if poly_degree(p) == 0:
        return []
    g = poly_gcd(p, poly_derivative(p))
    if poly_degree(g) > 0:
        raise SpectrumError("operator is not semisimple (repeated eigenvalue "
                            "in a minimal polynomial)")
    roots: list[Fraction] = []
    # strip zero roots first
    while p[0] == 0:
        roots.append(ZERO)
        p = p[1:]
    if poly_degree(p) == 0:
        return roots
    # clear denominators -> integer polynomial
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ip = [int(c * den) for c in p]
    cont = 0
    for c in ip:
        cont = gcd(cont, c)
    ip = [c // cont for c in ip]
    lead, const = ip[-1], ip[0]
    cands = set()
    for num in _divisors(const):
        for d in _divisors(lead):
            cands.add(Fraction(num, d))
            cands.add(Fraction(-num, d))
    for r in sorted(cands):
        while poly_degree(p) > 0 and poly_eval(p, r) == 0:
            roots.append(r)
            p, rem = poly_divmod(p, [-r, ONE])
            assert not rem
    if poly_degree(p) > 0:
        raise SpectrumError("operator has an irrational eigenvalue "
                            "(minimal polynomial does not split over Q)")
    return sorted(roots)


def vector_minimal_polynomial(apply_op: Callable[[Vector], Vector], v: Vector) -> Poly:
    """Monic generator of {p : p(M) v = 0} via the first Krylov dependency."""
    krylov: list[Vector] = []
    cur = v
    while True:
        if krylov:
            sol = _express(krylov, cur)
            if sol is not None:
                # cur = sum sol_i M^i v  =>  minimal poly = x^k - sum sol_i x^i
                return poly_normalize([-c for c in sol] + [ONE])
        krylov.append(cur)
        cur = apply_op(cur)
        if len(krylov) > len(v) + 1:  # pragma: no cover - cannot happen
            raise SpectrumError("Krylov sequence failed to close")


def _express(basis: list[Vector], target: Vector) -> list[Fraction] | None:
    """Coefficients writing target in the given (ordered, possibly
    non-echelon) list of vectors, or None."""
    n = len(target)
    rows = [[basis[i][coord] for i in range(len(basis))] for coord in range(n)]
    sol = solve_linear(rows, list(target))
    if sol is None:
        return None
    # verify exactly (solve_linear only guarantees consistency of the system)
    if lin_comb(sol, basis, n) != tuple(target):
        return None
    return list(sol)


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

    Returns (eigenvalue, eigenspace) pairs sorted by eigenvalue; the
    eigenspaces are subspaces of the ambient space and their dimensions add
    up to dim(sub).  Raises SpectrumError when the restricted operator is not
    semisimple with rational spectrum.
    """
    if sub.dim == 0:
        return []
    small = restriction_matrix(op, sub)
    s = sub.dim

    def apply_small(v: Vector) -> Vector:
        return mat_apply(small, v)

    eigenvalues: set[Fraction] = set()
    covered = zero_subspace(s)
    probe = 0
    while covered.dim < s:
        # probe with the first unit vector not yet inside the covered span
        while probe < s and covered.contains(unit_vector(s, probe)):
            probe += 1
        if probe >= s:  # pragma: no cover - dimension bookkeeping prevents this
            raise SpectrumError("eigenspaces fail to exhaust an invariant subspace")
        p = vector_minimal_polynomial(apply_small, unit_vector(s, probe))
        new = set(rational_roots(p)) - eigenvalues
        if not new:
            raise SpectrumError("operator is not semisimple on an invariant "
                                "subspace (eigenspaces do not exhaust it)")
        eigenvalues |= new
        spaces = []
        for lam in eigenvalues:
            shifted = tuple(
                tuple(small[i][j] - (lam if i == j else 0) for j in range(s))
                for i in range(s))
            spaces.append((lam, kernel(shifted, s)))
        covered = zero_subspace(s)
        for _, sp in spaces:
            covered = subspace_sum(covered, sp)
    total = sum(sp.dim for _, sp in spaces)
    if total != s:  # pragma: no cover - covered-dim loop guarantees this
        raise SpectrumError("eigenspace dimensions do not add up")
    out = []
    for lam, sp in sorted(spaces, key=lambda t: t[0]):
        lifted = canonical_basis(
            [sub.from_coordinates(row) for row in sp.basis], sub.ambient_dim)
        out.append((lam, lifted))
    return out
