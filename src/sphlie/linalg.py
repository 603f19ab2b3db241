"""Exact linear algebra over the rationals.

Vectors are tuples of :class:`fractions.Fraction`; matrices are tuples of row
tuples.  A :class:`Subspace` stores the reduced row-echelon basis of its span,
which is *unique*, so two subspaces are equal iff their stored data are equal
and all downstream decompositions are reproducible.  No floating point is used
anywhere.

The three headline operations are :func:`canonical_basis`,
:func:`subspace_combine` and :func:`membership`; the rest are the exact
solving utilities the Lie-theory layers are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch

Scalar = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_vector(entries: Iterable) -> Vector:
    """Coerce an iterable of rational-like entries to a Vector."""
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a if a else ZERO for a in v)


def lin_comb(coeffs: Iterable, vectors: Iterable[Sequence], n: int) -> Vector:
    """sum_i coeffs[i] * vectors[i] in Q^n, skipping zero coefficients and
    zero entries."""
    acc = [ZERO] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for k, a in enumerate(v):
                if a:
                    acc[k] += c * a
    return tuple(acc)


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Vector], list[int]]:
    """Reduced row-echelon form.

    Returns ``(rows, pivots)`` where ``rows`` are the nonzero rows (each with
    leading entry 1 in a strictly increasing pivot column, and zeros above and
    below every pivot) and ``pivots`` are their pivot columns.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    for r in work:
        if len(r) != ncols:
            raise DimensionMismatch("ragged rows")
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        sel = next((r for r in range(row, len(work)) if work[r][col]), None)
        if sel is None:
            continue
        work[row], work[sel] = work[sel], work[row]
        prow = work[row]
        inv = ONE / prow[col]
        nz = [j for j, a in enumerate(prow) if a]
        for j in nz:
            prow[j] *= inv
        for r, other in enumerate(work):
            c = other[col]
            if c and r != row:
                for j in nz:
                    other[j] -= c * prow[j]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return [tuple(r) for r in work[:row]], pivots


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim, held as its unique RREF basis.

    Construct through :func:`canonical_basis`; the constructor trusts its
    arguments.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(i for i, a in enumerate(row) if a != 0) for row in self.basis)

    def coordinates_of(self, v: Vector) -> Optional[Vector]:
        """Coordinates of v in the echelon basis, or None if v is outside.

        Because the basis is in RREF the candidate coordinates can be read off
        the pivot columns; one exact comparison certifies membership.
        """
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} != ambient {self.ambient_dim}")
        coords = tuple(v[p] for p in self.pivots)
        residual = list(v)
        for c, row in zip(coords, self.basis):
            if c != 0:
                residual = [a - c * b for a, b in zip(residual, row)]
        if any(a != 0 for a in residual):
            return None
        return coords

    def contains(self, v: Vector) -> bool:
        return self.coordinates_of(v) is not None

    def is_contained_in(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambients")
        return all(other.contains(row) for row in self.basis)

    def from_coordinates(self, coords: Sequence[Fraction]) -> Vector:
        return lin_comb(coords, self.basis, self.ambient_dim)

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def canonical_basis(vectors: Iterable[Sequence], ambient_dim: Optional[int] = None) -> Subspace:
    """Span of the given vectors with the unique RREF basis.

    ``ambient_dim`` is required when ``vectors`` is empty and must otherwise
    agree with the vectors' common length.
    """
    vecs = [as_vector(v) for v in vectors]
    if vecs:
        n = len(vecs[0])
        if any(len(v) != n for v in vecs):
            raise DimensionMismatch("vectors of mixed ambient dimension")
        if ambient_dim is not None and ambient_dim != n:
            raise DimensionMismatch(
                f"declared ambient {ambient_dim} != vector length {n}")
        ambient_dim = n
    elif ambient_dim is None:
        raise DimensionMismatch("empty generating set needs an explicit ambient_dim")
    if ambient_dim < 1:
        raise DimensionMismatch("ambient dimension must be >= 1")
    rows, _ = rref(vecs)
    return Subspace(ambient_dim, tuple(rows))


def zero_subspace(ambient_dim: int) -> Subspace:
    return canonical_basis([], ambient_dim)


def full_subspace(ambient_dim: int) -> Subspace:
    return canonical_basis([unit_vector(ambient_dim, i) for i in range(ambient_dim)])


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("sum of subspaces of different ambients")
    return canonical_basis(list(a.basis) + list(b.basis), a.ambient_dim)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked coefficient system.

    Solve sum_i x_i a_i - sum_j y_j b_j = 0; the x-part of each kernel basis
    vector yields a generator of the intersection.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("intersection of subspaces of different ambients")
    p, q = a.dim, b.dim
    if p == 0 or q == 0:
        return zero_subspace(a.ambient_dim)
    # rows of the homogeneous system, one per ambient coordinate
    rows = []
    for coord in range(a.ambient_dim):
        rows.append([a.basis[i][coord] for i in range(p)]
                    + [-b.basis[j][coord] for j in range(q)])
    ker = kernel(rows, p + q)
    gens = [lin_comb(kv[:p], a.basis, a.ambient_dim) for kv in ker.basis]
    return canonical_basis(gens, a.ambient_dim)


def complement_in(a: Subspace, b: Subspace) -> Subspace:
    """Deterministic complement of ``a`` inside ``b`` (pivot-column rule).

    Requires a <= b.  The complement is spanned by the echelon basis vectors
    of ``b`` whose pivot columns are not pivot columns of ``a``; because both
    bases are in RREF this is a genuine complement and is unique given the
    rule.
    """
    if not a.is_contained_in(b):
        raise DimensionMismatch("complement_in requires the first argument to "
                                "be contained in the second")
    apivots = set(a.pivots)
    rows = [row for row, p in zip(b.basis, b.pivots) if p not in apivots]
    return canonical_basis(rows, b.ambient_dim)


def subspace_combine(a: Subspace, b: Subspace, kind: str) -> Subspace:
    """Dispatcher: kind in {"sum", "intersect", "complement_in"}."""
    if kind == "sum":
        return subspace_sum(a, b)
    if kind == "intersect":
        return subspace_intersect(a, b)
    if kind == "complement_in":
        return complement_in(a, b)
    raise ValueError(f"unknown combine kind {kind!r}")


def membership(v: Sequence, s: Subspace) -> Optional[Vector]:
    """Coordinates of v in s's canonical basis, or None if v is not in s."""
    return s.coordinates_of(as_vector(v))


# ---------------------------------------------------------------------------
# solving utilities


def kernel(rows: Sequence[Sequence[Fraction]], ncols: int) -> Subspace:
    """Null space of the matrix with the given rows (acting on Q^ncols)."""
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    gens = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        gens.append(v)
    return canonical_basis(gens, ncols) if gens else zero_subspace(ncols)


def solve_linear(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution of A x = b with free variables set to 0, or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(aug)
    x = [ZERO] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None  # 0 = 1 row: inconsistent
        x[p] = row[-1]
    return tuple(x)


# matrices -------------------------------------------------------------------


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(as_vector(r) for r in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(unit_vector(n, i) for i in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_add(x, y) for x, y in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_sub(x, y) for x, y in zip(a, b))


def mat_scale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * e for e in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product; zero entries of either factor cost nothing."""
    if a and len(a[0]) != len(b):
        raise DimensionMismatch(
            f"matmul with {len(a[0])} columns by {len(b)} rows")
    m = len(b[0]) if b else 0
    bnz = [[(j, y) for j, y in enumerate(brow) if y] for brow in b]
    out = []
    for row in a:
        acc = [ZERO] * m
        for x, terms in zip(row, bnz):
            if x:
                for j, y in terms:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_apply(a: Matrix, v: Vector) -> Vector:
    """Exact matrix-vector product over the nonzero entries of v."""
    if a and len(a[0]) != len(v):
        raise DimensionMismatch("matrix/vector size mismatch")
    nz = [(j, y) for j, y in enumerate(v) if y]
    return tuple(sum((row[j] * y for j, y in nz if row[j]), ZERO) for row in a)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else a


def mat_trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), ZERO)


def mat_is_zero(a: Matrix) -> bool:
    return all(all(e == 0 for e in row) for row in a)


def mat_flatten(a: Matrix) -> Vector:
    return tuple(e for row in a for e in row)


def mat_unflatten(v: Vector, n: int, m: Optional[int] = None) -> Matrix:
    m = m if m is not None else n
    if len(v) != n * m:
        raise DimensionMismatch("flattened length does not match shape")
    return tuple(tuple(v[i * m + j] for j in range(m)) for i in range(n))


def mat_invert(a: Matrix) -> Matrix:
    """Exact inverse of a square rational matrix; raises on singularity."""
    n = len(a)
    aug = [list(row) + list(unit_vector(n, i)) for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if list(pivots) != list(range(n)):
        raise DimensionMismatch("matrix is singular")
    return tuple(tuple(row[n:]) for row in red)


def image_subspace(m: Matrix, s: Subspace) -> Subspace:
    """Span of m applied to a basis of s (m given in ambient coordinates)."""
    return canonical_basis([mat_apply(m, row) for row in s.basis],
                           len(m) if m else s.ambient_dim)


def symmetric_signature(a: Matrix) -> tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) of a symmetric rational matrix.

    Computed by exact congruence transformations (symmetric pivoting).  When
    every remaining diagonal entry vanishes but some off-diagonal entry b is
    nonzero, the basis change e_i -> e_i + e_j creates the diagonal entry 2b
    and the elimination continues; this preserves the signature.
    """
    n = len(a)
    w = [list(row) for row in a]
    for i in range(n):
        for j in range(n):
            if w[i][j] != w[j][i]:
                raise DimensionMismatch("matrix is not symmetric")
    npos = nneg = 0
    live = list(range(n))
    while live:
        piv = next((i for i in live if w[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in live for j in live if w[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            for k in range(n):
                w[i][k] = w[i][k] + w[j][k]
            for k in range(n):
                w[k][i] = w[k][i] + w[k][j]
            piv = i
        d = w[piv][piv]
        if d > 0:
            npos += 1
        else:
            nneg += 1
        live.remove(piv)
        for i in live:
            if w[i][piv] != 0:
                c = w[i][piv] / d
                for k in range(n):
                    w[i][k] = w[i][k] - c * w[piv][k]
                for k in range(n):
                    w[k][i] = w[k][i] - c * w[k][piv]
    return npos, nneg, n - npos - nneg


def bilinear_value(form: Matrix, u: Vector, v: Vector) -> Fraction:
    return sum((u[i] * form[i][j] * v[j]
                for i in range(len(u)) if u[i] != 0
                for j in range(len(v)) if v[j] != 0), ZERO)


def restrict_bilinear_form(form: Matrix, s: Subspace) -> Matrix:
    """Gram matrix of a bilinear form on the echelon basis of s."""
    return tuple(tuple(bilinear_value(form, u, v) for v in s.basis)
                 for u in s.basis)


def residual_operator(s: Subspace) -> Matrix:
    """Matrix R with R v = v minus its echelon reduction; R v = 0 iff v in s.

    Turns subspace membership into linear conditions usable inside kernels.
    """
    n = s.ambient_dim
    rows = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for b, p in zip(s.basis, s.pivots):
        for r in range(n):
            if b[r] != 0:
                rows[r][p] -= b[r]
    return tuple(tuple(row) for row in rows)


def project_along(s: Subspace, target: Subspace, along: Subspace) -> Subspace:
    """Image of s under the projection onto ``target`` along ``along``.

    Requires target + along to be direct and to contain s.
    """
    if subspace_intersect(target, along).dim != 0:
        raise DimensionMismatch("projection summands overlap")
    cols = list(target.basis) + list(along.basis)
    rows = [[b[i] for b in cols] for i in range(s.ambient_dim)]
    parts = []
    for v in s.basis:
        sol = solve_linear(rows, list(v))
        if sol is None:
            raise DimensionMismatch(
                "subspace is not contained in the sum of the summands")
        parts.append(lin_comb(sol[:target.dim], target.basis, s.ambient_dim))
    return canonical_basis(parts, s.ambient_dim)


def exp_nilpotent_matrix(a: Matrix) -> Matrix:
    """Exact exp of a nilpotent rational matrix (finite series).

    Raises if the matrix is not nilpotent (the series would not terminate).
    """
    n = len(a)
    acc = identity_matrix(n)
    term: Matrix = identity_matrix(n)
    for k in range(1, n + 1):
        term = mat_scale(Fraction(1, k), mat_mul(term, a))
        if mat_is_zero(term):
            return acc
        acc = mat_add(acc, term)
    raise DimensionMismatch("matrix is not nilpotent; exp series does not end")


def log_unipotent_matrix(a: Matrix) -> Matrix:
    """Exact log of a unipotent rational matrix (finite series).

    Raises if a - identity is not nilpotent.
    """
    n = len(a)
    nil = mat_sub(a, identity_matrix(n))
    coeffs, powers = [], []
    term: Matrix = identity_matrix(n)
    for k in range(1, n + 1):
        term = mat_mul(term, nil)
        if mat_is_zero(term):
            return mat_unflatten(lin_comb(coeffs, powers, n * n), n)
        coeffs.append(Fraction((-1) ** (k + 1), k))
        powers.append(mat_flatten(term))
    raise DimensionMismatch("matrix is not unipotent; log series does not end")
