"""Exact linear algebra over the rationals.

Vectors are tuples of exact rationals; matrices are tuples of row tuples.
Every entry the package builds is an ``int`` when its value is integral
(0 and 1 included) and otherwise a :class:`fractions.Fraction` with
denominator > 1, so integral data stays in ``int`` arithmetic.  Scalars are
normalised where they are made, and every division goes through one exact
helper, because ``int / int`` would give a float.  A :class:`Subspace` stores
the reduced row-echelon basis of its span, which is *unique*, so two
subspaces are equal iff their stored data are equal and all downstream
decompositions are reproducible.  No floating point is used anywhere.

Each linear-algebra idea has one implementation, which the Lie-theory
layers call instead of re-deriving it: spans (:func:`canonical_basis`),
coordinates in a span (:meth:`Subspace.coordinates_of`, and
:class:`SpanSolver` for a fixed independent list), splitting along a direct
sum (:class:`DirectSum`), certifying ``whole = a ⊕ b ⊕ ...``
(:func:`is_direct_sum`), combinations (:func:`lin_comb`), kernels and
genuine linear systems (:func:`kernel`, :func:`solve_linear`), and the
kernel of a linear condition modulo a subspace (:func:`_preimage`), which
turns membership into rows built from sparse residuals:
:func:`subspace_intersect` and :func:`sphlie.liealg.transporter` (and so
every centralizer, normalizer and centre) solve through it.  Sparse vectors
are dicts {coordinate: value} of their nonzero entries;
:meth:`Subspace._read_off` reduces one modulo a subspace, the exponential
series of :mod:`sphlie.orbits` runs on them scaled to ints, and
:func:`int_rank` ranks them with no Fraction.  Integer
scaling, by the least common denominator, has one implementation per form:
:func:`_scaled` for a sparse vector and :func:`_integral` for dense vectors
at one shared denominator.  :func:`rref` is the one elimination behind
canonical bases, :class:`SpanSolver` and every kernel.  It is a sparse
incremental Gauss–Jordan: each input entry is read, coerced and normalised
once, and each row is reduced against an echelon of sparse rows that is
fully reduced after every insert, so one pass over the row's support at the
pivots suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch

Scalar = int | Fraction
Vector = tuple[Scalar, ...]
Matrix = tuple[Vector, ...]

ZERO = 0
ONE = 1


def _exact(x: Scalar) -> Scalar:
    """x as an int when it is an integral Fraction.  Hot loops inline the
    same test."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _exact_row(xs: Iterable[Scalar]) -> Vector:
    """A tuple of the entries of xs, each normalised as by :func:`_exact`."""
    return tuple([x.numerator if type(x) is Fraction and x.denominator == 1
                  else x for x in xs])


def _from_entries(entries: dict[int, Scalar], n: int) -> Vector:
    """The vector of length n with the given entries {coordinate: value},
    each nonzero one normalised as by :func:`_exact`; a coordinate left out
    is zero."""
    out = [ZERO] * n
    for k, x in entries.items():
        if x:
            out[k] = (x.numerator if type(x) is Fraction and x.denominator == 1
                      else x)
    return tuple(out)


def _div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b, normalised; the package's only division."""
    if type(a) is int and type(b) is int:
        return a // b if a % b == 0 else Fraction(a, b)
    q = (a if type(a) is Fraction else Fraction(a)) / b
    return q.numerator if q.denominator == 1 else q


def _scaled(v: dict[int, Scalar]) -> tuple[dict[int, int], int]:
    """v as (entries, den), for v given by its entries {coordinate: value}:
    the ints {coordinate: den * value} at v's nonzero coordinates, for den
    the least common denominator of them."""
    den = lcm(*[a.denominator for a in v.values() if a])
    return {i: a.numerator * (den // a.denominator)
            for i, a in v.items() if a}, den


def _integral(vectors: Sequence[Sequence[Scalar]]) -> list[tuple[int, ...]]:
    """The vectors times the lcm of their entries' denominators, as ints."""
    den = lcm(*(x.denominator for v in vectors for x in v))
    return [tuple([x.numerator * (den // x.denominator) for x in v])
            for v in vectors]


def as_vector(entries: Iterable) -> Vector:
    """Coerce an iterable of rational-like entries to a Vector."""
    return tuple([e if type(e) is int else
                  _exact(e if type(e) is Fraction else Fraction(e))
                  for e in entries])


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    """The i-th standard basis vector of Q^n, for 0 <= i < n."""
    return (ZERO,) * i + (ONE,) + (ZERO,) * (n - i - 1)


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    return _exact_row(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    return _exact_row(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    c = c if type(c) is int else _exact(Fraction(c))
    return _exact_row(c * a if a else ZERO for a in v)


def lin_comb(coeffs: Iterable, vectors: Iterable[Sequence], n: int) -> Vector:
    """sum_i coeffs[i] * vectors[i] in Q^n, skipping zero coefficients and
    zero entries."""
    acc = [ZERO] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for k, a in enumerate(v):
                if a:
                    acc[k] += c * a
    return _exact_row(acc)


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[Vector], list[int]]:
    """Reduced row-echelon form, by sparse incremental Gauss–Jordan.

    Returns ``(rows, pivots)`` where ``rows`` are the nonzero rows (each with
    leading entry 1 in a strictly increasing pivot column, and zeros above and
    below every pivot) and ``pivots`` are their pivot columns.  Rows of
    different lengths raise DimensionMismatch.

    Each input row is read once into its nonzero entries {column: value},
    each entry coerced and normalised as by :func:`as_vector`.  The echelon
    is kept as such dicts, keyed by pivot, and is fully reduced after every
    insert: each echelon row is 1 at its pivot and 0 at every other pivot.
    So a new row is reduced in one pass, by the echelon row of each pivot in
    its support (the :meth:`Subspace._read_off` rule).  A nonzero remainder
    is scaled to a leading 1 at its least column, which then joins the
    pivots and is cleared from the older echelon rows.  Every write is
    normalised, so integral entries stay ints.  The RREF of a matrix is
    unique, so the result does not depend on the order of elimination.
    """
    echelon: dict[int, dict[int, Scalar]] = {}  # pivot -> entries off it
    ncols = None
    for row in rows:
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise DimensionMismatch("ragged rows")
        r = {}
        for j, a in compress(enumerate(row), row):
            if type(a) is not int:
                if type(a) is not Fraction:
                    a = Fraction(a)
                if a.denominator == 1:
                    a = a.numerator
                if not a:
                    continue
            r[j] = a
        for p in [p for p in r if p in echelon]:
            c = r.pop(p)
            for j, a in echelon[p].items():
                x = r.get(j, ZERO) - c * a
                if x:
                    r[j] = (x.numerator if type(x) is Fraction
                            and x.denominator == 1 else x)
                else:
                    del r[j]
        if not r:
            continue
        lead = min(r)
        inv = r.pop(lead)
        if inv != 1:
            inv = _div(ONE, inv)
            for j, a in r.items():
                x = a * inv
                r[j] = (x.numerator if type(x) is Fraction
                        and x.denominator == 1 else x)
        for e in echelon.values():
            c = e.pop(lead, ZERO)
            if c:
                for j, a in r.items():
                    x = e.get(j, ZERO) - c * a
                    if x:
                        e[j] = (x.numerator if type(x) is Fraction
                                and x.denominator == 1 else x)
                    else:
                        del e[j]
        echelon[lead] = r
    pivots = sorted(echelon)
    out = []
    for p in pivots:
        v = [ZERO] * ncols
        v[p] = ONE
        for j, a in echelon[p].items():
            v[j] = a
        out.append(tuple(v))
    return out, pivots


def int_rank(rows: Iterable[dict[int, int]]) -> int:
    """The rank of integer vectors given by their entries {column: value},
    by fraction-free elimination.

    Each echelon row is keyed by its least column, its pivot, and kept with
    its gcd content divided out.  A new row whose least column is a pivot
    loses that entry to the integer combination a·row - b·echelon_row,
    with a/b the two entries' ratio in lowest terms; the echelon row has
    nothing left of its pivot, so the row's least column grows each step.
    The row vanishes (it was dependent) or reaches a free least column and
    joins the echelon rows.  Rank is blind to a row's scale, so every step
    is exact in ints: no Fraction is built and no ``/`` is used.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {j: a for j, a in row.items() if a}
        while r:
            lead = min(r)
            e = echelon.get(lead)
            if e is None:
                c = gcd(*r.values())
                echelon[lead] = r if c == 1 else {
                    j: a // c for j, a in r.items()}
                break
            a, b = e[lead], r[lead]
            c = gcd(a, b)
            a, b = a // c, b // c
            r = {j: a * x for j, x in r.items()}
            for j, y in e.items():
                if x := r.get(j, ZERO) - b * y:
                    r[j] = x
                else:
                    del r[j]
    return len(echelon)


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

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._rows_at)

    @cached_property
    def _rows_at(self) -> dict[int, tuple[tuple[int, Scalar], ...]]:
        """Per basis row, in order: its pivot -> its nonzero (column, entry)
        pairs off the pivot."""
        rows = [[(j, a) for j, a in enumerate(row) if a] for row in self.basis]
        return {nz[0][0]: tuple(nz[1:]) for nz in rows}

    def coordinates_of(self, v: Vector) -> Optional[Vector]:
        """Coordinates of v in the echelon basis, or None if v is outside.

        Because the basis is in RREF the coordinates are v's pivot entries,
        and v is inside exactly when :meth:`_read_off` leaves no residual.
        """
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} != ambient {self.ambient_dim}")
        if any(self._read_off(dict(compress(enumerate(v), v))).values()):
            return None
        return _exact_row([v[p] for p in self.pivots])

    def _read_off(self, v: dict[int, Scalar]) -> dict[int, Scalar]:
        """v minus its combination of the echelon rows, for v and the result
        given by their entries {column: value} (a column left out is zero).
        Every row vanishes at the other rows' pivots, so the row with pivot
        p has coefficient v[p], and only rows with p in v's support count."""
        res = dict(v)
        rows = self._rows_at
        for p, c in v.items():
            if c and (nz := rows.get(p)) is not None:
                del res[p]
                for j, a in nz:
                    x = res.get(j, ZERO) - c * a
                    res[j] = (x.numerator if type(x) is Fraction
                              and x.denominator == 1 else x)
        return res

    def contains(self, v: Vector) -> bool:
        return self.coordinates_of(v) is not None

    def is_contained_in(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambients")
        return all(other.contains(row) for row in self.basis)

    def from_coordinates(self, coords: Sequence[Scalar]) -> Vector:
        return lin_comb(coords, self.basis, self.ambient_dim)

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def canonical_basis(vectors: Iterable[Sequence], ambient_dim: Optional[int] = None) -> Subspace:
    """Span of the given vectors with the unique RREF basis.

    ``ambient_dim`` is required when ``vectors`` is empty and must otherwise
    agree with the vectors' common length.
    """
    vecs = list(vectors)
    if vecs:
        n = len(vecs[0])
        if ambient_dim is not None and ambient_dim != n:
            raise DimensionMismatch(
                f"declared ambient {ambient_dim} != vector length {n}")
        ambient_dim = n
    elif ambient_dim is None:
        raise DimensionMismatch("empty generating set needs an explicit ambient_dim")
    _check_ambient(ambient_dim)
    rows, _ = rref(vecs)
    return Subspace(ambient_dim, tuple(rows))


def _check_ambient(ambient_dim: int) -> None:
    if ambient_dim < 1:
        raise DimensionMismatch("ambient dimension must be >= 1")


def zero_subspace(ambient_dim: int) -> Subspace:
    _check_ambient(ambient_dim)
    return Subspace(ambient_dim, ())


def full_subspace(ambient_dim: int) -> Subspace:
    """Q^ambient_dim; the identity rows are already their own RREF."""
    _check_ambient(ambient_dim)
    return Subspace(ambient_dim, tuple(unit_vector(ambient_dim, i)
                                       for i in range(ambient_dim)))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("sum of subspaces of different ambients")
    return canonical_basis(list(a.basis) + list(b.basis), a.ambient_dim)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b, solved in the coordinates of the smaller side: the vectors
    of the smaller side whose residual modulo the larger vanishes
    (:func:`_preimage`, one image per basis vector)."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("intersection of subspaces of different ambients")
    if a.dim > b.dim:
        a, b = b, a
    return _preimage(a, ([dict(compress(enumerate(v), v))] for v in a.basis),
                     b)


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


def membership(v: Sequence, s: Subspace) -> Optional[Vector]:
    """Coordinates of v in s's canonical basis, or None if v is not in s."""
    return s.coordinates_of(as_vector(v))


def is_direct_sum(whole: Subspace, *parts: Subspace) -> bool:
    """Whether ``whole`` = parts[0] ⊕ parts[1] ⊕ ...: the dimensions add up
    and one elimination of the stacked bases spans ``whole``."""
    if any(p.ambient_dim != whole.ambient_dim for p in parts):
        raise DimensionMismatch("direct sum of subspaces of different ambients")
    return (sum(p.dim for p in parts) == whole.dim
            and canonical_basis([v for p in parts for v in p.basis],
                                whole.ambient_dim) == whole)


# ---------------------------------------------------------------------------
# coordinates in a fixed list, splitting along a direct sum


class SpanSolver:
    """Expresses vectors of Q^n in a fixed independent list, exactly.

    Row-reduces ``[A | -I]`` once.  The residual of ``(v, 0)`` modulo those
    echelon rows (:meth:`Subspace._read_off`, which visits only the rows
    whose pivot lies in v's support) vanishes in its first n entries exactly
    when v is in the span, and its last k entries are then v's coefficients
    in the list.  A dependent list raises DimensionMismatch.
    """

    def __init__(self, rows: Sequence[Sequence[Scalar]], n: int):
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("spanning vectors do not all have length n")
        self.n, self.k = n, len(rows)
        aug = [list(r) + [-x for x in unit_vector(self.k, i)]
               for i, r in enumerate(rows)]
        red, pivots = rref(aug)
        # [A | -I] always has rank k; A is independent iff no pivot leaves it
        if any(p >= n for p in pivots):
            raise DimensionMismatch("spanning list is linearly dependent")
        self._augmented = Subspace(n + self.k, tuple(red))

    def coordinates(self, v: Sequence[Scalar]) -> Optional[Vector]:
        """Coefficients writing v in the list, or None if v is outside."""
        if len(v) != self.n:
            raise DimensionMismatch(
                f"vector length {len(v)} != span ambient {self.n}")
        terms = self.terms(dict(compress(enumerate(v), v)))
        return None if terms is None else tuple(
            map(dict(terms).get, range(self.k), repeat(ZERO)))

    def terms(self, v: dict[int, Scalar]) -> Optional[list[tuple[int, Scalar]]]:
        """The nonzero (i, c), in increasing i, with v = sum c * rows[i],
        for v given by its entries {column: value}; None if v is outside."""
        res = self._augmented._read_off(v)
        if any(x for j, x in res.items() if j < self.n):
            return None
        return sorted((j - self.n, x) for j, x in res.items() if x)


class DirectSum:
    """A direct sum of subspaces, certified at construction, that splits a
    vector into its part in each piece.

    ``pieces`` holds at least one subspace.  Overlapping pieces raise
    DimensionMismatch; zero-dimensional pieces are allowed.
    """

    def __init__(self, pieces: Sequence[Subspace]):
        self.pieces = tuple(pieces)
        n = self.pieces[0].ambient_dim
        if any(p.ambient_dim != n for p in self.pieces):
            raise DimensionMismatch("direct sum of subspaces of different ambients")
        try:
            self._solver = SpanSolver([v for p in self.pieces for v in p.basis], n)
        except DimensionMismatch:
            raise DimensionMismatch("direct-sum pieces overlap") from None

    def components(self, v: Sequence[Scalar]) -> Optional[list[Vector]]:
        """v's part in each piece, in order, or None if v lies outside the
        sum."""
        coords = self._solver.coordinates(v)
        if coords is None:
            return None
        out, at = [], 0
        for p in self.pieces:
            out.append(p.from_coordinates(coords[at:at + p.dim]))
            at += p.dim
        return out


# ---------------------------------------------------------------------------
# solving utilities


def _null_generators(rows: Sequence[Sequence[Scalar]], ncols: int
                     ) -> list[list[Scalar]]:
    """One null-space vector per free column of the rows' RREF; together a
    basis of the kernel, though not an echelon one."""
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
    return gens


def kernel(rows: Sequence[Sequence[Scalar]], ncols: int) -> Subspace:
    """Null space of the matrix with the given rows (acting on Q^ncols)."""
    gens = _null_generators(rows, ncols)
    return canonical_basis(gens, ncols) if gens else zero_subspace(ncols)


def _preimage(w: Subspace, images: Iterable[Iterable[dict[int, Scalar]]],
              t: Subspace) -> Subspace:
    """{x in w : sum_m x_m images[m][c] lies in t for every c}, for each
    image given by its entries {coordinate: value}: the one kernel of a
    linear condition modulo a subspace.

    The residual modulo t (:meth:`Subspace._read_off`) is linear with
    kernel t, so the condition is one row per (c, coordinate k) where some
    residual of images[m][c] is nonzero, ordered by (c, k) and solved in
    w's coordinates.  No row means all of w.  The null generators are
    lifted through w's basis only when w is a proper subspace, and, as in
    :func:`kernel`, eliminated again only when there are any.
    """
    rows: dict[tuple[int, int], list[Scalar]] = {}
    for m, row in enumerate(images):
        for c, image in enumerate(row):
            for k, x in t._read_off(image).items():
                if x:
                    rows.setdefault((c, k), [ZERO] * w.dim)[m] = x
    if not rows:
        return w
    gens = _null_generators([rows[key] for key in sorted(rows)], w.dim)
    if not gens:
        return zero_subspace(w.ambient_dim)
    if w.dim < w.ambient_dim:
        gens = [w.from_coordinates(x) for x in gens]
    return canonical_basis(gens, w.ambient_dim)


def solve_linear(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> Optional[Vector]:
    """One exact solution of A x = b with free variables set to 0, or None.

    The last column of [A | -b] is free exactly when A x = b is consistent,
    and its null generator (:func:`_null_generators`) is then (x, 1) for
    that solution."""
    ncols = len(rows[0]) if rows else 0
    gens = _null_generators([list(r) + [-b] for r, b in zip(rows, rhs)],
                            ncols + 1)
    return tuple(gens[-1][:-1]) if gens and gens[-1][-1] else None


# matrices -------------------------------------------------------------------


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(as_vector(r) for r in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(unit_vector(n, i) for i in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_add(x, y) for x, y in zip(a, b))


def mat_scale(c, a: Matrix) -> Matrix:
    return tuple(vec_scale(c, row) for row in a)


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
        out.append(_exact_row(acc))
    return tuple(out)


def mat_apply(a: Matrix, v: Vector) -> Vector:
    """Exact matrix-vector product, column by column over the nonzero
    entries of v."""
    if a and len(a[0]) != len(v):
        raise DimensionMismatch("matrix/vector size mismatch")
    acc = [ZERO] * len(a)
    for j, y in enumerate(v):
        if y:
            for i, row in enumerate(a):
                x = row[j]
                if x:
                    acc[i] += x * y
    return _exact_row(acc)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else a


def mat_trace(a: Matrix) -> Scalar:
    return _exact(sum((a[i][i] for i in range(len(a))), ZERO))


def mat_is_zero(a: Matrix) -> bool:
    return all(all(e == 0 for e in row) for row in a)


def mat_unflatten(v: Vector, n: int, m: Optional[int] = None) -> Matrix:
    m = m if m is not None else n
    if len(v) != n * m:
        raise DimensionMismatch("flattened length does not match shape")
    return tuple(tuple(v[i * m + j] for j in range(m)) for i in range(n))


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
                c = _div(w[i][piv], d)
                for k in range(n):
                    w[i][k] = w[i][k] - c * w[piv][k]
                for k in range(n):
                    w[k][i] = w[k][i] - c * w[k][piv]
    return npos, nneg, n - npos - nneg


def bilinear_value(form: Matrix, u: Vector, v: Vector) -> Scalar:
    return _exact(sum((u[i] * form[i][j] * v[j]
                       for i in range(len(u)) if u[i] != 0
                       for j in range(len(v)) if v[j] != 0), ZERO))


def restrict_bilinear_form(form: Matrix, s: Subspace) -> Matrix:
    """Gram matrix of a bilinear form on the echelon basis of s: form·v per
    basis vector v, as a combination of form's columns over v's nonzeros,
    then u·(form·v) over u's nonzeros."""
    cols = mat_transpose(form)
    images = [lin_comb(v, cols, len(form)) for v in s.basis]
    return tuple(_exact_row(sum((a * w[i] for i, a in nz if w[i]), ZERO)
                            for w in images)
                 for nz in ([(i, a) for i, a in enumerate(u) if a]
                            for u in s.basis))


def residual_operator(s: Subspace) -> Matrix:
    """Matrix R with R v = v minus its echelon reduction; R v = 0 iff v in s.

    The dense d x d form of the residual that :meth:`Subspace._read_off`
    leaves on a sparse vector: R v's pivot rows vanish and its other rows
    are that residual's entries.  The package solves through the sparse
    form; this one is a reference for tests and demos.
    """
    n = s.ambient_dim
    rows = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for b, p in zip(s.basis, s.pivots):
        for r in range(n):
            if b[r] != 0:
                rows[r][p] -= b[r]
    return tuple(_exact_row(row) for row in rows)


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
