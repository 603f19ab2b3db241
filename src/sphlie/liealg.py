"""Matrix Lie algebras over Q: structure constants, Killing form, Cartan
decomposition and restricted roots.

Conventions
-----------
* An algebra is presented by a list of n x n rational matrices forming a
  basis closed under the commutator ``[X, Y] = XY - YX``.
* Elements are coordinate vectors with respect to that basis; all subspaces
  (``k``, ``s``, ``a``, root spaces, subalgebras under study) live in the
  d-dimensional coordinate space.
* The Cartan involution defaults to ``theta(X) = -X^T`` and is stored as the
  d x d matrix it induces on coordinates, each column read from the nonzero
  entries of -b^T.  The default is proved, a given theta checked, an
  involutive automorphism (:func:`cartan_decompose`); k and s are the
  images of 1 + theta and 1 - theta.
* A restricted root is stored as the tuple of its values, as Fractions, on
  the echelon basis of ``a``; positivity is lexicographic with respect to a
  chosen ordered basis of ``a`` (the echelon basis unless the caller
  supplies one).  :class:`CartanData` keeps a table of each root's space,
  support, sign and negative by position, so code that walks the roots
  hashes no Fraction.  When a acts diagonally on g's basis, the roots are
  read off the diagonal of the structure constants, with no ad matrix.
* The structure constants are stored sparsely: ``_terms[i][j]`` lists the
  nonzero (k, c) with [e_i, e_j] = sum_k c e_k.  The constructor indexes
  the nonzero rows and columns of each basis matrix once and forms
  [e_i, e_j], i < j, only when a column of one support is a row of the
  other; every other commutator is exactly 0, which lies in the span, so
  closure is certified all the same.  A formed one is built from the basis
  matrices' nonzero entries and read off pivots
  (:meth:`~sphlie.linalg.SpanSolver.terms`, certified by a zero sparse
  residual); [e_j, e_i] is its negative.
* The center, the derived algebra, the Killing and invariant forms and each
  validated Cartan decomposition are computed once, on first use, and cached
  on the :class:`LieAlgebra` instance, so they die with it.
* :func:`cartan_data` certifies a given theta as a *Cartan* involution
  (Killing form negative definite on k ∩ [g, g], positive definite on
  s ∩ [g, g]) and raises :class:`~sphlie.errors.NotCartanInvolution`
  otherwise; for the default it proves it.
* A Levi's center, compact part and noncompact simple ideals are read off
  the restricted roots (:func:`_levi_split`), never off g's basis.

Every operator whose eigenvalues are consumed must act semisimply with
rational spectrum; otherwise :class:`~sphlie.errors.SpectrumError` is raised
(the package never falls back to algebraic numbers or floats).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import compress
from typing import Iterable, Optional, Sequence

from .errors import (
    CertificationError,
    DimensionMismatch,
    NotCartanInvolution,
    NotClosed,
    NotReductive,
)
from .linalg import (
    Matrix,
    Scalar,
    SpanSolver,
    Subspace,
    Vector,
    ZERO,
    _exact,
    _exact_row,
    _from_entries,
    _integral,
    _preimage,
    as_matrix,
    as_vector,
    bilinear_value,
    canonical_basis,
    full_subspace,
    identity_matrix,
    int_rank,
    is_direct_sum,
    kernel,
    lin_comb,
    mat_apply,
    mat_mul,
    mat_trace,
    mat_transpose,
    mat_unflatten,
    restrict_bilinear_form,
    subspace_intersect,
    subspace_sum,
    symmetric_signature,
    unit_vector,
    zero_subspace,
)
from .spectral import eigen_split

Root = tuple[Fraction, ...]


def _row_entries(m: Matrix) -> list[list[tuple[int, Scalar]]]:
    """Per row of m, its nonzero (column, entry) pairs."""
    return [[(c, a) for c, a in enumerate(row) if a] for row in m]


def _flat_commutator(x: dict, y: dict, n: int) -> dict[int, Scalar]:
    """xy - yx as its flattened entries {row * n + column: value}, for x and
    y given by their nonzero rows {row: its nonzero (column, entry) pairs}.
    Only a row k of y meets an entry (r, k) of x, and only a row k of x an
    entry (r, k) of y, so when no column of either support is a row of the
    other, xy = yx = 0 and nothing is formed.  An entry that cancels stays
    as a zero."""
    acc: dict[int, Scalar] = {}
    for r, xr in x.items():
        base = r * n
        for k, a in xr:
            for c, b in y.get(k, ()):
                acc[base + c] = acc.get(base + c, ZERO) + a * b
    for r, yr in y.items():
        base = r * n
        for k, b in yr:
            for c, a in x.get(k, ()):
                acc[base + c] = acc.get(base + c, ZERO) - b * a
    return acc


class LieAlgebra:
    """A matrix Lie algebra over Q given by a bracket-closed basis.

    The constructor certifies closure: every [e_i, e_j] lies in the span,
    or :class:`~sphlie.errors.NotClosed` names the first pair (i, j) that
    escapes.  It forms only the pairs whose supports meet, a column of one
    basis matrix being a row of the other; for every other pair
    b_i b_j = b_j b_i = 0 exactly, so [e_i, e_j] = 0 is in the span and is
    recorded as no terms.

    center(), derived_algebra(), killing_form(), invariant_form() and the
    Cartan decompositions are computed on first use and cached here."""

    def __init__(self, basis_matrices: Sequence, name: str = "g"):
        basis = tuple(as_matrix(b) for b in basis_matrices)
        if not basis:
            raise DimensionMismatch("a Lie algebra needs at least one basis matrix")
        n = len(basis[0])
        for b in basis:
            if len(b) != n or any(len(row) != n for row in b):
                raise DimensionMismatch("basis matrices must all be square of one size")
        flat = [tuple(e for row in b for e in row) for b in basis]
        try:
            self._solver = SpanSolver(flat, n * n)
        except DimensionMismatch:
            raise DimensionMismatch("basis matrices are linearly dependent")
        self.matrix_size = n
        self.basis = basis
        self.name = name
        self.dim = d = len(basis)
        self._flat = flat
        # each basis matrix's nonzero rows and columns, and per row (column)
        # index the basis matrices with a nonzero entry in it
        entries = [{r: row for r, row in enumerate(_row_entries(b)) if row}
                   for b in basis]
        cols = [{c for row in e.values() for c, _ in row} for e in entries]
        with_row, with_col = [[] for _ in range(n)], [[] for _ in range(n)]
        for i, (e, ci) in enumerate(zip(entries, cols)):
            for r in e:
                with_row[r].append(i)
            for c in ci:
                with_col[c].append(i)
        # _terms[i][j]: the nonzero (k, c) of [e_i, e_j] = sum_k c e_k, formed
        # only for i < j ([e_j, e_i] = -[e_i, e_j], [e_i, e_i] = 0) whose
        # supports meet; every other [e_i, e_j] is 0.  The rows share one
        # empty list: a formed pair is rebound, never appended to.
        empty: list = []
        terms = [[empty] * d for _ in range(d)]
        for i, ti in enumerate(terms):
            meet = set()
            for c in cols[i]:
                meet.update(with_row[c])
            for r in entries[i]:
                meet.update(with_col[r])
            for j in sorted(j for j in meet if j > i):
                tij = self._solver.terms(
                    _flat_commutator(entries[i], entries[j], n))
                if tij is None:
                    raise NotClosed(f"bracket of basis elements {i} and {j} "
                                    f"escapes the span")
                ti[j] = tij
                terms[j][i] = [(k, -c) for k, c in tij]
        self._terms = terms
        self._cartan: dict = {}  # validated (theta, k, s); key None is -X^T

    def _dense(self, terms: list) -> Vector:
        """The coordinate vector with the given nonzero (k, c) entries."""
        out = [ZERO] * self.dim
        for k, c in terms:
            out[k] = c
        return tuple(out)

    # -- element conversions -------------------------------------------------

    def to_matrix(self, coords: Sequence[Scalar]) -> Matrix:
        n = self.matrix_size
        return mat_unflatten(lin_comb(coords, self._flat, n * n), n)

    def from_matrix(self, m: Matrix) -> Optional[Vector]:
        return self._solver.coordinates(tuple(e for row in m for e in row))

    # -- bracket and ad ------------------------------------------------------

    def _bracket_entries(self, x: Iterable[tuple[int, Scalar]],
                         y: list[tuple[int, Scalar]]) -> dict[int, Scalar]:
        """[x, y] for x and y given by their nonzero (coordinate, value)
        pairs, accumulated over the table entries into its entries
        {coordinate: value}; an entry that cancels stays as a zero.  The
        one bracket kernel: :meth:`bracket` and :meth:`brackets_within`
        both run on it."""
        acc: dict[int, Scalar] = {}
        terms = self._terms
        for i, xi in x:
            ti = terms[i]
            for j, yj in y:
                if tij := ti[j]:
                    c = xi * yj
                    for k, s in tij:
                        acc[k] = acc.get(k, ZERO) + c * s
        return acc

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
        """[x, y] as a dense vector; only the nonzero sums are
        normalised."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch(
                f"bracket of vectors of lengths {len(x)}, {len(y)} in an "
                f"algebra of dimension {self.dim}")
        return _from_entries(self._bracket_entries(
            compress(enumerate(x), x), list(compress(enumerate(y), y))),
            self.dim)

    def ad(self, x: Sequence[Scalar]) -> Matrix:
        """Matrix of y -> [x, y]; column j is [x, e_j].  Only the nonzero
        entries are normalised."""
        if len(x) != self.dim:
            raise DimensionMismatch(
                f"ad of a vector of length {len(x)} in an algebra of "
                f"dimension {self.dim}")
        acc: dict[tuple[int, int], Scalar] = {}
        for xi, ti in zip(x, self._terms):
            if xi:
                for j, tij in enumerate(ti):
                    for k, s in tij:
                        acc[k, j] = acc.get((k, j), ZERO) + xi * s
        rows = [[ZERO] * self.dim for _ in range(self.dim)]
        for (k, j), v in acc.items():
            if v:
                rows[k][j] = (v.numerator if type(v) is Fraction
                              and v.denominator == 1 else v)
        return tuple(map(tuple, rows))

    # -- canonical subspaces -------------------------------------------------

    def full_space(self) -> Subspace:
        return full_subspace(self.dim)

    def zero_space(self) -> Subspace:
        return zero_subspace(self.dim)

    def span_of_matrices(self, mats: Sequence) -> Subspace:
        coords = []
        for m in mats:
            c = self.from_matrix(as_matrix(m))
            if c is None:
                raise NotClosed("matrix lies outside the algebra")
            coords.append(c)
        return canonical_basis(coords, self.dim)

    def center(self) -> Subspace:
        return self._center

    @cached_property
    def _center(self) -> Subspace:
        return centralizer_in(self, self.full_space())

    def derived_algebra(self) -> Subspace:
        return self._derived

    @cached_property
    def _derived(self) -> Subspace:
        return canonical_basis([self._dense(tij)
                                for i, ti in enumerate(self._terms)
                                for tij in ti[i + 1:] if tij], self.dim)

    def brackets_within(self, a: Subspace, b: Subspace,
                        target: Subspace) -> bool:
        """Whether [x, y] lies in ``target`` for every x in a's echelon basis
        and y in b's: the one bracket-containment certificate.  When a == b
        only the pairs i <= j are formed, since [y, x] = -[x, y].  Each
        basis row's nonzeros are found once, and each bracket is reduced
        modulo ``target`` as its entries, with no dense vector."""
        self._check_subspaces(a, b, target)
        xs = _row_entries(a.basis)
        same = a == b
        ys = xs if same else _row_entries(b.basis)
        return not any(any(target._read_off(self._bracket_entries(x, y))
                           .values())
                       for i, x in enumerate(xs)
                       for y in (ys[i:] if same else ys))

    def is_subalgebra(self, s: Subspace) -> bool:
        return self.brackets_within(s, s, s)

    def _check_subspaces(self, *spaces: Subspace) -> None:
        """Raise DimensionMismatch unless every space lies in Q^dim."""
        if any(v.ambient_dim != self.dim for v in spaces):
            raise DimensionMismatch(
                f"subspaces of ambient dimensions "
                f"{[v.ambient_dim for v in spaces]} in an algebra of "
                f"dimension {self.dim}")

    # -- invariant forms -----------------------------------------------------

    def killing_form(self) -> Matrix:
        """B(x, y) = trace(ad x . ad y) as a d x d Gram matrix."""
        return self._killing

    @cached_property
    def _killing(self) -> Matrix:
        # B(e_i, e_j) = sum over (k, l) of (ad e_i)[k][l] (ad e_j)[l][k], where
        # (ad e_i)[k][l] is the e_k coefficient of [e_i, e_l]
        at = defaultdict(list)  # (k, l) -> the nonzero (i, (ad e_i)[k][l])
        for i, ti in enumerate(self._terms):
            for l, til in enumerate(ti):
                for k, a in til:
                    at[k, l].append((i, a))
        out = [[ZERO] * self.dim for _ in range(self.dim)]
        for (k, l), left in at.items():
            right = at.get((l, k))
            if right:
                for i, a in left:
                    row = out[i]
                    for j, b in right:
                        row[j] += a * b
        return tuple(_exact_row(row) for row in out)

    def invariant_form(self) -> Matrix:
        """Killing form plus the matrix trace form on the center.

        Requires the algebra to be reductive (g = z(g) + [g, g]); this keeps
        the form nondegenerate on all of g, which the rank and normalizer
        analyses rely on.
        """
        return self._invariant

    @cached_property
    def _invariant(self) -> Matrix:
        z = self.center()
        der = self.derived_algebra()
        if not is_direct_sum(self.full_space(), z, der):
            raise NotReductive(
                f"{self.name} is not reductive: z + [g,g] is not a direct "
                f"splitting of g")
        b = self.killing_form()
        if z.dim == 0:
            return b
        # tr(XY) of the parts in z along [g,g], by the Gram matrix on z's
        # basis and each e_i's first z.dim coordinates in z's + [g,g]'s basis
        zmats = [self.to_matrix(v) for v in z.basis]
        gram = [[mat_trace(mat_mul(x, y)) for y in zmats] for x in zmats]
        split = SpanSolver(z.basis + der.basis, self.dim)
        zc = [split.coordinates(unit_vector(self.dim, i))[:z.dim]
              for i in range(self.dim)]
        return tuple(_exact_row(bij + bilinear_value(gram, ci, cj)
                                for bij, cj in zip(bi, zc))
                     for bi, ci in zip(b, zc))


def transporter(g: LieAlgebra, s: Subspace, t: Subspace,
                within: Optional[Subspace] = None) -> Subspace:
    """{x in ``within`` : [x, s] contained in t} (``within`` defaults to g).

    The kernel of a bracket condition, solved by :func:`linalg._preimage`
    in the coordinates of ``within``: x = sum_m x_m w_m qualifies when
    sum_m x_m [w_m, u] lies in t for every u in s's basis.  Each [w_m, u] is
    formed from the nonzeros of w_m and u as its entries, so g itself and a
    proper ``within`` take the same path, with no ad matrix and no dense
    residual.
    """
    w = within if within is not None else g.full_space()
    g._check_subspaces(s, t, w)
    us = _row_entries(s.basis)
    return _preimage(w, ([g._bracket_entries(x, u) for u in us]
                         for x in _row_entries(w.basis)), t)


def centralizer_in(g: LieAlgebra, s: Subspace, within: Optional[Subspace] = None) -> Subspace:
    """{x in ``within`` : [x, u] = 0 for all u in s} (``within`` defaults to g)."""
    return transporter(g, s, g.zero_space(), within)


# ---------------------------------------------------------------------------
# Cartan decomposition


def default_involution(g: LieAlgebra) -> Matrix:
    """Matrix on coordinates of theta(X) = -X^T: column i solves -b^T in g
    for the i-th basis matrix b, read from b's nonzero entries as the
    constructor reads commutators; raises NotClosed if the realization is
    not closed under transpose."""
    n, d = g.matrix_size, g.dim
    rows = [[ZERO] * d for _ in range(d)]
    for i, b in enumerate(g.basis):
        terms = g._solver.terms({c * n + r: -x for r, row in enumerate(b)
                                 for c, x in enumerate(row) if x})
        if terms is None:
            raise NotClosed(
                "realization is not closed under X -> -X^T; supply an explicit "
                "Cartan involution")
        for k, c in terms:
            rows[k][i] = c
    return tuple(map(tuple, rows))


def _validate_involution(g: LieAlgebra, theta: Matrix) -> Matrix:
    """theta, once checked an involutive automorphism of g."""
    d = g.dim
    sq = mat_mul(theta, theta)
    if sq != identity_matrix(d):
        raise NotCartanInvolution("theta is not involutive")
    cols = mat_transpose(theta)  # cols[i] = theta(e_i)
    col_entries = _row_entries(cols)
    # both sides are antisymmetric in (i, j) and vanish for i = j
    for i, ti in enumerate(g._terms):
        for j in range(i + 1, d):
            lhs = [ZERO] * d
            for k, c in ti[j]:
                for r, a in col_entries[k]:
                    lhs[r] += c * a
            if tuple(lhs) != g.bracket(cols[i], cols[j]):
                raise NotCartanInvolution(
                    f"theta is not an automorphism (fails on basis pair {i},{j})")
    return theta


def cartan_decompose(g: LieAlgebra, theta: Optional[Matrix] = None
                     ) -> tuple[Matrix, Subspace, Subspace]:
    """Validated Cartan decomposition g = k + s for an involution theta
    (default -X^T).  Returns (theta, k, s), once per algebra and involution,
    cached on ``g``.  A given theta is checked: theta^2 = 1 and theta is
    multiplicative on every pair of basis elements.  The default is proved:
    :func:`default_involution` solves -b^T in g for every basis matrix b, so
    it is X -> -X^T on g's coordinates, and for all matrices
    -[X, Y]^T = [-X^T, -Y^T] and -(-X^T)^T = X.

    k = ker(theta - 1) and s = ker(theta + 1) are read as im(1 + theta) and
    im(1 - theta), one elimination of the e_i +- theta(e_i) each:
    (theta - 1)(1 + theta) = theta^2 - 1 = 0, so each image lies in its
    kernel, and x = ((1 + theta)x + (1 - theta)x) / 2 while the two kernels
    meet only in 0, so the images are the kernels."""
    key = None if theta is None else as_matrix(theta)
    if key not in g._cartan:
        th = (default_involution(g) if key is None
              else _validate_involution(g, key))
        d, cols = g.dim, list(zip(*th))  # cols[i] = theta(e_i)
        k, s = (canonical_basis([[sign * x + (i == j) for j, x in enumerate(c)]
                                 for i, c in enumerate(cols)], d)
                for sign in (1, -1))
        if k.dim + s.dim != d:  # pragma: no cover - excluded by theta^2 = 1
            raise CertificationError("fixed spaces of theta do not decompose g")
        g._cartan[key] = (th, k, s)
    return g._cartan[key]


def maximal_abelian(g: LieAlgebra, s: Subspace,
                    seed: Optional[Subspace] = None) -> Subspace:
    """Maximal abelian subspace of s containing ``seed``, grown past it in
    the echelon order of g's coordinates, so that growth depends on g's
    basis; no catalog pair needs it.  Termination certificate: z_s(a) = a,
    checked exactly, by one centralizer when the seed is already maximal."""
    a = seed if seed is not None else g.zero_space()
    if not a.is_contained_in(s):
        raise DimensionMismatch("seed is not contained in s")
    if not g.brackets_within(a, a, g.zero_space()):
        raise NotClosed("seed is not abelian")
    while True:
        zs = centralizer_in(g, a, within=s)
        if zs == a:
            return a
        ext = next(row for row in zs.basis if not a.contains(row))
        a = subspace_sum(a, canonical_basis([ext], g.dim))


# ---------------------------------------------------------------------------
# restricted roots


@dataclass(frozen=True, eq=False)
class CartanData:
    """Restricted-root data of (g, theta, a) with a fixed positivity order.

    Roots are tuples of values on the echelon basis of ``a``; ``positivity``
    is the ordered basis of ``a`` whose value tuples are compared
    lexicographically to decide which roots are positive.
    ``simple_coordinates[i]`` are the (unique, nonnegative) coordinates of
    ``positive_roots[i]`` in ``simple_roots``.

    The fields up to ``m`` come from the weight stage
    (:func:`_root_decomposition`); constructing a CartanData runs the
    ordering stage, which derives and certifies the fields after them, so
    ``dataclasses.replace(cd, positivity=...)`` reorders the same roots.
    That stage works on the roots by position in ints, with no set or dict
    keyed by Fraction tuples; the root fields stay tuples of Fractions.

    ``_table`` holds, per position in ``roots``, (space, support, positive,
    position of the negative root): code that walks the roots reads it, and
    :meth:`support`, :meth:`root_space` and :meth:`is_positive` find a
    root's position in one dict built on first use.
    """

    algebra: LieAlgebra
    theta: Matrix
    k: Subspace
    s: Subspace
    a: Subspace
    positivity: tuple[Vector, ...]
    roots: tuple[Root, ...]
    _spaces: tuple[Subspace, ...]
    zero_space: Subspace
    m: Subspace
    n: Subspace = field(init=False)
    p: Subspace = field(init=False)
    positive_roots: tuple[Root, ...] = field(init=False)
    simple_roots: tuple[Root, ...] = field(init=False)
    simple_coordinates: tuple[Vector, ...] = field(init=False)
    _table: tuple[tuple, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        """The ordering stage: positive roots by ``positivity``, simple
        roots and the coordinates of each positive root in them, n and p.
        ``positivity`` must be a basis of a.  Scaled to ints by one common
        denominator, the roots keep their signs, order and coordinates.

        A positive root alpha is simple unless alpha = beta + (alpha - beta)
        for positive roots beta and alpha - beta.  The positivity values of
        a root are its values on the positivity basis, each summed over the
        nonzero coordinates of a positivity vector in a's echelon basis (one
        product when the positivity is that basis).  They are linear in the
        root, so in their lexicographic order both parts of a split come
        before alpha.  The scan walks the
        positive roots in that order and tests alpha - sigma only against
        the simple roots sigma found so far.  That finds every split: a
        positive root that is not simple has a simple sigma with
        alpha - sigma a positive root (some sigma with n_sigma > 0 in
        alpha = sum n_sigma sigma has (alpha, sigma) > 0, so alpha - sigma
        is a root, or alpha = 2 sigma), and sigma comes earlier.  Nor does
        the scan rest on that lemma: a root it misses would be a sum of
        earlier positive roots, so in the span of the simple roots found
        before it, and the independence certificate below would fail.

        Walking up in the same order, coordinates of alpha = those of sigma
        + those of alpha - sigma, from the unit vectors of the simple roots,
        writes every positive root as a nonnegative int combination of the
        simple roots.  Once ``int_rank`` certifies the simple roots
        independent, those coordinates are the unique ones, so no positive
        root can fail to be a nonnegative combination and no solve is
        needed."""
        a, roots = self.a, self.roots
        scaled = _integral(roots)
        pos_coords = [[(m, c) for m, c in enumerate(
                          _integral([a.coordinates_of(v)])[0]) if c]
                      for v in self.positivity]
        values = [tuple([sum([c * r[m] for m, c in coords])
                         for coords in pos_coords]) for r in scaled]
        positive = [_lex_positive(v) for v in values]
        index = {r: i for i, r in enumerate(scaled)}
        negative = [index.get(tuple(-x for x in r)) for r in scaled]
        for i, neg in enumerate(negative):
            if positive[i] == (neg is not None and positive[neg]):
                raise CertificationError(
                    f"root {roots[i]} and its negative get the same sign; "
                    f"positivity basis does not order the roots")

        pos = [i for i, up in enumerate(positive) if up]
        order = sorted(pos, key=values.__getitem__)
        split, found = {}, []
        for i in order:
            r = scaled[i]
            for b in found:
                j = index.get(tuple([x - y for x, y in zip(r, scaled[b])]))
                if j is not None and positive[j]:
                    split[i] = (b, j)
                    break
            else:
                found.append(i)
        simple = sorted(found, key=scaled.__getitem__)
        if int_rank(dict(enumerate(scaled[i])) for i in simple) < len(simple):
            raise CertificationError("simple roots are linearly dependent")

        # walk up from the simple roots in increasing order of the values
        # on the positivity basis, in which both parts of a split come first
        walk = {i: tuple(int(i == s) for s in simple) for i in simple}
        for i in order:
            if i in split:
                b, j = split[i]
                walk[i] = tuple([x + y for x, y in zip(walk[b], walk[j])])
        coordinates = tuple(walk[i] for i in pos)

        support = {i: frozenset(j for j, c in enumerate(sol) if c)
                   for i, sol in zip(pos, coordinates)}
        n = canonical_basis([v for i in pos for v in self._spaces[i].basis],
                            a.ambient_dim)
        for name, value in (("n", n), ("p", subspace_sum(self.zero_space, n)),
                            ("positive_roots", tuple(roots[i] for i in pos)),
                            ("simple_roots", tuple(roots[i] for i in simple)),
                            ("simple_coordinates", coordinates),
                            ("_table", tuple(
                                (sp, support[i if up else neg], up, neg)
                                for i, (sp, up, neg) in enumerate(
                                    zip(self._spaces, positive, negative))))):
            object.__setattr__(self, name, value)

    @cached_property
    def _position(self) -> dict[Root, int]:
        return {r: i for i, r in enumerate(self.roots)}

    def _entry(self, root: Root) -> tuple:
        try:
            return self._table[self._position[root]]
        except KeyError:
            raise KeyError(f"{root} is not a restricted root here") from None

    def support(self, root: Root) -> frozenset[int]:
        """Indices of the simple roots in the support of ``root`` (of -root
        for a negative root)."""
        return self._entry(root)[1]

    def root_space(self, root: Root) -> Subspace:
        return self._entry(root)[0]

    def is_positive(self, root: Root) -> bool:
        i = self._position.get(root)
        return i is not None and self._table[i][2]

    def root_value(self, root: Root, h: Sequence[Scalar]) -> Scalar:
        """Value of the root functional on an element h of a (g-coordinates)."""
        coords = self.a.coordinates_of(tuple(h))
        if coords is None:
            raise DimensionMismatch("element is not in a")
        return _exact(sum((c * r for c, r in zip(coords, root)), ZERO))


def _lex_positive(values: Sequence[Scalar]) -> bool:
    for v in values:
        if v != 0:
            return v > 0
    return False


def _diagonal_weights(g: LieAlgebra, a: Subspace
                      ) -> Optional[dict[tuple[Scalar, ...], Subspace]]:
    """When ad h is diagonal on g's basis for every h in a's echelon basis,
    {the tuple of its diagonal entries: the span of the unit vectors e_j with
    that tuple}; None at the first off-diagonal entry.  Each
    [h, e_j] = sum_i h_i [e_i, e_j] is formed from h's nonzeros only."""
    hs, d = _row_entries(a.basis), g.dim
    groups = defaultdict(list)
    for j in range(d):
        key = []
        for h in hs:
            column = g._bracket_entries(h, [(j, 1)])
            if any(x for k, x in column.items() if k != j):
                return None
            key.append(_exact(column.get(j, ZERO)))
        groups[tuple(key)].append(unit_vector(d, j))
    return {key: Subspace(d, tuple(vs)) for key, vs in groups.items()}


def _root_decomposition(g: LieAlgebra, a: Subspace,
                        positivity: Sequence[Vector], th: Matrix,
                        k: Subspace, s: Subspace) -> CartanData:
    """The weight stage, run once per a (maximal abelian in s, for a
    validated theta, k, s): the simultaneous ad-eigenspaces of a, certified
    g0 = m ⊕ a and theta(g_alpha) = g_-alpha.  The CartanData it returns
    orders the roots by ``positivity``, a basis of a.

    Diagonality and the joint eigenspaces depend only on the span of a.
    When a acts diagonally on g's basis, the unit vectors with equal
    diagonal tuples on a's echelon basis span one joint eigenspace, already
    in RREF, and the tuple is its root (:func:`_diagonal_weights`).
    Otherwise g is split by the echelon basis of a's matrices, flattened to
    n x n coordinates: those elements, and so the eigenvalues of their ad,
    do not depend on g's basis.  Each ad refines the split by
    :func:`eigen_split`, and each joint eigenspace's root is read on a's
    echelon basis at the pivot p of its first vector v, where v_p = 1:
    alpha(h) = [h, v]_p.  theta is invertible, so theta(g_alpha) = g_-alpha
    when their dimensions agree and theta maps g_alpha into g_-alpha."""
    weights = _diagonal_weights(g, a)
    if weights is None:
        nn = g.matrix_size ** 2
        flat = canonical_basis([lin_comb(h, g._flat, nn) for h in a.basis],
                               nn)
        pieces = [g.full_space()]
        for f in flat.basis:
            adh = g.ad(g._solver.coordinates(f))
            pieces = [eig for sub in pieces for _, eig in eigen_split(adh, sub)]
        weights = {tuple(g.bracket(h, sp.basis[0])[sp.pivots[0]]
                         for h in a.basis): sp for sp in pieces}
    zero_sp = weights.pop((ZERO,) * a.dim, None)
    if zero_sp is None:  # pragma: no cover - a is inside its own 0-space
        raise CertificationError("zero weight space is missing")
    keys = sorted(weights)
    roots = tuple(tuple(Fraction(x) for x in key) for key in keys)

    m = subspace_intersect(zero_sp, k)
    if not is_direct_sum(zero_sp, m, a):
        raise CertificationError("g0 does not split as m + a")

    for r, key in zip(roots, keys):
        sp, neg = weights[key], weights.get(tuple(-x for x in key))
        if (neg is None or neg.dim != sp.dim
                or not all(neg.contains(mat_apply(th, v)) for v in sp.basis)):
            raise CertificationError(
                f"theta does not map the root space of {r} onto its negative")

    return CartanData(
        algebra=g, theta=th, k=k, s=s, a=a, positivity=tuple(positivity),
        roots=roots, _spaces=tuple(weights[key] for key in keys),
        zero_space=zero_sp, m=m)


def _certify_cartan(g: LieAlgebra, k: Subspace, s: Subspace) -> None:
    """A given theta is a Cartan involution: the Killing form is negative
    definite on k ∩ [g, g] and positive definite on s ∩ [g, g]."""
    for part, name, sign in ((k, "k", "negative"), (s, "s", "positive")):
        sub = subspace_intersect(part, g.derived_algebra())
        sig = symmetric_signature(restrict_bilinear_form(g.killing_form(), sub))
        if sig != ((0, sub.dim, 0) if sign == "negative" else (sub.dim, 0, 0)):
            raise NotCartanInvolution(
                f"theta is not a Cartan involution: the Killing form on "
                f"{name} ∩ [g, g] (dim {sub.dim}) has signature {sig}, not "
                f"{sign} definite")


def cartan_data(g: LieAlgebra,
                theta: Optional[Matrix] = None,
                a_seed: Optional[Subspace] = None,
                positivity_basis: Optional[Sequence[Sequence[Scalar]]] = None
                ) -> CartanData:
    """Involution, Cartan split certified Cartan
    (:class:`~sphlie.errors.NotCartanInvolution` otherwise), maximal split
    torus grown from ``a_seed`` (default: (diagonal matrices of g) ∩ s,
    which commute, have rational ad-eigenvalues and do not depend on g's
    basis), restricted roots ordered by ``positivity_basis`` (default: the
    echelon basis of a).

    A given theta is checked by :func:`_certify_cartan`.  The default
    theta = -X^T is proved Cartan: :func:`default_involution` has shown g
    closed under transpose.  On g, <A, B> = tr(AB^T) is positive definite,
    and <[X, A], B> = <A, [X^T, B]>, so ad X is skew-adjoint for X in k
    (X^T = -X) and self-adjoint for X in s (X^T = X).  Hence
    B(X, X) = tr(ad X ad X) = -|ad X|^2 on k and +|ad X|^2 on s, which
    vanishes only where ad X = 0, on z(g).  And z(g) ∩ [g, g] = 0: for z
    central, <z, [X, Y]> = -<[Y, X], z> = -<X, [Y^T, z]> = 0, as Y^T is
    in g.  So B is negative definite on k ∩ [g, g] and positive definite
    on s ∩ [g, g], and the two signatures need no check."""
    cartan = cartan_decompose(g, theta)
    if theta is not None:
        _certify_cartan(g, *cartan[1:])
    if a_seed is None:
        n = g.matrix_size
        off_diagonal = [[f[r * n + c] for f in g._flat]
                        for r in range(n) for c in range(n) if r != c]
        diagonal = kernel([row for row in off_diagonal if any(row)], g.dim)
        a_seed = subspace_intersect(diagonal, cartan[2])
    a = maximal_abelian(g, cartan[2], seed=a_seed)
    positivity = a.basis
    if positivity_basis is not None:
        positivity = tuple(as_vector(v) for v in positivity_basis)
        if len(positivity) != a.dim or canonical_basis(positivity, g.dim) != a:
            raise DimensionMismatch(
                f"positivity basis of {len(positivity)} vectors is not a "
                f"basis of a (dim {a.dim})")
    return _root_decomposition(g, a, positivity, *cartan)


def largest_ideal_within(g: LieAlgebra, h: Subspace) -> Subspace:
    """The largest ideal of g contained in h.

    Computed by the decreasing iteration I <- {x in I : [x, g] <= I}, a
    transporter, which stabilizes after at most dim g steps; the fixed point
    is exactly the largest g-ideal inside h.
    """
    if h.ambient_dim != g.dim:
        raise DimensionMismatch("subspace does not live in the algebra")
    current = h
    while True:
        nxt = transporter(g, g.full_space(), current, within=current)
        if nxt == current:
            return current
        current = nxt


# ---------------------------------------------------------------------------
# reductive splitting: center, compact part and noncompact simple ideals


@dataclass(frozen=True, eq=False)
class ReductiveSplit:
    """g = center + compact part + noncompact simple ideals: ``ideals``
    holds (ideal, False) for each noncompact one, in the order of the simple
    roots, then (l_c, True) for the sum l_c of the compact simple ideals
    when it is nonzero."""

    center: Subspace
    ideals: tuple[tuple[Subspace, bool], ...]


def _noncompact_ideals(cd: CartanData, inside: Sequence[int], levi: Subspace
                       ) -> list[Subspace]:
    """l_n,C for each connected component C of the simple roots with
    indices ``inside`` (joined when one root's support holds both), where
    ``levi`` = l_F for those roots: the span of the root spaces g_alpha with
    support(alpha) in C and of [g_alpha, g_-alpha], one elimination, then
    certified an ideal of l by bracket containment."""
    g, inside, table = cd.algebra, set(inside), cd._table
    roots = [(sp, sup, neg) for sp, sup, up, neg in table
             if up and sup <= inside]
    comps: list[frozenset[int]] = []
    for _, sup, _ in roots:
        comps = ([c for c in comps if not c & sup]
                 + [sup.union(*(c for c in comps if c & sup))])
    ideals = []
    for comp in sorted(comps, key=min):
        gens = []
        for sp, sup, neg in roots:
            if sup <= comp:
                plus, minus = sp.basis, table[neg][0].basis
                gens += [*plus, *minus,
                         *(g.bracket(u, v) for u in plus for v in minus)]
        ideal = canonical_basis(gens, g.dim)
        if not g.brackets_within(levi, ideal, ideal):
            raise CertificationError(
                f"[l, l_n,C] ⊆ l_n,C fails for the simple roots "
                f"{sorted(comp)}: dim l = {levi.dim}, dim l_n,C = {ideal.dim}")
        ideals.append(ideal)
    return ideals


def _levi_split(cd: CartanData, inside: Sequence[int], levi: Subspace
                ) -> tuple[Subspace, Subspace, Subspace, list[Subspace]]:
    """(z(l), l_c, l_n, [l_n,C, ...]) of ``levi`` = l_F, F the simple roots
    with indices ``inside``, read off the restricted roots, not g's basis;
    l_n is the sum of the l_n,C.

    z(l) is the centralizer of l in l, and l_c = [C', C'] for C' the
    centralizer in l of the noncompact ideals.  Certified: l = z(l) ⊕ l_c ⊕
    (⊕_C l_n,C), and g's Killing form is negative definite on l_c."""
    g = cd.algebra
    ideals = _noncompact_ideals(cd, inside, levi)
    center = centralizer_in(g, levi, within=levi)
    ln = canonical_basis([v for ideal in ideals for v in ideal.basis], g.dim)
    rest = centralizer_in(g, ln, within=levi).basis
    lc = canonical_basis([g.bracket(u, v) for i, u in enumerate(rest)
                          for v in rest[i + 1:]], g.dim)
    if not is_direct_sum(levi, center, lc, *ideals):
        raise CertificationError(
            f"l = z(l) ⊕ l_c ⊕ (⊕_C l_n,C) fails: dim l = {levi.dim}, parts "
            f"of dims {' + '.join(str(p.dim) for p in [center, lc, *ideals])}")
    if lc.dim:  # a zero l_c has an empty Gram matrix: no Killing form
        sig = symmetric_signature(restrict_bilinear_form(g.killing_form(), lc))
        if sig != (0, lc.dim, 0):
            raise CertificationError(f"Killing form is not negative definite "
                                     f"on l_c (dim {lc.dim}): signature {sig}")
    return center, lc, ln, ideals


def simple_ideal_split(g: LieAlgebra) -> ReductiveSplit:
    """Split a reductive algebra, realized closed under X -> -X^T, into its
    center, its compact part and its noncompact simple ideals: the split of
    the Levi with every simple root (:func:`_levi_split`) in the restricted
    roots of :func:`cartan_data`, whose torus grows from the diagonal
    matrices, so it does not depend on g's basis.  The compact part is one
    entry (l_c, True), not one entry per compact simple ideal."""
    z, der = g.center(), g.derived_algebra()
    if not is_direct_sum(g.full_space(), z, der):
        raise NotReductive(f"{g.name} is not reductive")
    if der.dim == 0:
        return ReductiveSplit(center=z, ideals=())
    cd = cartan_data(g)
    center, lc, _, ideals = _levi_split(cd, range(len(cd.simple_roots)),
                                        g.full_space())
    entries = [(ideal, False) for ideal in ideals]
    if lc.dim:
        entries.append((lc, True))
    return ReductiveSplit(center=center, ideals=tuple(entries))
