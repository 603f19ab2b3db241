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
  d x d matrix it induces on coordinates.
* A restricted root is stored as the tuple of its values on the echelon basis
  of ``a``; positivity is lexicographic with respect to a chosen ordered
  basis of ``a`` (the echelon basis unless the caller supplies one).

Every operator whose eigenvalues are consumed must act semisimply with
rational spectrum; otherwise :class:`~sphlie.errors.SpectrumError` is raised
(the package never falls back to algebraic numbers or floats).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    CertificationError,
    DimensionMismatch,
    NotClosed,
    NotReductive,
)
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    ZERO,
    as_matrix,
    bilinear_value,
    canonical_basis,
    full_subspace,
    image_subspace,
    is_zero_vector,
    kernel,
    lin_comb,
    mat_apply,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_trace,
    mat_transpose,
    mat_unflatten,
    residual_operator,
    restrict_bilinear_form,
    rref,
    solve_linear,
    subspace_intersect,
    subspace_sum,
    symmetric_signature,
    unit_vector,
    vec_scale,
    zero_subspace,
)
from .spectral import eigen_split

Root = tuple[Fraction, ...]


class SpanSolver:
    """Expresses vectors in a fixed independent spanning list, exactly.

    Row-reduces ``[A | I]`` once; each later query is a single back
    substitution that also certifies membership.
    """

    def __init__(self, rows: Sequence[Vector]):
        self.k = len(rows)
        self.n = len(rows[0]) if rows else 0
        aug = [list(r) + list(unit_vector(self.k, i)) for i, r in enumerate(rows)]
        red, pivots = rref(aug)
        if len(red) != self.k or any(p >= self.n for p in pivots):
            raise DimensionMismatch("spanning list is linearly dependent")
        # per pivot: the nonzero entries of its row in the span part and in
        # the coefficient part
        self._rows = [(p, [(i, a) for i, a in enumerate(row[:self.n]) if a],
                       [(i, a) for i, a in enumerate(row[self.n:]) if a])
                      for row, p in zip(red, pivots)]

    def coordinates(self, v: Sequence[Fraction]) -> Optional[Vector]:
        if len(v) != self.n:
            raise DimensionMismatch("vector has wrong length for this span")
        coeffs = [ZERO] * self.k
        resid = list(v)
        for p, span_part, coeff_part in self._rows:
            c = resid[p]
            if c:
                for idx, a in span_part:
                    resid[idx] -= c * a
                for idx, a in coeff_part:
                    coeffs[idx] += c * a
        if any(resid):
            return None
        return tuple(coeffs)


def commutator(x: Matrix, y: Matrix) -> Matrix:
    return mat_sub(mat_mul(x, y), mat_mul(y, x))


class LieAlgebra:
    """A matrix Lie algebra over Q given by a bracket-closed basis."""

    def __init__(self, basis_matrices: Sequence, name: str = "g"):
        basis = tuple(as_matrix(b) for b in basis_matrices)
        if not basis:
            raise DimensionMismatch("a Lie algebra needs at least one basis matrix")
        n = len(basis[0])
        for b in basis:
            if len(b) != n or any(len(row) != n for row in b):
                raise DimensionMismatch("basis matrices must all be square of one size")
        self.matrix_size = n
        self.basis = basis
        self.name = name
        self.dim = len(basis)
        self._flat = [tuple(e for row in b for e in row) for b in basis]
        try:
            self._solver = SpanSolver(self._flat)
        except DimensionMismatch:
            raise DimensionMismatch("basis matrices are linearly dependent")
        structure = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                br = commutator(basis[i], basis[j])
                coords = self._solver.coordinates(tuple(e for r in br for e in r))
                if coords is None:
                    raise NotClosed(
                        f"bracket of basis elements {i} and {j} escapes the span")
                row.append(coords)
            structure.append(tuple(row))
        self.structure = tuple(structure)
        # _terms[i][j]: the nonzero (k, c) of [e_i, e_j] = sum_k c e_k
        self._terms = [[[(k, c) for k, c in enumerate(sij) if c] for sij in si]
                       for si in structure]

    # -- element conversions -------------------------------------------------

    def to_matrix(self, coords: Sequence[Fraction]) -> Matrix:
        n = self.matrix_size
        return mat_unflatten(lin_comb(coords, self._flat, n * n), n)

    def from_matrix(self, m: Matrix) -> Optional[Vector]:
        return self._solver.coordinates(tuple(e for row in m for e in row))

    # -- bracket and ad ------------------------------------------------------

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        acc = [ZERO] * self.dim
        ynz = [(j, yj) for j, yj in enumerate(y) if yj]
        for xi, ti in zip(x, self._terms):
            if xi:
                for j, yj in ynz:
                    c = xi * yj
                    for k, s in ti[j]:
                        acc[k] += c * s
        return tuple(acc)

    def ad(self, x: Sequence[Fraction]) -> Matrix:
        """Matrix of y -> [x, y]; column j is [x, e_j]."""
        rows = [[ZERO] * self.dim for _ in range(self.dim)]
        for xi, ti in zip(x, self._terms):
            if xi:
                for j, tij in enumerate(ti):
                    for k, s in tij:
                        rows[k][j] += xi * s
        return tuple(tuple(r) for r in rows)

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
        rows = []
        for j in range(self.dim):
            for k in range(self.dim):
                rows.append([self.structure[i][j][k] for i in range(self.dim)])
        return kernel(rows, self.dim)

    def derived_algebra(self) -> Subspace:
        gens = [self.structure[i][j]
                for i in range(self.dim) for j in range(i + 1, self.dim)]
        return canonical_basis(gens, self.dim) if gens else self.zero_space()

    def is_subalgebra(self, s: Subspace) -> bool:
        return all(s.contains(self.bracket(u, v))
                   for i, u in enumerate(s.basis) for v in s.basis[i:])

    # -- invariant forms -----------------------------------------------------

    def killing_form(self) -> Matrix:
        """B(x, y) = trace(ad x . ad y) as a d x d Gram matrix."""
        out = []
        for ti in self._terms:
            # nonzero entries (k, l, a) of ad e_i, with a = (ad e_i)[k][l]
            nz = [(k, l, a) for l, til in enumerate(ti) for k, a in til]
            out.append(tuple(
                sum((a * sj[k][l] for k, l, a in nz if sj[k][l]), ZERO)
                for sj in self.structure))
        return tuple(out)

    def invariant_form(self) -> Matrix:
        """Killing form plus the matrix trace form on the center.

        Requires the algebra to be reductive (g = z(g) + [g, g]); this keeps
        the form nondegenerate on all of g, which the rank and normalizer
        analyses rely on.
        """
        z = self.center()
        der = self.derived_algebra()
        if subspace_intersect(z, der).dim != 0 or \
                subspace_sum(z, der).dim != self.dim:
            raise NotReductive(
                f"{self.name} is not reductive: z + [g,g] is not a direct "
                f"splitting of g")
        # projection of each basis vector onto z along [g,g]
        mixed = list(z.basis) + list(der.basis)
        solver = SpanSolver(mixed)
        zparts = []
        for i in range(self.dim):
            coeffs = solver.coordinates(unit_vector(self.dim, i))
            zpart = lin_comb(coeffs[:z.dim], z.basis, self.dim)
            zparts.append(self.to_matrix(zpart))
        b = self.killing_form()
        out = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                row.append(b[i][j] + mat_trace(mat_mul(zparts[i], zparts[j])))
            out.append(tuple(row))
        return tuple(out)


def subalgebra(g: LieAlgebra, s: Subspace, name: Optional[str] = None) -> LieAlgebra:
    """The subspace ``s`` (which must be bracket closed) as an algebra in its
    own right, with basis the matrices of s's echelon basis."""
    if not g.is_subalgebra(s):
        raise NotClosed("subspace is not closed under the bracket")
    sub = LieAlgebra([g.to_matrix(row) for row in s.basis],
                     name=name or f"{g.name}|sub")
    return sub


def lift_subspace(s_in_sub: Subspace, carrier: Subspace) -> Subspace:
    """Map a subspace expressed in a carrier's echelon coordinates back to the
    ambient coordinates of the carrier."""
    return canonical_basis(
        [carrier.from_coordinates(row) for row in s_in_sub.basis],
        carrier.ambient_dim)


def centralizer_in(g: LieAlgebra, s: Subspace, within: Optional[Subspace] = None) -> Subspace:
    """{x in ``within`` : [x, u] = 0 for all u in s} (``within`` defaults to g)."""
    w = within if within is not None else g.full_space()
    if w.dim == 0 or s.dim == 0:
        return w
    rows = []
    brk = [[g.bracket(wb, u) for u in s.basis] for wb in w.basis]
    for uidx in range(s.dim):
        for k in range(g.dim):
            rows.append([brk[m][uidx][k] for m in range(w.dim)])
    ker = kernel(rows, w.dim)
    return lift_subspace(ker, w)


# ---------------------------------------------------------------------------
# Cartan decomposition


def default_involution(g: LieAlgebra) -> Matrix:
    """Matrix on coordinates of theta(X) = -X^T; errors if the realization is
    not closed under transpose."""
    cols = []
    for i, b in enumerate(g.basis):
        img = g.from_matrix(mat_scale(Fraction(-1), mat_transpose(b)))
        if img is None:
            raise NotClosed(
                "realization is not closed under X -> -X^T; supply an explicit "
                "Cartan involution")
        cols.append(img)
    return tuple(tuple(cols[j][k] for j in range(g.dim)) for k in range(g.dim))


def _validate_involution(g: LieAlgebra, theta: Matrix) -> None:
    d = g.dim
    sq = mat_mul(theta, theta)
    if sq != tuple(unit_vector(d, i) for i in range(d)):
        raise CertificationError("theta is not involutive")
    cols = mat_transpose(theta)  # cols[i] = theta(e_i)
    for i in range(d):
        for j in range(d):
            lhs = mat_apply(theta, g.structure[i][j])
            rhs = g.bracket(cols[i], cols[j])
            if lhs != rhs:
                raise CertificationError(
                    f"theta is not an automorphism (fails on basis pair {i},{j})")


def cartan_decompose(g: LieAlgebra, theta: Optional[Matrix] = None
                     ) -> tuple[Matrix, Subspace, Subspace]:
    """Validated Cartan decomposition g = k + s for an involution theta
    (default -X^T).  Returns (theta, k, s)."""
    th = default_involution(g) if theta is None else as_matrix(theta)
    _validate_involution(g, th)
    d = g.dim
    minus_id = tuple(vec_scale(Fraction(-1), unit_vector(d, i)) for i in range(d))
    k = kernel(mat_sub(th, tuple(unit_vector(d, i) for i in range(d))), d)
    s = kernel(mat_sub(th, minus_id), d)
    if k.dim + s.dim != d:  # pragma: no cover - excluded by theta^2 = 1
        raise CertificationError("fixed spaces of theta do not decompose g")
    return th, k, s


def maximal_abelian(g: LieAlgebra, s: Subspace,
                    seed: Optional[Subspace] = None) -> Subspace:
    """Maximal abelian subspace of s containing ``seed``, grown greedily in
    echelon order.  Termination certificate: z_s(a) = a, checked exactly."""
    a = seed if seed is not None else g.zero_space()
    if not a.is_contained_in(s):
        raise DimensionMismatch("seed is not contained in s")
    for i, u in enumerate(a.basis):
        for v in a.basis[i:]:
            if not is_zero_vector(g.bracket(u, v)):
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
    n: Subspace
    p: Subspace
    positive_roots: tuple[Root, ...]
    simple_roots: tuple[Root, ...]

    def root_space(self, root: Root) -> Subspace:
        try:
            return self._spaces[self.roots.index(root)]
        except ValueError:
            raise KeyError(f"{root} is not a restricted root here") from None

    def is_positive(self, root: Root) -> bool:
        return root in set(self.positive_roots)

    def root_value(self, root: Root, h: Sequence[Fraction]) -> Fraction:
        """Value of the root functional on an element h of a (g-coordinates)."""
        coords = self.a.coordinates_of(tuple(h))
        if coords is None:
            raise DimensionMismatch("element is not in a")
        return sum((c * r for c, r in zip(coords, root)), ZERO)


def _lex_positive(values: Sequence[Fraction]) -> bool:
    for v in values:
        if v != 0:
            return v > 0
    return False


def restricted_root_decomposition(
        g: LieAlgebra,
        a: Subspace,
        positivity_basis: Optional[Sequence[Sequence[Fraction]]] = None,
        theta: Optional[Matrix] = None) -> CartanData:
    """Simultaneous ad-eigenspace decomposition of g under a, with validated
    Iwasawa-type consequences (g0 = m + a, n from the positive roots)."""
    th, k, s = cartan_decompose(g, theta)
    if not a.is_contained_in(s):
        raise DimensionMismatch("a must be contained in s")
    for i, u in enumerate(a.basis):
        for v in a.basis[i:]:
            if not is_zero_vector(g.bracket(u, v)):
                raise NotClosed("a is not abelian")
    if centralizer_in(g, a, within=s) != a:
        raise CertificationError("a is not maximal abelian in s (z_s(a) != a)")

    pieces: list[tuple[tuple[Fraction, ...], Subspace]] = [((), g.full_space())]
    for idx, h in enumerate(a.basis):
        adh = g.ad(h)
        nxt = []
        for w, sub in pieces:
            for lam, eig in eigen_split(adh, sub):
                nxt.append((w + (lam,), eig))
        pieces = nxt

    zero = (ZERO,) * a.dim
    zero_sp = None
    roots: list[Root] = []
    spaces: list[Subspace] = []
    for w, sub in pieces:
        if w == zero:
            zero_sp = sub
        else:
            roots.append(w)
            spaces.append(sub)
    if zero_sp is None:  # pragma: no cover - a is inside its own 0-space
        raise CertificationError("zero weight space is missing")
    order = sorted(range(len(roots)), key=lambda i: roots[i])
    roots = [roots[i] for i in order]
    spaces = [spaces[i] for i in order]

    # positivity
    if positivity_basis is None:
        pos_basis = tuple(a.basis)
    else:
        pos_basis = tuple(tuple(Fraction(c) for c in v) for v in positivity_basis)
        if len(pos_basis) != a.dim:
            raise DimensionMismatch("positivity basis must have dim(a) vectors")
        if canonical_basis(pos_basis, g.dim) != a:
            raise DimensionMismatch("positivity basis must span a")
    pos_coords = [a.coordinates_of(v) for v in pos_basis]

    def on_positivity(root: Root) -> tuple[Fraction, ...]:
        return tuple(sum((c * r for c, r in zip(coords, root)), ZERO)
                     for coords in pos_coords)

    positives = [r for r in roots if _lex_positive(on_positivity(r))]
    posset = set(positives)
    for r in roots:
        neg = tuple(-x for x in r)
        if (r in posset) == (neg in posset):
            raise CertificationError(
                f"root {r} and its negative get the same sign; positivity "
                f"basis does not order the roots")

    simples = [r for r in positives
               if not any(tuple(x - y for x, y in zip(r, b)) in posset
                          for b in positives)]

    # every positive root must be a nonnegative rational combination of the
    # simple ones; with simples linearly independent the solution is unique
    if positives:
        rows = [[b[i] for b in simples] for i in range(a.dim)]
        for r in positives:
            sol = solve_linear(rows, list(r))
            if sol is None or any(c < 0 for c in sol):
                raise CertificationError(
                    f"positive root {r} is not a nonnegative combination of "
                    f"the simple roots")
            # certify (solve_linear already verifies consistency row-wise)
            if lin_comb(sol, simples, a.dim) != r:
                raise CertificationError(
                    f"simple roots do not span the root lattice at {r}")

    m = subspace_intersect(zero_sp, k)
    if m.dim + a.dim != zero_sp.dim or \
            subspace_sum(m, a) != zero_sp:
        raise CertificationError("g0 does not split as m + a")

    n = zero_subspace(g.dim)
    for r in positives:
        n = subspace_sum(n, spaces[roots.index(r)])
    p = subspace_sum(zero_sp, n)

    # theta must carry each root space onto the opposite one
    for r, sp in zip(roots, spaces):
        neg = tuple(-x for x in r)
        if image_subspace(th, sp) != spaces[roots.index(neg)]:
            raise CertificationError(
                f"theta does not map the root space of {r} onto its negative")

    return CartanData(
        algebra=g, theta=th, k=k, s=s, a=a,
        positivity=pos_basis,
        roots=tuple(roots),
        _spaces=tuple(spaces),
        zero_space=zero_sp,
        m=m, n=n, p=p,
        positive_roots=tuple(sorted(positives)),
        simple_roots=tuple(sorted(simples)),
    )


def cartan_data(g: LieAlgebra,
                theta: Optional[Matrix] = None,
                a_seed: Optional[Subspace] = None,
                positivity_basis: Optional[Sequence[Sequence[Fraction]]] = None
                ) -> CartanData:
    """Convenience pipeline: involution, Cartan split, maximal split torus,
    restricted roots."""
    th, k, s = cartan_decompose(g, theta)
    a = maximal_abelian(g, s, seed=a_seed)
    return restricted_root_decomposition(g, a, positivity_basis, theta=th)


def largest_ideal_within(g: LieAlgebra, h: Subspace) -> Subspace:
    """The largest ideal of g contained in h.

    Computed by the decreasing iteration I <- {x in I : [g, x] <= I}, which
    stabilizes after at most dim g steps; the fixed point is exactly the
    largest g-ideal inside h.
    """
    if h.ambient_dim != g.dim:
        raise DimensionMismatch("subspace does not live in the algebra")
    current = h
    while True:
        if current.dim == 0:
            return current
        res = residual_operator(current)
        rows = []
        for j in range(g.dim):
            cols = [mat_apply(res, g.bracket(unit_vector(g.dim, j), u))
                    for u in current.basis]
            for r in range(g.dim):
                rows.append([cols[c][r] for c in range(current.dim)])
        coords = kernel(rows, current.dim)
        nxt = canonical_basis(
            [current.from_coordinates(c) for c in coords.basis], g.dim)
        if nxt == current:
            return current
        current = nxt


# ---------------------------------------------------------------------------
# reductive splitting into center and minimal ideals


@dataclass(frozen=True, eq=False)
class ReductiveSplit:
    """g = center + sum of minimal ideals, each flagged compact iff its own
    Killing form is negative definite (exact signature test)."""

    center: Subspace
    ideals: tuple[tuple[Subspace, bool], ...]

    @property
    def compact_part(self) -> list[Subspace]:
        return [sp for sp, c in self.ideals if c]

    @property
    def noncompact_part(self) -> list[Subspace]:
        return [sp for sp, c in self.ideals if not c]


def _ad_closure(g: LieAlgebra, seed: Subspace) -> Subspace:
    w = seed
    while True:
        nxt = w
        for u in w.basis:
            for j in range(g.dim):
                nxt = subspace_sum(
                    nxt, canonical_basis([g.bracket(unit_vector(g.dim, j), u)], g.dim))
        if nxt == w:
            return w
        w = nxt


def simple_ideal_split(g: LieAlgebra) -> ReductiveSplit:
    """Split a reductive algebra into its center and minimal ideals.

    Candidate ideals are the ad-closures of single basis vectors of [g, g],
    refined by pairwise intersections; the resulting minimal elements are
    then *verified* to commute pairwise, to be Killing-orthogonal and to sum
    directly to [g, g].  If the verification fails a CertificationError is
    raised rather than returning an uncertified decomposition.
    """
    z = g.center()
    der = g.derived_algebra()
    if subspace_intersect(z, der).dim != 0 or subspace_sum(z, der).dim != g.dim:
        raise NotReductive(f"{g.name} is not reductive")
    if der.dim == 0:
        return ReductiveSplit(center=z, ideals=())
    sub = subalgebra(g, der, name=f"[{g.name},{g.name}]")
    bsub = sub.killing_form()
    _, _, nz = symmetric_signature(bsub)
    if nz != 0:
        raise NotReductive(
            f"Killing form of [{g.name},{g.name}] is degenerate; the derived "
            f"algebra is not semisimple")

    cands: list[Subspace] = []
    for i in range(sub.dim):
        c = _ad_closure(sub, canonical_basis([unit_vector(sub.dim, i)], sub.dim))
        if c not in cands:
            cands.append(c)
    changed = True
    while changed:
        changed = False
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                inter = subspace_intersect(cands[i], cands[j])
                if inter.dim > 0 and inter not in cands:
                    cands.append(inter)
                    changed = True
    minimal = [c for c in cands
               if not any(o.dim < c.dim and o.is_contained_in(c) for o in cands)]
    minimal.sort(key=lambda sp: sp.basis)

    # verification
    total = zero_subspace(sub.dim)
    for idx, ideal in enumerate(minimal):
        if subspace_intersect(total, ideal).dim != 0:
            raise CertificationError(
                "minimal ideal candidates overlap; basis does not separate "
                "the simple factors")
        total = subspace_sum(total, ideal)
        for other in minimal[idx + 1:]:
            for u in ideal.basis:
                for v in other.basis:
                    if not is_zero_vector(sub.bracket(u, v)):
                        raise CertificationError(
                            "minimal ideal candidates fail to commute")
                    if bilinear_value(bsub, u, v) != 0:
                        raise CertificationError(
                            "minimal ideal candidates are not Killing-orthogonal")
    if total.dim != sub.dim:
        raise CertificationError(
            "minimal ideals do not reconstruct the derived algebra")

    out = []
    for ideal in minimal:
        gram = restrict_bilinear_form(bsub, ideal)
        sig = symmetric_signature(gram)
        compact = sig == (0, ideal.dim, 0)
        out.append((lift_subspace(ideal, der), compact))
    return ReductiveSplit(center=z, ideals=tuple(out))
