"""Open-orbit testing, the adapted parabolic, local structure and rank.

A subalgebra h of g is *spherical* for the chosen minimal parabolic
p = m + a + n when p + h = g (the orbit of the base point is open).  For a
spherical pair there is a unique standard parabolic q = l + u above p whose
nilradical complements n intersect h inside n; the local structure of the
pair lives in that q: h meets q inside the Levi l, the noncompact ideals of
l sit inside h, and the split-torus directions of a divide among h, the
noncompact ideals, and a remainder whose dimension is the real rank of the
pair.

All verifications are exact identities of rational subspaces.  Group
elements are exact too.  Each candidate is a word exp(x_1)···exp(x_k) with
x_i ∈ g in coordinates (GroupWord).  Every factor of group_element_candidates
is a restricted-root vector, so the root grading makes its matrix and its
ad nilpotent, and every series terminates.  A word acts on g by
Ad = e^{ad x_1}∘…∘e^{ad x_k}, in g's structure constants; its matrix is
multiplied out only when a caller reads ConjugationResult.element or
TransitivityReport.witness.

The sampled identities depend on a coset of P only.  For x ∈ p with a
finite series, e^{ad x} maps p onto p, so p + Ad(q)V = Ad(q)(p + V) has
the dimension of p + V for q = exp(x).  So conjugate_search drops a word's
leading factors in p and compact_transitivity_check its trailing ones
(:func:`_trimmed_defect`), and a word with every factor in p costs no
series and no rank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    CertificationError,
    DimensionMismatch,
    NotClosed,
    NotReductive,
    NotSpherical,
    UniquenessViolation,
)
from .liealg import (
    CartanData,
    LieAlgebra,
    Root,
    largest_ideal_within,
)
from .linalg import (
    Matrix,
    Scalar,
    Subspace,
    Vector,
    _div,
    _scaled,
    canonical_basis,
    complement_in,
    exp_nilpotent_matrix,
    identity_matrix,
    int_rank,
    is_direct_sum,
    lin_comb,
    mat_apply,
    mat_mul,
    restrict_bilinear_form,
    solve_linear,
    subspace_intersect,
    subspace_sum,
    symmetric_signature,
    vec_scale,
)
from .orbits import (
    _exp_ad_scaled,
    _exp_ad_word,
    _exponent,
    _scaled_in,
    solve_conjugator,
)
from .parabolic import (
    LeviStructure,
    ParabolicData,
    levi_fine_structure,
    standard_parabolic,
)


@dataclass(frozen=True, eq=False)
class SphericalPair:
    """A validated pair: restricted-root data plus a subalgebra h."""

    cartan: CartanData
    h: Subspace
    label: str = ""

    @property
    def algebra(self) -> LieAlgebra:
        return self.cartan.algebra


def spherical_pair(cd: CartanData, h: Subspace, label: str = "") -> SphericalPair:
    g = cd.algebra
    if h.ambient_dim != g.dim:
        raise DimensionMismatch(
            f"h lives in dimension {h.ambient_dim}, the algebra in {g.dim}")
    if not g.is_subalgebra(h):
        raise NotClosed("h is not closed under the bracket")
    return SphericalPair(cartan=cd, h=h, label=label)


def _open_defect(cd: CartanData, vectors: Iterable[dict[int, Scalar]]
                 ) -> int:
    """dim g - dim(p + span vectors), for vectors given by their entries
    {coordinate: value} at any nonzero scale, such as the series' scaled
    ints.

    Each vector's residual modulo p (:meth:`Subspace._read_off`) lies in
    p's non-pivot coordinates, and the residuals' rank is
    dim(p + span vectors) - dim p.  A rank does not depend on the scale of
    a row, so each residual is scaled to ints by its entries' least common
    denominator, which is 1 when p's echelon rows and the vector are
    integral, and :func:`int_rank` ranks them in one fraction-free
    elimination."""
    rank = int_rank([_scaled(cd.p._read_off(v))[0] for v in vectors])
    return cd.algebra.dim - cd.p.dim - rank


def is_spherical(pair: SphericalPair) -> tuple[bool, int]:
    """Whether p + h = g, together with the defect dim g - dim(p + h)."""
    g = pair.algebra
    defect = _open_defect(pair.cartan,
                          [_scaled_in(g, v)[0] for v in pair.h.basis])
    return defect == 0, defect


# ---------------------------------------------------------------------------
# adapted parabolic


class _Subsets(list):
    """The passing subsets, as :func:`candidate_subsets` returns them, with
    ``parabolics``: the ParabolicData its exact test built for each."""

    parabolics: list[ParabolicData]


def candidate_subsets(pair: SphericalPair) -> list[tuple[int, ...]]:
    """All subsets F of the simple roots (as index tuples) whose standard
    parabolic has nilradical complementary to n ∩ h in n, in the order of
    :func:`itertools.combinations`: size first, then lexicographic.

    All 2^r subsets are accounted for by a depth-first walk over bit masks
    that adds simple roots in increasing index order.  dim u_F, the summed
    dimensions of the positive root spaces whose support is not inside F,
    only falls as F grows: a root outside u_F stays outside a larger F', and
    F ∪ {i} moves at least g_{alpha_i} out of u_F.  F can pass only if
    dim u_F + dim(n ∩ h) = dim n.  So a branch stops at the first F with
    dim u_F <= dim n - dim(n ∩ h), since every F' above it has a smaller
    dim u_F', and the exact test runs on the F where equality holds.
    """
    cd = pair.cartan
    nh = subspace_intersect(cd.n, pair.h)
    dims = [(sum(1 << i for i in support), space.dim)
            for space, support, positive, _ in cd._table if positive]
    if sum(dim for _, dim in dims) != cd.n.dim:
        raise CertificationError(
            "positive root spaces do not sum directly to n")
    r, target = len(cd.simple_roots), cd.n.dim - nh.dim
    sized = []
    stack = [(0, 0)]  # (bit mask of F, the first index F may still add)
    while stack:
        mask, start = stack.pop()
        dim_u = sum(dim for support, dim in dims if support & ~mask)
        if dim_u == target:
            sized.append(tuple(i for i in range(r) if mask >> i & 1))
        elif dim_u > target:
            stack.extend((mask | 1 << i, i + 1) for i in range(start, r))
    out = _Subsets()
    out.parabolics = []
    for f in sorted(sized, key=lambda f: (len(f), f)):
        pd = standard_parabolic(cd, f)
        if is_direct_sum(cd.n, pd.nilradical, nh):
            out.append(f)
            out.parabolics.append(pd)
    return out


def _adapted(pair: SphericalPair
             ) -> tuple[ParabolicData, list[tuple[int, ...]]]:
    """The adapted parabolic, as the enumeration built it, together with
    the passing subsets."""
    ok, defect = is_spherical(pair)
    if not ok:
        raise NotSpherical(
            f"p + h has defect {defect}; no adapted parabolic exists at the "
            f"base point (try a conjugate search)")
    passing = candidate_subsets(pair)
    if len(passing) != 1:
        raise UniquenessViolation(
            f"{len(passing)} subsets of the simple roots pass the "
            f"complementarity test (expected exactly one): {passing}")
    return passing.parabolics[0], passing


def adapted_parabolic(pair: SphericalPair) -> ParabolicData:
    """The unique standard parabolic q = l + u with u complementary to
    n ∩ h in n.  Requires the pair to be spherical; exactly one subset must
    pass (zero or several passing subsets is reported, not repaired)."""
    return _adapted(pair)[0]


# ---------------------------------------------------------------------------
# structure report


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Exactly verified local structure of a spherical pair.

    The defining identities hold for *some* Levi complement of the adapted
    parabolic; the complements are all conjugate under exponentials of the
    nilradical, and ``levi_adjustment`` is the one-factor GroupWord exp(U),
    U in the nilradical, whose Ad carries the standard Levi onto one that
    contains q ∩ h, or the empty word when the standard Levi does; among
    several such Levis it takes the one :func:`_levi_adjustment` solves for
    with free coordinates 0.  ``candidates`` are the subsets that passed the
    enumeration (exactly one, the adapted subset).

    ``checks`` names five identities, all true.  Construction tests one,
    ``noncompact_levi_ideals_in_h`` (l_n ⊆ h_std), and fails naming it.
    The certificates behind the report prove the rest, with e = exp(U)
    the adjustment, h_std = Ad(e⁻¹)h and l = z_g(x0), as α(x0) =
    -Σ_{i∉F} nᵢ is 0 exactly when supp α ⊆ F:

    - ``nilradical_complement``: the enumeration's exact test
      n = u ⊕ (n ∩ h) passed the adapted subset;
    - ``q_plus_h_is_g``: :func:`_adapted` certified p + h = g, and p ⊆ q,
      as q holds g_0 and every positive root space;
    - ``q_meets_h_inside_levi``: the solve gives [x0 + w, q ∩ h] = 0 and
      solve_conjugator e^{ad U}x0 = x0 + w, so q ∩ h ⊆ z_g(x0 + w) = Ad(e)l,
      and U ∈ u ⊆ q, so Ad(e⁻¹) maps q onto q and q ∩ h_std ⊆ l (for the
      empty word, the adjustment's containment test is the proof);
    - ``levi_split_by_p_and_h``: U ∈ u ⊆ n, so Ad(e⁻¹) fixes p and
      p + h_std = g.  Write x ∈ l as y + z, y ∈ p, z ∈ h_std: then
      z = x - y ∈ q ∩ h_std ⊆ l, so y ∈ l ∩ p.

    The last proof and the next read only q ∩ h_std ⊆ l, so they hold for
    any Levi of q that contains q ∩ h.  ``standard_reductive_part``, core,
    is h_std ∩ (z(l) + l_c), and l ∩ h_std = core ⊕ l_n by l_n ⊆ h_std and
    l = z(l) ⊕ l_c ⊕ l_n (:func:`~sphlie.parabolic.levi_fine_structure`).
    core lies in z_np ⊕ (z(l)_cp + l_c), so its projection to z_np along
    the second summand is (core + z(l)_cp + l_c) ∩ z_np: x = z + c in core
    puts z = x - c in it, and y = x + c in it is the z_np-part of x.  That
    is the standard form of ``h_split_part``; its pivot complement in z_np,
    the standard ``rank_torus``, has dim ``rank`` = dim z_np - dim h_split,
    and with a = z_np ⊕ (a ∩ l_n) (proved in ``levi_fine_structure``) the
    split torus divides as dim a = rank + dim h_split + dim(a ∩ l_n).  ``h_reductive_part``,
    ``h_split_part`` and ``rank_torus`` are moved by Ad(e);
    ``levi_structure`` describes the standard Levi; ``standard_form_h`` is
    h_std (h itself for the empty word).
    """

    pair: SphericalPair
    adapted: ParabolicData
    candidates: tuple[tuple[int, ...], ...]
    levi_structure: LeviStructure
    levi_adjustment: GroupWord
    standard_form_h: Subspace
    checks: dict[str, bool]
    standard_reductive_part: Subspace
    h_reductive_part: Subspace
    h_split_part: Subspace
    rank_torus: Subspace
    rank: int

    @property
    def adapted_subset(self) -> tuple[int, ...]:
        return self.adapted.subset_indices

    @property
    def candidates_passing(self) -> int:
        return len(self.candidates)

    @property
    def adjusted_levi(self) -> Subspace:
        return self.levi_adjustment.image(self.adapted.levi)


def _levi_adjustment(cd: CartanData, pd: ParabolicData,
                     meet: Subspace) -> GroupWord:
    """The one-factor word exp(U), U in the nilradical u, whose Ad carries
    the standard Levi l onto a Levi complement of q containing
    meet = q ∩ h; the empty word when l contains it.

    l is the centralizer of the characteristic element x0, so Ad(exp U)
    maps it onto the centralizer of e^{ad U}x0, and x0 + u = e^{ad u}x0
    (:func:`~sphlie.orbits.orbit_identity_check`).  So one linear system
    in w's coordinates on u's basis solves [x0 + w, m] = 0 for every m in
    meet, with free coordinates 0 when several Levis contain it
    (z_u(meet) ≠ 0), and :func:`~sphlie.orbits.solve_conjugator` on
    ``pd.derivation`` gives U with e^{ad U}x0 = x0 + w.  An unsolvable
    system means no Levi complement contains meet; it is reported.
    """
    g = cd.algebra
    if meet.is_contained_in(pd.levi):
        return GroupWord(g, ())
    dp = pd.derivation
    rows = []
    rhs = []
    for m in meet.basis:
        # sum_j c_j [b_j, m] = [m, x0]: one row per coordinate of g
        rows.extend(zip(*[g.bracket(b, m) for b in dp.u.basis]))
        rhs.extend(g.bracket(m, dp.x0))
    sol = solve_linear(rows, rhs)
    if sol is None:
        raise CertificationError(
            "no Levi complement of the adapted parabolic contains q ∩ h; "
            "the pair violates the structure theory hypotheses")
    w = lin_comb(sol, dp.u.basis, g.dim)
    return GroupWord(g, (solve_conjugator(dp, w),))


_CHECKS = ("q_plus_h_is_g", "q_meets_h_inside_levi",
           "noncompact_levi_ideals_in_h", "levi_split_by_p_and_h",
           "nilradical_complement")


def structure_report(pair: SphericalPair) -> StructureReport:
    """The local structure of a spherical pair; :class:`StructureReport`
    proves every identity but the one this tests, l_n ⊆ h_std."""
    cd = pair.cartan
    pd, passing = _adapted(pair)
    fs = levi_fine_structure(pd)
    word = _levi_adjustment(cd, pd, subspace_intersect(pd.q, pair.h))
    h_std = word.inverse.image(pair.h)
    if not fs.noncompact_ideals.is_contained_in(h_std):
        raise CertificationError("local-structure identities failed: "
                                 "noncompact_levi_ideals_in_h")
    core = subspace_intersect(fs.reductive_complement, h_std)
    h_split = subspace_intersect(subspace_sum(core, fs.compact_part),
                                 fs.z_np)
    rank_torus = complement_in(h_split, fs.z_np)
    return StructureReport(
        pair=pair, adapted=pd, candidates=tuple(passing), levi_structure=fs,
        levi_adjustment=word, standard_form_h=h_std,
        checks=dict.fromkeys(_CHECKS, True),
        standard_reductive_part=core, h_reductive_part=word.image(core),
        h_split_part=word.image(h_split),
        rank_torus=word.image(rank_torus), rank=rank_torus.dim)


# ---------------------------------------------------------------------------
# exact group elements and conjugation


@dataclass(frozen=True, eq=False)
class GroupWord:
    """The group element exp(x_1)···exp(x_k), held as its factors x_i ∈ g
    in coordinates; the empty word is the identity.

    Ad(exp X) = e^{ad X} for every matrix X, so Ad(word) is
    e^{ad x_1}∘…∘e^{ad x_k} and acts through g's structure constants with no
    matrix product or inverse.  ``ad`` and ``image`` need only ad-nilpotent
    factors, which the exponential series certifies per vector;
    ``matrix``, multiplied out on first use, also needs nilpotent matrices
    and raises DimensionMismatch otherwise.
    """

    algebra: LieAlgebra
    factors: tuple[Vector, ...]

    def ad(self, y: Vector) -> Vector:
        """Ad(word) y = e^{ad x_1}(…(e^{ad x_k} y)), with y kept sparse
        and scaled to ints across all the factors."""
        return _exp_ad_word(self.algebra, self._exponents, y)

    @cached_property
    def _exponents(self) -> tuple:
        """The factors prepared for the series, last factor first."""
        return tuple(_exponent(self.algebra, x)
                     for x in reversed(self.factors))

    def image(self, sub: Subspace) -> Subspace:
        """Ad(word) sub in its canonical basis; sub itself for the empty
        word."""
        if not self.factors:
            return sub
        return canonical_basis([self.ad(v) for v in sub.basis],
                               sub.ambient_dim)

    @cached_property
    def inverse(self) -> GroupWord:
        """word⁻¹ = exp(-x_k)···exp(-x_1)."""
        return GroupWord(self.algebra, tuple(
            tuple([-a for a in x]) for x in reversed(self.factors)))

    @cached_property
    def matrix(self) -> Matrix:
        g = self.algebra
        acc = identity_matrix(g.matrix_size)
        for x in self.factors:
            acc = mat_mul(acc, exp_nilpotent_matrix(g.to_matrix(x)))
        return acc


def _fmt_root(root: Root) -> str:
    return "(" + ",".join(str(x) for x in root) + ")"


@dataclass(frozen=True, eq=False)
class _Factor:
    """A factor x of a sampled word, prepared once per stream: the dense
    ``vector``, its series ``exponent`` (:func:`sphlie.orbits._exponent`)
    and ``in_p``, whether x ∈ p, read off the sign of x's root."""

    vector: Vector
    exponent: tuple[list, int]
    in_p: bool

    @cached_property
    def negated(self) -> tuple[list, int]:
        """The exponent of -x: the same rows, each int negated."""
        rows, dx = self.exponent
        return [(-c, t) for c, t in rows], dx


def _prepared_words(cd: CartanData, seed: int
                    ) -> Iterator[tuple[tuple[_Factor, ...], str]]:
    """The stream of :func:`group_element_candidates`, each word as its
    prepared factors.

    A random-product factor t·v, for v a pool vector and t a coefficient,
    is prepared the first time a word uses it and shared by every later
    word.  p-membership is read off the root table: p = g_0 ⊕ n, so a pool
    vector in g_α is in p exactly when α is positive, and a Weyl factor v
    of a positive root is in p while θv, in g_-α (certified by
    :func:`~sphlie.liealg._root_decomposition`), is not.

    Every factor x lies in a root space g_α, α ≠ 0, so [h, x] = c·x for
    some h ∈ a with c = α(h) ≠ 0, and as n x n matrices [h, x^k] = kc·x^k.
    The nonzero powers x^k are eigenvectors of [h, ·] on the n x n
    matrices with distinct eigenvalues, so finitely many, and the matrix x
    is nilpotent.  So is ad x, which maps each g_β into g_{β+α}: every
    series of a word terminates."""
    g = cd.algebra
    yield (), "identity"
    # cd.roots is sorted, and the table follows it
    roots = list(zip(cd.roots, cd._table))
    weyl = [(root, i, v, mat_apply(cd.theta, v))
            for root, (space, _, positive, _) in roots if positive
            for i, v in enumerate(space.basis)]
    pool = [(f"g[{_fmt_root(root)}#{i}]", v, positive)
            for root, (space, _, positive, _) in roots
            for i, v in enumerate(space.basis)]

    def prepare(x: Vector, in_p: bool) -> _Factor:
        return _Factor(x, _exponent(g, x), in_p)

    for root, i, v, tv in weyl:
        tv = vec_scale(_div(-2, cd.root_value(root, g.bracket(v, tv))), tv)
        fv = prepare(v, True)
        yield (fv, prepare(tv, False), fv), f"weyl[{_fmt_root(root)}#{i}]"
    prepared: dict[tuple[int, Scalar], tuple[_Factor, str]] = {}

    def factor(k: int, t: Scalar) -> tuple[_Factor, str]:
        """The prepared factor t·pool[k] with its description."""
        f = prepared.get((k, t))
        if f is None:
            name, v, in_p = pool[k]
            f = prepared[k, t] = (prepare(vec_scale(t, v), in_p),
                                  f"exp({t}*{name})")
        return f

    for t in (1, -1, 2, -2, 3, -3):
        for k in range(len(pool)):
            f, name = factor(k, t)
            yield (f,), name
    if not pool:
        return
    rng = random.Random(seed)
    coeffs = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3, -3]
    while True:
        # rng draws in the order: length, then pool index and coefficient
        # per factor
        picks = [factor(rng.randrange(len(pool)),
                        coeffs[rng.randrange(len(coeffs))])
                 for _ in range(rng.randint(2, 4))]
        yield tuple(f for f, _ in picks), "*".join(n for _, n in picks)


def group_element_candidates(cd: CartanData, seed: int = 0
                             ) -> Iterator[tuple[GroupWord, str]]:
    """Deterministic stream of exact group elements in the realization of g,
    each a GroupWord with its description.

    Order: the identity; one Weyl representative exp(v) exp(t theta v) exp(v)
    per positive-root basis vector v, t = -2/alpha([v, theta v]) at any
    scale of v; single exponentials exp(t v) of root-space basis vectors
    for small t; then seeded random products of such exponentials.  After
    the identity, every factor is a restricted-root vector, whose matrix
    the root grading makes nilpotent (:func:`_prepared_words`), so every
    factor's exponential is a finite exact series.  A word's ``matrix`` is
    multiplied out only when asked for.
    """
    for factors, desc in _prepared_words(cd, seed):
        yield GroupWord(cd.algebra, tuple(f.vector for f in factors)), desc


def _trimmed_defect(cd: CartanData, basis: Sequence[tuple[dict[int, int], int]],
                    factors: Sequence[_Factor], inverse: bool, known: int
                    ) -> int:
    """dim g - dim(p + Ad(w)V) for the word w of ``factors``, or
    dim g - dim(p + Ad(w⁻¹)V) when ``inverse``, with V spanned by
    ``basis`` given as (entries, den); ``known`` is the defect of V itself.

    In the order the series applies them, Ad(w) is e^{ad x_k}, …,
    e^{ad x_1} and Ad(w⁻¹) is e^{-ad x_1}, …, e^{-ad x_k}.  A factor x ∈ p
    applied last drops out: ad x maps the subalgebra p into p, so
    e^{ad ±x}, invertible with a finite series, maps p onto p, and
    p + e^{ad ±x}U = e^{ad ±x}(p + U) has the dimension of p + U.  The
    trailing run of such factors is dropped, and a word with none left has
    the defect ``known`` with no series and no rank; otherwise V is moved
    by the rest and :func:`_open_defect` ranks it once."""
    steps = list(factors) if inverse else list(reversed(factors))
    while steps and steps[-1].in_p:
        steps.pop()
    if not steps:
        return known
    exponents = [f.negated if inverse else f.exponent for f in steps]
    g = cd.algebra
    return _open_defect(
        cd, [_exp_ad_scaled(g, exponents, v)[0] for v in basis])


@dataclass(frozen=True, eq=False)
class ConjugationResult:
    """A group element g with p + Ad(g)h = g, found by the candidate stream.
    ``element`` is its matrix, multiplied out from ``word`` when read."""

    word: GroupWord
    description: str
    conjugated: Subspace
    attempts: int

    @property
    def element(self) -> Matrix:
        return self.word.matrix


def conjugate_search(pair: SphericalPair, budget: int,
                     seed: int = 0) -> Optional[ConjugationResult]:
    """Search up to ``budget`` candidate group elements for one that makes
    the conjugated pair spherical.  Returns None when the budget is exhausted
    (inconclusive — never a proof of non-sphericity).  A pair that is already
    spherical returns the identity on the first attempt.  A budget below 0
    raises DimensionMismatch.

    p + Ad(q·w)h = Ad(q)(p + Ad(w)h) for q ∈ P, so each attempt drops the
    word's leading factors in p (:func:`_trimmed_defect`).  A word with
    every factor in p has the identity's defect, which is read once, before
    the first attempt; any other word moves h's basis, scaled to ints once
    per call, by the rest of its series, and one integer rank decides it.
    Ad(word) is an automorphism, so the moved h needs no closure check.
    Only the winner's h is moved by its full word and canonicalised, and no
    matrix is built unless the result's ``element`` is read."""
    if budget < 0:
        raise DimensionMismatch(f"budget must be at least 0, got {budget}")
    cd = pair.cartan
    g = cd.algebra
    basis = [_scaled_in(g, v) for v in pair.h.basis]
    known = is_spherical(pair)[1]
    attempts = 0
    for factors, desc in _prepared_words(cd, seed):
        if attempts >= budget:
            break
        attempts += 1
        if _trimmed_defect(cd, basis, factors, False, known) == 0:
            word = GroupWord(g, tuple(f.vector for f in factors))
            return ConjugationResult(
                word=word, description=desc, attempts=attempts,
                conjugated=word.image(pair.h))
    return None


# ---------------------------------------------------------------------------
# compact transitivity


@dataclass(frozen=True, eq=False)
class TransitivityReport:
    """Sampled verdict on h + Ad(g)p = g for group elements g.

    ``compact_type`` records whether the invariant form is negative definite
    on h; a compact-type subalgebra must satisfy the identity for every g,
    while a non-compact-type one must fail it somewhere.  Sampling can only
    certify a witness of failure; verdicts are ``consistent-with-compact``,
    ``witness-of-noncompactness`` or ``inconclusive``.  ``witness`` is the
    failing element's matrix, multiplied out from ``witness_word`` when
    read.
    """

    verdict: str
    compact_type: bool
    samples_run: int
    witness_word: Optional[GroupWord]
    witness_description: Optional[str]

    @property
    def witness(self) -> Optional[Matrix]:
        return None if self.witness_word is None else self.witness_word.matrix


def compact_transitivity_check(pair: SphericalPair, samples: int = 100,
                               seed: int = 0) -> TransitivityReport:
    """Sample the candidate stream for a g with h + Ad(g)p != g.  A sample
    count below 0 raises DimensionMismatch.

    Each sample tests the equivalent identity Ad(g⁻¹)h + p = g.  For
    g = w·q with q ∈ P, Ad(g⁻¹)h + p = Ad(q⁻¹)(Ad(w⁻¹)h + p), so the word's
    trailing factors in p drop out (:func:`_trimmed_defect`).  A word with
    every factor in p has the defect of h, 0 once is_spherical has passed,
    and costs no series and no rank.  Any other word moves h's basis,
    scaled to ints once per call, by the series of the rest of its inverse,
    whose exponents are the prepared factors' own, negated, and one integer
    rank decides it.  No matrix is built, inverted or multiplied, and on
    integral data no Fraction is built."""
    if samples < 0:
        raise DimensionMismatch(f"samples must be at least 0, got {samples}")
    cd = pair.cartan
    g = cd.algebra
    h = pair.h
    killing = g.killing_form()
    if int_rank([_scaled_in(g, row)[0] for row in killing]) != g.dim:
        raise NotReductive(
            "the transitivity criterion needs a semisimple algebra; the "
            "Killing form is degenerate")
    ideal = largest_ideal_within(g, h)
    if ideal.dim != 0:
        raise CertificationError(
            f"h contains a nonzero ideal of g (dimension {ideal.dim}); the "
            f"transitivity criterion does not apply")
    ok, defect = is_spherical(pair)
    if not ok:
        raise NotSpherical(f"p + h has defect {defect}")

    gram = restrict_bilinear_form(killing, h)
    compact_type = symmetric_signature(gram) == (0, h.dim, 0)

    basis = [_scaled_in(g, v) for v in h.basis]
    run = 0
    for factors, desc in _prepared_words(cd, seed):
        if run >= samples:
            break
        run += 1
        if _trimmed_defect(cd, basis, factors, True, 0) != 0:
            if compact_type:
                raise CertificationError(
                    f"h is compact-type (negative definite invariant form) "
                    f"but h + Ad(g)p != g for g = {desc}")
            return TransitivityReport(
                verdict="witness-of-noncompactness", compact_type=False,
                samples_run=run,
                witness_word=GroupWord(g, tuple(f.vector for f in factors)),
                witness_description=desc)
    if compact_type:
        return TransitivityReport(
            verdict="consistent-with-compact", compact_type=True,
            samples_run=run, witness_word=None, witness_description=None)
    return TransitivityReport(
        verdict="inconclusive", compact_type=False,
        samples_run=run, witness_word=None, witness_description=None)
