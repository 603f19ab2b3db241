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
elements are exact too: every exponential taken is of a nilpotent matrix, so
the series terminate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional

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
    DirectSum,
    Matrix,
    Subspace,
    Vector,
    canonical_basis,
    complement_in,
    exp_nilpotent_matrix,
    identity_matrix,
    image_subspace,
    is_direct_sum,
    lin_comb,
    mat_apply,
    mat_invert,
    mat_mul,
    mat_scale,
    project_along,
    restrict_bilinear_form,
    solve_linear,
    subspace_intersect,
    subspace_sum,
    symmetric_signature,
)
from .parabolic import (
    LeviStructure,
    ParabolicData,
    characteristic_element,
    levi_fine_structure,
    standard_parabolic,
)
from .spectral import eigen_split


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


def is_spherical(pair: SphericalPair) -> tuple[bool, int]:
    """Whether p + h = g, together with the defect dim g - dim(p + h)."""
    cd = pair.cartan
    defect = cd.algebra.dim - subspace_sum(cd.p, pair.h).dim
    return defect == 0, defect


# ---------------------------------------------------------------------------
# adapted parabolic


def candidate_subsets(pair: SphericalPair) -> list[tuple[int, ...]]:
    """All subsets F of the simple roots (as index tuples) whose standard
    parabolic has nilradical complementary to n ∩ h in n.

    All 2^r subsets are accounted for: dim u_F, the summed dimensions of the
    positive root spaces whose support is not inside F, rules out every F
    with dim u_F + dim(n ∩ h) != dim n; the exact test runs on the rest.
    """
    cd = pair.cartan
    nh = subspace_intersect(cd.n, pair.h)
    dims = [(cd.support(r), cd.root_space(r).dim) for r in cd.positive_roots]
    if sum(dim for _, dim in dims) != cd.n.dim:
        raise CertificationError(
            "positive root spaces do not sum directly to n")
    out = []
    indices = range(len(cd.simple_roots))
    for size in range(len(cd.simple_roots) + 1):
        for f in combinations(indices, size):
            dim_u = sum(dim for support, dim in dims
                        if not support.issubset(f))
            if (dim_u + nh.dim == cd.n.dim and is_direct_sum(
                    cd.n, standard_parabolic(cd, f).nilradical, nh)):
                out.append(f)
    return out


def _adapted(pair: SphericalPair
             ) -> tuple[ParabolicData, list[tuple[int, ...]]]:
    """The adapted parabolic together with the passing subsets."""
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
    return standard_parabolic(pair.cartan, passing[0]), passing


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
    nilradical, and ``levi_adjustment`` is the coordinate automorphism
    (a finite exponential product, identity in the standard situation)
    carrying the standard Levi onto the one that works.  ``checks`` records
    the five identities for that Levi; construction fails with the offending
    identity if any is violated.  ``candidates`` are the subsets that passed
    the enumeration (exactly one, the adapted subset).

    ``h_reductive_part`` is h ∩ (z(l) + compact ideals of l) for the
    adjusted Levi; its projection to the noncompact center gives
    ``h_split_part``, whose deterministic complement ``rank_torus`` has
    dimension ``rank``.  ``levi_structure`` describes the standard Levi;
    ``standard_form_h`` is the pull-back of h under the adjustment (equal to
    h whenever no adjustment was needed).
    """

    pair: SphericalPair
    adapted: ParabolicData
    candidates: tuple[tuple[int, ...], ...]
    levi_structure: LeviStructure
    levi_adjustment: Matrix
    standard_form_h: Subspace
    checks: dict[str, bool]
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
        return image_subspace(self.levi_adjustment, self.adapted.levi)


def _levi_adjustment(cd: CartanData, pd: ParabolicData,
                     meet: Subspace) -> Matrix:
    """Coordinate automorphism Phi, a product of exp(ad w) with w in the
    nilradical, such that Phi^{-1}(q ∩ h) lies in the standard Levi.

    Found by peeling the grading of the characteristic element: on each
    eigenvalue layer the requirement is a linear system whose solvability
    the structure theory guarantees; an unsolvable layer is reported.
    """
    g = cd.algebra
    phi = identity_matrix(g.dim)
    if meet.is_contained_in(pd.levi) or pd.nilradical.dim == 0:
        return phi
    grading = mat_scale(Fraction(-1), g.ad(characteristic_element(cd, pd.subset)))
    layers = eigen_split(grading, pd.nilradical)
    split = DirectSum([pd.levi] + [layer for _, layer in layers])
    current = meet
    for k, (lam, layer) in enumerate(layers, start=1):
        if lam <= 0:
            raise CertificationError(
                "nilradical grading has a nonpositive eigenvalue")
        rows = []
        rhs = []
        for x in current.basis:
            parts = split.components(x)
            if parts is None:
                raise CertificationError("q ∩ h escaped the adapted parabolic")
            base, target = parts[0], parts[k]
            cols = [g.bracket(w, base) for w in layer.basis]
            for r in range(g.dim):
                rows.append([cols[c][r] for c in range(layer.dim)])
                rhs.append(target[r])
        sol = solve_linear(rows, rhs) if rows else None
        if sol is None:
            raise CertificationError(
                "no Levi complement of the adapted parabolic contains q ∩ h "
                "(layer system unsolvable); the pair violates the structure "
                "theory hypotheses")
        adw = g.ad(lin_comb(sol, layer.basis, g.dim))
        phi = mat_mul(phi, exp_nilpotent_matrix(adw))
        current = image_subspace(
            exp_nilpotent_matrix(mat_scale(Fraction(-1), adw)), current)
    if not current.is_contained_in(pd.levi):
        raise CertificationError(
            "Levi adjustment did not absorb q ∩ h; the pair violates the "
            "structure theory hypotheses")
    return phi


def structure_report(pair: SphericalPair) -> StructureReport:
    cd = pair.cartan
    g = cd.algebra
    h = pair.h
    pd, passing = _adapted(pair)
    fs = levi_fine_structure(cd, pd.levi)

    phi = _levi_adjustment(cd, pd, subspace_intersect(pd.q, h))
    h_std = image_subspace(mat_invert(phi), h)

    nh = subspace_intersect(cd.n, h)
    lh = subspace_intersect(pd.levi, h_std)
    lp = subspace_intersect(pd.levi, cd.p)
    checks = {
        "q_plus_h_is_g": subspace_sum(pd.q, h) == g.full_space(),
        "q_meets_h_inside_levi":
            subspace_intersect(pd.q, h_std).is_contained_in(pd.levi),
        "noncompact_levi_ideals_in_h":
            fs.noncompact_ideals.is_contained_in(h_std),
        "levi_split_by_p_and_h": subspace_sum(lp, lh) == pd.levi,
        "nilradical_complement": is_direct_sum(cd.n, pd.nilradical, nh),
    }
    failing = [k for k, v in checks.items() if not v]
    if failing:
        raise CertificationError(
            f"local-structure identities failed: {', '.join(failing)}")

    core = subspace_intersect(fs.reductive_complement, h_std)
    if not is_direct_sum(lh, core, fs.noncompact_ideals):
        raise CertificationError(
            "levi ∩ h does not split as (h ∩ (z(l)+compact ideals)) ⊕ "
            "(noncompact ideals)")
    h_split = project_along(core, fs.z_np,
                            subspace_sum(fs.z_cp, fs.compact_ideals))
    rank_torus = complement_in(h_split, fs.z_np)
    rank = rank_torus.dim
    a_in_ln = subspace_intersect(cd.a, fs.noncompact_ideals)
    if cd.a.dim != rank + h_split.dim + a_in_ln.dim:
        raise CertificationError(
            "split torus does not divide into rank + h-part + "
            "noncompact-ideal part")
    return StructureReport(
        pair=pair, adapted=pd, candidates=tuple(passing), levi_structure=fs,
        levi_adjustment=phi, standard_form_h=h_std, checks=checks,
        h_reductive_part=image_subspace(phi, core),
        h_split_part=image_subspace(phi, h_split),
        rank_torus=image_subspace(phi, rank_torus), rank=rank)


# ---------------------------------------------------------------------------
# exact group elements and conjugation


def apply_ad(g: LieAlgebra, element: Matrix, sub: Subspace) -> Subspace:
    """Image of a subspace under conjugation by an invertible matrix.

    The element must normalize g inside the ambient matrix algebra; if a
    conjugated basis vector leaves the span of g this raises.
    """
    out = _conjugated(g, element, sub)
    return canonical_basis(out, g.dim) if out else sub


def _conjugated(g: LieAlgebra, element: Matrix, sub: Subspace) -> list[Vector]:
    """Coordinates of element.v.element^-1 for v in sub's basis, unreduced."""
    inv = mat_invert(element)
    out = []
    for v in sub.basis:
        m = mat_mul(mat_mul(element, g.to_matrix(v)), inv)
        c = g.from_matrix(m)
        if c is None:
            raise NotClosed(
                "conjugation by the element does not preserve the algebra")
        out.append(c)
    return out


def _fmt_root(root: Root) -> str:
    return "(" + ",".join(str(x) for x in root) + ")"


def group_element_candidates(cd: CartanData,
                             seed: int = 0) -> Iterator[tuple[Matrix, str]]:
    """Deterministic stream of exact group elements in the realization of g.

    Order: the identity; one Weyl-type element exp(v) exp(theta v) exp(v) per
    positive-root basis vector; single exponentials exp(t v) of root-space
    basis vectors for small t; then seeded random products of such
    exponentials.  Every factor is the exponential of a nilpotent matrix, so
    all entries are exact rationals.
    """
    g = cd.algebra
    yield identity_matrix(g.matrix_size), "identity"
    for root in sorted(cd.positive_roots):
        for i, v in enumerate(cd.root_space(root).basis):
            m = exp_nilpotent_matrix(g.to_matrix(v))
            tm = exp_nilpotent_matrix(g.to_matrix(mat_apply(cd.theta, v)))
            yield mat_mul(mat_mul(m, tm), m), f"weyl[{_fmt_root(root)}#{i}]"
    pool: list[tuple[str, Matrix]] = []
    for root in sorted(cd.roots):
        for i, v in enumerate(cd.root_space(root).basis):
            pool.append((f"g[{_fmt_root(root)}#{i}]", g.to_matrix(v)))
    for t in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(3), Fraction(-3)):
        for name, m in pool:
            yield exp_nilpotent_matrix(mat_scale(t, m)), f"exp({t}*{name})"
    if not pool:
        return
    rng = random.Random(seed)
    coeffs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-3)]
    while True:
        factors = rng.randint(2, 4)
        acc = identity_matrix(g.matrix_size)
        names = []
        for _ in range(factors):
            name, m = pool[rng.randrange(len(pool))]
            t = coeffs[rng.randrange(len(coeffs))]
            acc = mat_mul(acc, exp_nilpotent_matrix(mat_scale(t, m)))
            names.append(f"exp({t}*{name})")
        yield acc, "*".join(names)


@dataclass(frozen=True, eq=False)
class ConjugationResult:
    """A group element g with p + Ad(g)h = g, found by the candidate stream."""

    element: Matrix
    description: str
    conjugated: Subspace
    attempts: int


def conjugate_search(pair: SphericalPair, budget: int,
                     seed: int = 0) -> Optional[ConjugationResult]:
    """Search up to ``budget`` candidate group elements for one that makes
    the conjugated pair spherical.  Returns None when the budget is exhausted
    (inconclusive — never a proof of non-sphericity).  A pair that is already
    spherical returns the identity on the first attempt."""
    cd = pair.cartan
    attempts = 0
    for element, desc in group_element_candidates(cd, seed):
        if attempts >= budget:
            break
        attempts += 1
        conj = apply_ad(cd.algebra, element, pair.h)
        moved = spherical_pair(cd, conj, label=pair.label)
        if is_spherical(moved)[0]:
            return ConjugationResult(element=element, description=desc,
                                     conjugated=conj, attempts=attempts)
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
    ``witness-of-noncompactness`` or ``inconclusive``.
    """

    verdict: str
    compact_type: bool
    samples_run: int
    witness: Optional[Matrix]
    witness_description: Optional[str]


def compact_transitivity_check(pair: SphericalPair, samples: int = 100,
                               seed: int = 0) -> TransitivityReport:
    cd = pair.cartan
    g = cd.algebra
    h = pair.h
    killing = g.killing_form()
    if symmetric_signature(killing)[2] != 0:
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

    run = 0
    for element, desc in group_element_candidates(cd, seed):
        if run >= samples:
            break
        run += 1
        # one elimination of h's basis and the conjugated basis of p
        moved_p = _conjugated(g, element, cd.p)
        if canonical_basis(list(h.basis) + moved_p, g.dim).dim != g.dim:
            if compact_type:
                raise CertificationError(
                    f"h is compact-type (negative definite invariant form) "
                    f"but h + Ad(g)p != g for g = {desc}")
            return TransitivityReport(
                verdict="witness-of-noncompactness", compact_type=False,
                samples_run=run, witness=element, witness_description=desc)
    if compact_type:
        return TransitivityReport(
            verdict="consistent-with-compact", compact_type=True,
            samples_run=run, witness=None, witness_description=None)
    return TransitivityReport(
        verdict="inconclusive", compact_type=False,
        samples_run=run, witness=None, witness_description=None)
