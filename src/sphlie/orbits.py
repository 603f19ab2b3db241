"""Exact nilpotent-orbit geometry.

For a nilpotent subalgebra u normalized by an element x0 whose ad-action on
u is diagonalizable with nonpositive rational eigenvalues, the exponential
orbit of x0 under u is exactly the affine set x0 + [x0, u].  Everything here
is finite and rational: exponentials of nilpotent operators are finite sums,
so the orbit identity can be *checked* on samples and *inverted* exactly by
peeling one eigenvalue layer at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional

from .errors import (
    CertificationError,
    NotClosed,
    NotNilpotent,
    SpectrumError,
    UnreachableTarget,
)
from .liealg import LieAlgebra
from .linalg import (
    Subspace,
    Vector,
    canonical_basis,
    exp_nilpotent_matrix,
    identity_matrix,
    is_zero_vector,
    lin_comb,
    log_unipotent_matrix,
    mat_is_zero,
    mat_mul,
    solve_linear,
    subspace_sum,
    vec_add,
    vec_scale,
    vec_sub,
    zero_subspace,
    zero_vector,
)
from .spectral import eigen_split


def exp_ad_apply(g: LieAlgebra, element: Vector, y: Vector) -> Vector:
    """e^{ad element} applied to y, as an exact finite series.

    The certificate is the series itself: once (ad element)^k y = 0 the
    finite sum is exact.  The Krylov space of y has dimension at most
    dim g, so if (ad element)^{dim g} y is still nonzero, ad(element) is not
    nilpotent on y and NotNilpotent is raised.  Nilpotency on all of g is
    not re-proved here; derivation_pair certifies it once for all of u.
    """
    out = term = tuple(y)
    for k in range(1, g.dim + 1):
        term = vec_scale(Fraction(1, k), g.bracket(element, term))
        if is_zero_vector(term):
            return out
        out = vec_add(out, term)
    raise NotNilpotent("ad of the given element is not nilpotent on y; "
                       "the exponential series would not terminate")


@dataclass(frozen=True, eq=False)
class DerivationPair:
    """A nilpotent subalgebra u with an element x0 normalizing it such that
    -ad(x0) acts on u diagonalizably with nonnegative rational eigenvalues.

    ``layers`` lists the eigenvalue layers of -ad(x0) on u in ascending
    order; ``bracket_image`` is [x0, u], which equals the sum of the strictly
    positive layers (certified at construction).
    """

    algebra: LieAlgebra
    x0: Vector
    u: Subspace
    layers: tuple[tuple[Fraction, Subspace], ...]
    bracket_image: Subspace


def derivation_pair(g: LieAlgebra, x0: Vector, u: Subspace) -> DerivationPair:
    """Validate and package (x0, u); see DerivationPair for the invariants.

    Besides the lower central series of u, each basis element of u is
    checked to act nilpotently on g.  With u nilpotent (so solvable), Lie's
    theorem makes every eigenvalue of ad(U) linear in U, so this covers
    every U in u, including each sample that orbit_identity_check draws.
    """
    if len(x0) != g.dim or u.ambient_dim != g.dim:
        raise NotClosed("x0 and u must live in the given algebra")
    if not g.is_subalgebra(u):
        raise NotClosed("u must be a subalgebra")
    series = u
    for _ in range(u.dim + 1):
        if series.dim == 0:
            break
        series = canonical_basis(
            [g.bracket(a, b) for a in u.basis for b in series.basis], g.dim)
    else:
        raise NotNilpotent("the lower central series of u does not reach 0")
    for idx, b in enumerate(u.basis):
        ad = power = g.ad(b)
        for _ in range(g.dim):
            if mat_is_zero(power):
                break
            power = mat_mul(power, ad)
        else:
            raise NotNilpotent(f"ad of basis element {idx} of u is not "
                               f"nilpotent on g")
    brackets = [g.bracket(x0, b) for b in u.basis]
    for w in brackets:
        if not u.contains(w):
            raise NotClosed("[x0, u] is not contained in u")
    neg_ad = tuple(tuple(-e for e in row) for row in g.ad(x0))
    layers = tuple(eigen_split(neg_ad, u))
    if any(lam < 0 for lam, _ in layers):
        raise SpectrumError(
            "ad(x0) must have nonpositive eigenvalues on u "
            "(equivalently -ad(x0) nonnegative)")
    image = canonical_basis(brackets, g.dim)
    positive = zero_subspace(g.dim)
    for lam, layer in layers:
        if lam > 0:
            positive = subspace_sum(positive, layer)
    if positive != image:
        raise CertificationError(
            "[x0, u] does not match the positive eigenvalue layers "
            "(library bug)")
    return DerivationPair(algebra=g, x0=tuple(x0), u=u,
                          layers=layers, bracket_image=image)


@dataclass(frozen=True)
class OrbitIdentityReport:
    """Outcome of sampling the orbit identity e^{ad U}x0 - x0 ∈ [x0, u]."""

    ok: bool
    samples_run: int
    witness: Optional[Vector] = None   # a U for which the identity failed


_COEFF_POOL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
               Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-3),
               Fraction(0), Fraction(1, 3))


def random_u_element(dp: DerivationPair, rng: Random) -> Vector:
    coeffs = [rng.choice(_COEFF_POOL) for _ in dp.u.basis]
    return lin_comb(coeffs, dp.u.basis, dp.algebra.dim)


def orbit_identity_check(dp: DerivationPair, samples: int = 100,
                         seed: int = 0) -> OrbitIdentityReport:
    """Sample rational U ∈ u and verify e^{ad U}x0 - x0 ∈ [x0, u] exactly."""
    g = dp.algebra
    rng = Random(seed)
    for i in range(samples):
        u_elt = random_u_element(dp, rng)
        diff = vec_sub(exp_ad_apply(g, u_elt, dp.x0), dp.x0)
        if not dp.bracket_image.contains(diff):
            return OrbitIdentityReport(ok=False, samples_run=i + 1,
                                       witness=u_elt)
    return OrbitIdentityReport(ok=True, samples_run=samples)


def _layer_components(dp: DerivationPair, v: Vector) -> list[Vector]:
    """Decompose v ∈ u into its eigenvalue-layer components."""
    cols = [b for _, layer in dp.layers for b in layer.basis]
    rows = [[b[i] for b in cols] for i in range(dp.algebra.dim)]
    sol = solve_linear(rows, list(v))
    if sol is None:
        raise CertificationError("vector left u during layer peeling "
                                 "(library bug)")
    out = []
    offset = 0
    for _, layer in dp.layers:
        out.append(lin_comb(sol[offset:offset + layer.dim], layer.basis,
                            dp.algebra.dim))
        offset += layer.dim
    return out


def solve_conjugator(dp: DerivationPair, w: Vector) -> Vector:
    """The exact U ∈ u with e^{ad U}x0 = x0 + w, for w ∈ [x0, u].

    Peels one eigenvalue layer at a time, lowest first: on the layer of
    -ad(x0)-eigenvalue λ > 0 the equation linearizes with coefficient λ.
    The final answer is recombined through an exact matrix logarithm and
    verified before returning.
    """
    g = dp.algebra
    if not dp.bracket_image.contains(w):
        if dp.u.contains(w):
            raise UnreachableTarget(
                "target has a nonzero component in the zero-eigenvalue "
                "layer of u, which [x0, u] misses")
        raise UnreachableTarget("target is not in the bracket image [x0, u]")

    exponents: list[Vector] = []
    current = tuple(w)
    for idx, (lam, _) in enumerate(dp.layers):
        if lam == 0 or is_zero_vector(current):
            continue
        comp = _layer_components(dp, current)[idx]
        if is_zero_vector(comp):
            continue
        step = vec_scale(Fraction(1) / lam, comp)
        exponents.append(step)
        moved = exp_ad_apply(g, vec_scale(-1, step), vec_add(dp.x0, current))
        current = vec_sub(moved, dp.x0)
    if not is_zero_vector(current):
        raise CertificationError("layer peeling left a nonzero residue "
                                 "(library bug)")

    if not exponents:
        answer: Vector = zero_vector(g.dim)
    elif len(exponents) == 1:
        answer = exponents[0]
    else:
        phi = identity_matrix(g.dim)
        for step in exponents:
            phi = mat_mul(phi, exp_nilpotent_matrix(g.ad(step)))
        log = log_unipotent_matrix(phi)
        ads = [g.ad(b) for b in dp.u.basis]
        rows = [[ad[r][c] for ad in ads]
                for r in range(g.dim) for c in range(g.dim)]
        rhs = [log[r][c] for r in range(g.dim) for c in range(g.dim)]
        sol = solve_linear(rows, rhs)
        if sol is None:
            raise CertificationError(
                "matrix logarithm of the peeled product is not ad of a "
                "u-element (library bug)")
        answer = lin_comb(sol, dp.u.basis, g.dim)

    if exp_ad_apply(g, answer, dp.x0) != vec_add(dp.x0, tuple(w)):
        raise CertificationError("solved conjugator failed exact "
                                 "verification (library bug)")
    return answer
