"""Exact nilpotent-orbit geometry.

For a subalgebra u normalized by an element x0 whose ad-action on u is
diagonalizable with negative rational eigenvalues, u is nilpotent by that
grading and the exponential orbit of x0 under u is exactly the affine set
x0 + [x0, u] = x0 + u.  Everything here is finite and rational:
exponentials of nilpotent operators are finite sums, so the orbit identity
can be *checked* on samples and *inverted* exactly by solving one
eigenvalue layer at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from random import Random
from typing import Optional, Sequence

from .errors import (
    CertificationError,
    DimensionMismatch,
    NotClosed,
    NotNilpotent,
    SpectrumError,
    UnreachableTarget,
)
from .liealg import LieAlgebra
from .linalg import (
    DirectSum,
    Scalar,
    Subspace,
    Vector,
    ZERO,
    _div,
    _from_entries,
    _scaled,
    canonical_basis,
    is_zero_vector,
    lin_comb,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)
from .spectral import eigen_split


def _scaled_in(g: LieAlgebra, y: Vector) -> tuple[dict[int, int], int]:
    """A vector of g as (entries, den) (:func:`sphlie.linalg._scaled`),
    after checking its length against dim g."""
    if len(y) != g.dim:
        raise DimensionMismatch(
            f"vector of length {len(y)} in an algebra of dimension {g.dim}")
    return _scaled(dict(compress(enumerate(y), y)))


def _exponent(g: LieAlgebra, x: Vector) -> tuple[list, int]:
    """x as (rows, dx) for :func:`_exp_ad_series`: x = xs / dx for ints
    xs, and rows pairs each nonzero xs_i, in increasing i, with the
    structure-table row g._terms[i]."""
    xs, dx = _scaled_in(g, x)
    return [(c, g._terms[i]) for i, c in xs.items()], dx


def _exp_ad_series(g: LieAlgebra, x: tuple[list, int], y: dict[int, Scalar],
                   den: int) -> tuple[dict[int, Scalar], int]:
    """e^{ad x} applied to y / den, as (entries, den') standing for
    entries / den', for x given by :func:`_exponent` and y and entries by
    {coordinate: value}.

    With x = xs / dx, the k-th term t_k = (ad xs)^k y is formed from
    t_{k-1} over the table rows of xs's nonzero coordinates, at t_{k-1}'s
    nonzero coordinates only, and the partial sum is kept scaled by
    k!·dx^k: S_k = k·dx·S_{k-1} + t_k.  So nothing is divided, and with
    integral structure constants and y every entry stays an int.  The
    series is its own certificate: once t_k = 0 it is exact, and since the
    Krylov space of y has dimension at most dim g, a nonzero t_{dim g}
    raises NotNilpotent.
    """
    rows, dx = x
    total, term = dict(y), y
    for k in range(1, g.dim + 1):
        acc: dict[int, Scalar] = {}
        for j, v in term.items():
            for c, ti in rows:
                if tij := ti[j]:
                    cv = c * v
                    for m, s in tij:
                        acc[m] = acc.get(m, ZERO) + cv * s
        term = {m: v for m, v in acc.items() if v}
        if not term:
            return total, den
        f = k * dx
        den *= f
        for m, v in total.items():
            total[m] = v * f
        for m, v in term.items():
            total[m] = total.get(m, ZERO) + v
    raise NotNilpotent("ad of the given element is not nilpotent on y; "
                       "the exponential series would not terminate")


def _exp_ad_scaled(g: LieAlgebra, exponents: Sequence[tuple[list, int]],
                   y: tuple[dict[int, int], int]) -> tuple[dict[int, int], int]:
    """e^{ad x_1}(…(e^{ad x_k} y)) for the exponents of x_k, …, x_1 in
    that order (:func:`_exponent`), with y and the result given as
    (entries, den): :func:`_exp_ad_series` on one scaled sparse vector,
    with nothing divided."""
    v, den = y
    for x in exponents:
        v, den = _exp_ad_series(g, x, v, den)
    return v, den


def _exp_ad_word(g: LieAlgebra, exponents: Sequence[tuple[list, int]],
                 y: Vector) -> Vector:
    """:func:`_exp_ad_scaled` of the dense vector y, with each nonzero
    entry of the result divided once, at the end."""
    v, den = _exp_ad_scaled(g, exponents, _scaled_in(g, y))
    return _from_entries({m: _div(a, den) for m, a in v.items() if a}, g.dim)


def exp_ad_apply(g: LieAlgebra, element: Vector, y: Vector) -> Vector:
    """e^{ad element} applied to y, as an exact finite series.

    The certificate is the series itself: once (ad element)^k y = 0 the
    finite sum is exact.  The Krylov space of y has dimension at most
    dim g, so if (ad element)^{dim g} y is still nonzero, ad(element) is not
    nilpotent on y and NotNilpotent is raised.  Nilpotency on all of g is
    not re-proved here: derivation_pair reads it for all of u off the
    positive grading by x0, and group_element_candidates for the factors of
    its words off the restricted-root grading.
    The terms are sparse and scaled to ints (:func:`_exp_ad_series`); each
    nonzero entry of the sum is divided once.
    """
    return _exp_ad_word(g, [_exponent(g, element)], y)


@dataclass(frozen=True, eq=False)
class DerivationPair:
    """A nilpotent subalgebra u with an element x0 normalizing it such that
    -ad(x0) acts on u diagonalizably with strictly positive rational
    eigenvalues.

    ``layers`` lists the eigenvalue layers of -ad(x0) on u in ascending
    order; ``bracket_image`` is [x0, u], which equals u (certified at
    construction).
    """

    algebra: LieAlgebra
    x0: Vector
    u: Subspace
    layers: tuple[tuple[Fraction, Subspace], ...]
    bracket_image: Subspace

    @cached_property
    def layer_split(self) -> DirectSum:
        """u = ⊕ layers, built on first use by solve_conjugator."""
        return DirectSum([layer for _, layer in self.layers])


def derivation_pair(g: LieAlgebra, x0: Vector, u: Subspace) -> DerivationPair:
    """Validate and package (x0, u); see DerivationPair for the invariants.

    Checked in order: u is a subalgebra, [x0, u] ⊆ u, and -ad(x0) splits u
    into layers u_λ with rational λ > 0; a layer with λ <= 0 raises
    SpectrumError.  Nilpotency is then read off the grading.  If
    [x0, U] = cU with c ≠ 0, then (ad x0 - μ - c)[U, y] = [U, (ad x0 - μ)y],
    so ad U maps each generalized eigenspace g_μ of ad x0 into g_{μ+c}.
    Every layer has c = -λ < 0, so ad U, for any U ∈ u, strictly lowers the
    real part of the ad x0-eigenvalues and is nilpotent on g; u is then
    nilpotent by Engel's theorem, with no power of a matrix taken.

    These certificates prove the orbit identity e^{ad u}x0 = x0 + [x0, u].
    ad x0 is a derivation, so [u_λ, u_μ] ⊆ u_{λ+μ}, and [x0, u], the sum of
    the layers, is all of u.  (⊆) e^{ad U}x0 - x0 is the finite sum of
    (ad U)^{k-1}[U, x0]/k!, k >= 1, and [U, x0] ∈ [x0, u], which ad U
    keeps.  (⊇) For w ∈ [x0, u] and U = sum of U_λ over the layers, the
    layer-λ part of e^{ad U}x0 - x0 is λ·U_λ plus brackets of the U_μ with
    0 < μ < λ, so U_λ is solved layer by layer, lowest first
    (:func:`solve_conjugator`).
    """
    if len(x0) != g.dim or u.ambient_dim != g.dim:
        raise NotClosed("x0 and u must live in the given algebra")
    if not g.is_subalgebra(u):
        raise NotClosed("u must be a subalgebra")
    brackets = [g.bracket(x0, b) for b in u.basis]
    for w in brackets:
        if not u.contains(w):
            raise NotClosed("[x0, u] is not contained in u")
    neg_ad = tuple(tuple(-e for e in row) for row in g.ad(x0))
    layers = tuple(eigen_split(neg_ad, u))
    if any(lam <= 0 for lam, _ in layers):
        raise SpectrumError(
            "ad(x0) must have negative eigenvalues on u "
            "(equivalently -ad(x0) strictly positive)")
    image = canonical_basis(brackets, g.dim)
    if image != u:
        raise CertificationError(
            "[x0, u] is not all of u, though every eigenvalue layer of "
            "-ad(x0) on u is positive (library bug)")
    return DerivationPair(algebra=g, x0=tuple(x0), u=u,
                          layers=layers, bracket_image=image)


@dataclass(frozen=True)
class OrbitIdentityReport:
    """Outcome of sampling the orbit identity e^{ad U}x0 - x0 ∈ [x0, u]."""

    ok: bool
    samples_run: int
    witness: Optional[Vector] = None   # a U for which the identity failed


_COEFF_POOL = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3, -3, 0,
               Fraction(1, 3))
# the pool times 6, which clears its denominators 1, 2 and 3
_POOL_SIXTHS = tuple(int(6 * c) for c in _COEFF_POOL)


def _draw_indices(dp: DerivationPair, rng: Random) -> list[int]:
    """One index into the pool per basis vector of u.  ``rng.choice`` over
    ``range(len(_COEFF_POOL))`` makes the same ``_randbelow`` call as
    ``rng.choice(_COEFF_POOL)``, so the stream is that of drawing the pool
    values themselves."""
    draws = range(len(_COEFF_POOL))
    return [rng.choice(draws) for _ in dp.u.basis]


def _draw(dp: DerivationPair, rng: Random) -> list[Scalar]:
    """One coefficient from the pool per basis vector of u."""
    return [_COEFF_POOL[k] for k in _draw_indices(dp, rng)]


def random_u_element(dp: DerivationPair, rng: Random) -> Vector:
    return lin_comb(_draw(dp, rng), dp.u.basis, dp.algebra.dim)


def _prepared_basis(g: LieAlgebra, basis: Sequence[Vector]
                    ) -> tuple[list[dict[int, int]], int]:
    """The basis vectors b_i as ints over one denominator, for
    :func:`_pool_exponent`: (B, D) with b_i = B_i / L and D = 6·L, where
    each b_i scales to ints over d_i (:func:`_scaled_in`), L = lcm(d_i),
    and 6 clears the pool's denominators 1, 2 and 3."""
    scaled = [_scaled_in(g, b) for b in basis]
    common = lcm(*[d for _, d in scaled])
    return [{j: a * (common // d) for j, a in e.items()}
            for e, d in scaled], 6 * common


def _pool_exponent(g: LieAlgebra, prepared: tuple[list[dict[int, int]], int],
                   ks: Sequence[int]) -> tuple[list, int]:
    """:func:`_exponent` of U = sum_i _COEFF_POOL[ks[i]]·b_i, for the
    basis prepared by :func:`_prepared_basis`, with no dense vector and no
    Fraction.

    With the pool values as the ints p = 6·c, U = sum_i p_i·B_i / D, so
    its ints are int multiply-adds, divided together with D by their gcd.
    That pair (ints, dx) with gcd(dx, ints) = 1 is unique for U: dx must
    then be the lcm of the denominators of U's entries.  So it is exactly
    what :func:`_exponent` reads off the dense U."""
    basis, common = prepared
    acc: dict[int, int] = {}
    for k, e in zip(ks, basis):
        if p := _POOL_SIXTHS[k]:
            for j, a in e.items():
                acc[j] = acc.get(j, ZERO) + p * a
    content = gcd(common, *acc.values())
    return [(acc[j] // content, g._terms[j]) for j in sorted(acc)
            if acc[j]], common // content


def orbit_identity_check(dp: DerivationPair, samples: int = 100,
                         seed: int = 0) -> OrbitIdentityReport:
    """Sample rational U ∈ u and verify e^{ad U}x0 - x0 ∈ [x0, u] exactly.

    Each U is drawn as :func:`random_u_element` draws it, but as a tuple of
    pool indices (:func:`_draw_indices`), and each distinct draw is checked
    once.  The check is a function of U and a failing draw ends the loop,
    so a draw seen before has passed, and a repeat only counts towards
    ``samples_run``.  The draws range over a grid of 10^k index tuples,
    k = dim u.  When that grid has at most ``samples`` points, a
    ``bytearray`` over it, indexed by sum_i k_i·10^i, marks the draws
    checked, so the memo never exceeds ``samples`` bytes; on a larger grid
    no memo is kept, since ``samples`` draws then rarely repeat.  At the
    default 100 samples the memo covers dim u <= 2.  Once every point of
    the grid has passed, every later draw is a repeat, so the loop stops
    drawing (u = 0 has one point: one series for any sample count).

    u's basis is prepared once per call as ints over one denominator
    (:func:`_prepared_basis`), and each draw's exponent is built from it
    by :func:`_pool_exponent`, which gives exactly the ints and the
    denominator of the dense U; the dense U is formed only as the witness
    of a failing sample.  Membership is linear, so each sample reduces the
    scaled sparse difference den·(e^{ad U}x0 - x0) by [x0, u]'s echelon
    rows (:meth:`Subspace._read_off`), with no division and no dense
    vector.  A sample count below 0 raises DimensionMismatch."""
    if samples < 0:
        raise DimensionMismatch(f"samples must be at least 0, got {samples}")
    g = dp.algebra
    rng = Random(seed)
    x0, den0 = _scaled_in(g, dp.x0)
    prepared = _prepared_basis(g, dp.u.basis)
    base = len(_COEFF_POOL)
    unseen = base ** dp.u.dim
    seen = bytearray(unseen) if unseen <= samples else None
    for i in range(samples):
        ks = _draw_indices(dp, rng)
        if seen is not None:
            key = 0
            for k in reversed(ks):
                key = key * base + k
            if seen[key]:
                continue
            seen[key] = 1
            unseen -= 1
        diff, den = _exp_ad_series(g, _pool_exponent(g, prepared, ks),
                                   x0, den0)
        f = den // den0
        for m, a in x0.items():
            diff[m] -= a * f
        if any(dp.bracket_image._read_off(diff).values()):
            return OrbitIdentityReport(
                ok=False, samples_run=i + 1,
                witness=lin_comb([_COEFF_POOL[k] for k in ks], dp.u.basis,
                                 g.dim))
        if not unseen:
            break
    return OrbitIdentityReport(ok=True, samples_run=samples)


def solve_conjugator(dp: DerivationPair, w: Vector) -> Vector:
    """The exact U ∈ u with e^{ad U}x0 = x0 + w, for w ∈ [x0, u].

    Solves one eigenvalue layer at a time, lowest first.  Since
    [u_λ, u_μ] ⊆ u_{λ+μ}, the layer-λ part of e^{ad U}x0 - x0 is λ·U_λ plus
    brackets of lower layers only, so each layer's part of U is the layer-λ
    part of w - (e^{ad U}x0 - x0) divided by λ.  The answer is verified
    exactly before returning.
    """
    g = dp.algebra
    if not dp.bracket_image.contains(w):
        raise UnreachableTarget("target is not in the bracket image [x0, u]")

    target = vec_add(dp.x0, tuple(w))
    answer = zero_vector(g.dim)
    residual = tuple(w)   # always target - e^{ad answer}x0
    for idx, (lam, _) in enumerate(dp.layers):
        if is_zero_vector(residual):
            continue
        parts = dp.layer_split.components(residual)
        if parts is None:
            raise CertificationError("vector left u during the layer solve "
                                     "(library bug)")
        answer = vec_add(answer, vec_scale(_div(1, lam), parts[idx]))
        residual = vec_sub(target, exp_ad_apply(g, answer, dp.x0))
    if not is_zero_vector(residual):
        raise CertificationError("solved conjugator failed exact "
                                 "verification (library bug)")
    return answer
