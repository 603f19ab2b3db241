"""Exact nilpotent-orbit geometry.

For a subalgebra u normalized by an element x0 whose ad-action on u is
diagonalizable with negative rational eigenvalues, u is nilpotent by that
grading and the exponential orbit of x0 under u is exactly the affine set
x0 + [x0, u] = x0 + u, by finite rational series.  The identity is
*proved* from the grading, read off the root table for a standard
parabolic or checked by :func:`derivation_pair` for a given (x0, u), and
*inverted* one eigenvalue layer at a time (:func:`solve_conjugator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Sequence

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
    is_zero_vector,
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
    not re-proved here: the positive grading by x0 gives it for all of u
    (:class:`DerivationPair`), and the restricted-root grading for the
    factors of group_element_candidates' words.
    The terms are sparse and scaled to ints (:func:`_exp_ad_series`); each
    nonzero entry of the sum is divided once.  :func:`solve_conjugator`
    verifies its answer with this series; the orbit identity itself is
    proved, not evaluated (:func:`derivation_pair`).
    """
    return _exp_ad_word(g, [_exponent(g, element)], y)


@dataclass(frozen=True, eq=False)
class DerivationPair:
    """A nilpotent subalgebra u with an element x0 normalizing it such that
    -ad(x0) acts on u diagonalizably with strictly positive rational
    eigenvalues.

    ``layers`` lists the eigenvalue layers of -ad(x0) on u in ascending
    order.  Every layer has λ > 0, so ad x0 is invertible on u and
    [x0, u] = u: u is also the bracket image that :func:`solve_conjugator`
    inverts onto.
    """

    algebra: LieAlgebra
    x0: Vector
    u: Subspace
    layers: tuple[tuple[Fraction, Subspace], ...]

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
    ad x0 is a derivation, so [u_λ, u_μ] ⊆ u_{λ+μ}, and ad x0 is -λ ≠ 0 on
    each layer, so [x0, u], the sum of the layers, is all of u.  (⊆)
    e^{ad U}x0 - x0 is the finite sum of (ad U)^{k-1}[U, x0]/k!, k >= 1,
    and [U, x0] ∈ [x0, u], which ad U keeps.  (⊇) For w ∈ [x0, u] and
    U = sum of U_λ over the layers, the layer-λ part of e^{ad U}x0 - x0 is
    λ·U_λ plus brackets of the U_μ with 0 < μ < λ, so U_λ is solved layer
    by layer, lowest first (:func:`solve_conjugator`).
    ``ParabolicData.derivation`` proves the same premises off the root
    table for a standard parabolic.
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
    return DerivationPair(algebra=g, x0=tuple(x0), u=u, layers=layers)


def solve_conjugator(dp: DerivationPair, w: Vector) -> Vector:
    """The exact U ∈ u with e^{ad U}x0 = x0 + w, for w ∈ [x0, u].

    Solves one eigenvalue layer at a time, lowest first.  Since
    [u_λ, u_μ] ⊆ u_{λ+μ}, the layer-λ part of e^{ad U}x0 - x0 is λ·U_λ plus
    brackets of lower layers only, so each layer's part of U is the layer-λ
    part of w - (e^{ad U}x0 - x0) divided by λ.  The answer is verified
    exactly before returning.
    """
    g = dp.algebra
    if not dp.u.contains(w):
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
