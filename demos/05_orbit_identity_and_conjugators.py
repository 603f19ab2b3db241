"""The nilpotent-orbit identity, and solving for explicit conjugators.

Take x0 = diag(-1, 0, 1) in sl(3,R) and u = the strictly upper triangular
matrices.  Then -ad(x0) acts on u with positive eigenvalues (layers 1 and
2), and the orbit identity says: applying exp(ad U) to x0 for U in u
reaches exactly x0 + [x0, u].  The package proves the identity from the
layers it certifies for (x0, u), drawing no U, and it *inverts* the
identity — given a target offset W it solves for U exactly.
Run:  python3 demos/05_orbit_identity_and_conjugators.py
"""

from fractions import Fraction

from sphlie import (
    LieAlgebra,
    derivation_pair,
    exp_ad_apply,
    solve_conjugator,
)
from sphlie.builders import sl_basis
from sphlie.linalg import vec_add


def fr(*entries):
    return tuple(Fraction(e) for e in entries)


g = LieAlgebra(sl_basis(3), name="sl3")
x0 = g.from_matrix((fr(-1, 0, 0), fr(0, 0, 0), fr(0, 0, 1)))
u = g.span_of_matrices((
    (fr(0, 1, 0), fr(0, 0, 0), fr(0, 0, 0)),   # E12
    (fr(0, 0, 1), fr(0, 0, 0), fr(0, 0, 0)),   # E13
    (fr(0, 0, 0), fr(0, 0, 1), fr(0, 0, 0))))  # E23

dp = derivation_pair(g, x0, u)
print("eigenvalue layers of -ad(x0) on u:",
      [(str(lam), space.dim) for lam, space in dp.layers])
print("bracket image [x0, u] dim:", dp.u.dim)

print("orbit identity exp(ad u) x0 = x0 + u, proved from the certified layers:")
for lam, space in dp.layers:
    print(f"  lambda = {lam}:", [tuple(map(str, v)) for v in space.basis])
print()

# Invert the identity: choose the target offset W = E12 + 2*E13 + E23.
w = vec_add(vec_add(u.basis[0], tuple(2 * c for c in u.basis[1])), u.basis[2])
exponent = solve_conjugator(dp, w)
print("target offset W (coords):", tuple(map(str, w)))
print("solved exponent U (coords):", tuple(map(str, exponent)))
print("as a matrix:")
for row in g.to_matrix(exponent):
    print("   ", tuple(map(str, row)))
reached = exp_ad_apply(g, exponent, dp.x0)
print("exp(ad U) x0 == x0 + W exactly:", reached == vec_add(dp.x0, w))

# Unreachable targets are refused with the reason, never approximated.
try:
    solve_conjugator(dp, g.from_matrix((fr(1, 0, 0), fr(0, -1, 0),
                                        fr(0, 0, 0))))
except Exception as exc:
    print(f"\ndiagonal target refused: {type(exc).__name__}: {exc}")
