"""Builders for the standard matrix realizations used throughout the package.

These are plain constructors; every mathematical property (closure, Jacobi,
root data) is recomputed and certified by the LieAlgebra machinery, never
assumed from the construction.
"""

from __future__ import annotations

from typing import Sequence

from .liealg import LieAlgebra
from .linalg import Matrix, ZERO, ONE, mat_scale


def elementary(n: int, i: int, j: int) -> Matrix:
    """E_ij with a single 1 entry."""
    return tuple(tuple(ONE if (r, c) == (i, j) else ZERO for c in range(n))
                 for r in range(n))


def add(*mats: Matrix) -> Matrix:
    n = len(mats[0])
    return tuple(tuple(sum((m[r][c] for m in mats), ZERO) for c in range(n))
                 for r in range(n))


def scale(c, m: Matrix) -> Matrix:
    return mat_scale(c, m)


def sl_basis(n: int) -> list[Matrix]:
    """Traceless n x n: H_i = E_ii - E_(i+1)(i+1), then E_ij (i<j), E_ij (i>j)."""
    out = [add(elementary(n, i, i), scale(-1, elementary(n, i + 1, i + 1)))
           for i in range(n - 1)]
    out += [elementary(n, i, j) for i in range(n) for j in range(i + 1, n)]
    out += [elementary(n, i, j) for j in range(n) for i in range(j + 1, n)]
    return out


def gl_basis(n: int) -> list[Matrix]:
    """All matrix units, diagonal ones first."""
    out = [elementary(n, i, i) for i in range(n)]
    out += [elementary(n, i, j) for i in range(n) for j in range(n) if i != j]
    return out


def so_basis(n: int) -> list[Matrix]:
    """Skew-symmetric n x n: E_ij - E_ji for i < j."""
    return [add(elementary(n, i, j), scale(-1, elementary(n, j, i)))
            for i in range(n) for j in range(i + 1, n)]


def block_embed(m: Matrix, total: int, offset: int) -> Matrix:
    """Place a square matrix as a diagonal block starting at ``offset``."""
    k = len(m)
    return tuple(tuple(m[r - offset][c - offset]
                       if offset <= r < offset + k and offset <= c < offset + k
                       else ZERO
                       for c in range(total))
                 for r in range(total))


def direct_sum_basis(blocks: Sequence[Sequence[Matrix]]) -> list[Matrix]:
    """Basis of a block-diagonal direct sum, factor by factor."""
    sizes = [len(b[0]) for b in blocks]
    total = sum(sizes)
    out = []
    offset = 0
    for blk, size in zip(blocks, sizes):
        out += [block_embed(m, total, offset) for m in blk]
        offset += size
    return out


def sl(n: int) -> LieAlgebra:
    return LieAlgebra(sl_basis(n), name=f"sl({n},R)")


def gl(n: int) -> LieAlgebra:
    return LieAlgebra(gl_basis(n), name=f"gl({n},R)")


def so(n: int) -> LieAlgebra:
    return LieAlgebra(so_basis(n), name=f"so({n})")


def regular_diagonal_positivity(n: int) -> Matrix:
    """diag(n-1, n-3, ..., 1-n): a regular element making the upper
    triangular matrices the positive side."""
    return tuple(tuple(n - 1 - 2 * i if i == j else ZERO for j in range(n))
                 for i in range(n))
