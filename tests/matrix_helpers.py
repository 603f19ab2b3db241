"""Dense matrix helpers that only the tests use: the sl(2) basis matrices,
the matrix commutator, an exact inverse, conjugation of a subspace by an
invertible matrix and the dense table of structure constants.  The package
moves subspaces by ``GroupWord.ad``, in g's sparse structure constants, and
calls none of these.
"""

from sphlie.builders import add, elementary, scale
from sphlie.errors import DimensionMismatch, NotClosed
from sphlie.liealg import LieAlgebra
from sphlie.linalg import (
    Matrix,
    Subspace,
    canonical_basis,
    mat_mul,
    rref,
    unit_vector,
)


def sl2_H() -> Matrix:
    return add(elementary(2, 0, 0), scale(-1, elementary(2, 1, 1)))


def sl2_E() -> Matrix:
    return elementary(2, 0, 1)


def sl2_F() -> Matrix:
    return elementary(2, 1, 0)


def commutator(x: Matrix, y: Matrix) -> Matrix:
    """xy - yx; zero entries of yx subtract nothing."""
    return tuple(tuple(a - b if b else a for a, b in zip(r, s))
                 for r, s in zip(mat_mul(x, y), mat_mul(y, x)))


def mat_invert(a: Matrix) -> Matrix:
    """Exact inverse of a square rational matrix; raises on singularity."""
    n = len(a)
    aug = [list(row) + list(unit_vector(n, i)) for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if list(pivots) != list(range(n)):
        raise DimensionMismatch("matrix is singular")
    return tuple(tuple(row[n:]) for row in red)


def apply_ad(g: LieAlgebra, element: Matrix, sub: Subspace) -> Subspace:
    """Image of a subspace under conjugation by an invertible matrix.

    The element must normalize g inside the ambient matrix algebra; if a
    conjugated basis vector leaves the span of g this raises.
    """
    inv = mat_invert(element)
    out = []
    for v in sub.basis:
        c = g.from_matrix(mat_mul(mat_mul(element, g.to_matrix(v)), inv))
        if c is None:
            raise NotClosed(
                "conjugation by the element does not preserve the algebra")
        out.append(c)
    return canonical_basis(out, g.dim) if out else sub


def dense_structure(g: LieAlgebra) -> tuple:
    """The dense d x d x d table of g's structure constants:
    ``dense_structure(g)[i][j][k]`` is the e_k coefficient of [e_i, e_j]."""
    return tuple(tuple(g._dense(tij) for tij in ti) for ti in g._terms)
