"""g = sl(2) + sl(2) + so(3) in 7 x 7 blocks, with h = sl(2) + sl(2) +
span{first so(3) matrix}: a pair whose adapted Levi is g itself, with one
compact simple ideal (so(3), dim 3) and two noncompact ones (dim 6 in all).

``basis(mixed=True)`` replaces the first sl(2) basis A_i and the so(3)
basis C_i by A_i + C_i and A_i + 2 C_i.  That is the same algebra and the
same h, so every basis-free answer must agree between the two bases.
"""

from sphlie.builders import add, direct_sum_basis, scale, sl_basis, so_basis
from sphlie.problem import Problem


def basis(mixed: bool = False) -> list:
    blocks = direct_sum_basis([sl_basis(2), sl_basis(2), so_basis(3)])
    if not mixed:
        return blocks
    a, b, c = blocks[0:3], blocks[3:6], blocks[6:9]
    return ([add(x, y) for x, y in zip(a, c)] + b
            + [add(x, scale(2, y)) for x, y in zip(a, c)])


def problem(mixed: bool = False, hint=None) -> Problem:
    """The pair as a problem; ``hint`` is an optional minimal-parabolic
    hint, one sign per noncompact ideal."""
    blocks = basis()
    return Problem(name="sl2x2_so3", matrix_size=7,
                   basis=tuple(basis(mixed)),
                   subalgebra_basis=tuple(blocks[:7]),
                   minimal_parabolic_hint=hint)
