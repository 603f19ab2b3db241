"""Independent brute-force oracle used to freeze expected values.

Everything here is written from scratch on plain Python lists of Fractions —
no imports from the package's linear algebra — so that acceptance checks
compare the library against code sharing no implementation with it.  The
inputs (root data, basis coordinate rows) are plain tuples of rationals.
"""

from fractions import Fraction


def reduce_rows(rows):
    """Gauss-Jordan elimination; returns the nonzero reduced rows."""
    work = [[Fraction(e) for e in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(work))
                      if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        scale = work[rank][col]
        work[rank] = [e / scale for e in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b
                           for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return work[:rank]


def dim_span(rows):
    return len(reduce_rows(rows))


def dim_sum(a, b):
    return dim_span(list(a) + list(b))


def dim_intersection(a, b):
    return dim_span(a) + dim_span(b) - dim_sum(a, b)


def member(rows, v):
    """Is v in the row span?  (An empty span contains only zero.)"""
    if all(e == 0 for e in v):
        return True
    return dim_span(list(rows) + [list(v)]) == dim_span(rows)


def kernel_rows(rows, ncols):
    """Basis of the right kernel, by back-substitution over free columns."""
    red = reduce_rows(rows)
    pivots = []
    for row in red:
        pivots.append(next(j for j, e in enumerate(row) if e != 0))
    out = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[free]
        out.append(v)
    return out


def intersection_rows(a_rows, b_rows):
    """Basis of the intersection of two row spans.

    Solves y·A = z·B by taking the kernel of the matrix whose columns are
    the basis vectors of A next to the negated basis vectors of B.
    """
    a = [list(r) for r in a_rows]
    b = [list(r) for r in b_rows]
    if not a or not b:
        return []
    ambient = len(a[0])
    stacked = [[ai[c] for ai in a] + [-bi[c] for bi in b]
               for c in range(ambient)]
    meet = []
    for w in kernel_rows(stacked, len(a) + len(b)):
        x = [sum(w[i] * a[i][c] for i in range(len(a)))
             for c in range(ambient)]
        if any(e != 0 for e in x):
            meet.append(x)
    return reduce_rows(meet)


def adapted_subsets(simple_roots, positive_roots, root_space_rows,
                    n_rows, h_rows):
    """Exhaustively enumerate subsets F of simple-root indices for which the
    parabolic nilradical complements n ∩ h inside n.

    ``root_space_rows`` maps each positive root to the coordinate rows of
    its root space.  The nilradical of the standard parabolic for F is the
    sum of the root spaces of positive roots outside the rational span of F.
    """
    meet = intersection_rows(n_rows, h_rows)
    found = []
    for mask in range(2 ** len(simple_roots)):
        indices = tuple(i for i in range(len(simple_roots))
                        if mask >> i & 1)
        chosen = [list(simple_roots[i]) for i in indices]
        u_rows = []
        for alpha in positive_roots:
            if not member(chosen, list(alpha)):
                u_rows.extend(root_space_rows[alpha])
        n_dim = dim_span(n_rows)
        direct = (dim_span(u_rows) + len(meet) == n_dim
                  and dim_sum(u_rows, meet) == n_dim)
        if direct:
            found.append(indices)
    return found


def rank_when_levi_is_split_torus(a_rows, h_rows):
    """Rank of the open orbit when the adapted Levi equals the split torus:
    the torus acts through its quotient by the part lying in h."""
    return dim_span(a_rows) - dim_intersection(a_rows, h_rows)


def same_span(a, b):
    return dim_span(a) == dim_span(b) == dim_sum(a, b)


def is_direct(whole, *parts):
    """whole = parts[0] ⊕ parts[1] ⊕ ..., as row spans."""
    joined = [row for part in parts for row in part]
    return (dim_span(joined) == sum(dim_span(p) for p in parts)
            and same_span(whole, joined))


def project_rows(rows, target, along):
    """The span of the target parts of ``rows`` in target ⊕ along, each row
    solved for its coordinates on the two bases; None when a row is not in
    the sum or the sum is not direct."""
    target, along = reduce_rows(target), reduce_rows(along)
    basis = target + along
    if dim_span(basis) != len(basis):
        return None
    parts = []
    for v in rows:
        columns = [[b[i] for b in basis] + [-v[i]] for i in range(len(v))]
        solved = [w for w in kernel_rows(columns, len(basis) + 1) if w[-1]]
        if not solved:
            return None
        coords = [c / solved[0][-1] for c in solved[0][:len(target)]]
        parts.append([sum(c * t[i] for c, t in zip(coords, target))
                      for i in range(len(v))])
    return reduce_rows(parts)


def local_structure_failures(g_dim, rank, s):
    """The names of the local-structure identities that fail on one
    report of the given ``rank``, from its row spans ``s``: q, p, n, u and
    h; the standard Levi and its center, lc, ln; k, s and a; the standard
    forms h_std, core = h_std ∩ (z(l) + l_c), h_split and c_std of h, of
    the split part of h and of the normalizer's complement; and that
    complement with its split and compact parts, as reported."""
    nh = intersection_rows(s["n"], s["h"])
    z_np = intersection_rows(s["center"], s["s"])
    z_cp = intersection_rows(s["center"], s["k"])
    lh = intersection_rows(s["levi"], s["h_std"])
    held = {
        "q_plus_h_is_g": dim_sum(s["q"], s["h"]) == g_dim,
        "q_plus_h_std_is_g": dim_sum(s["q"], s["h_std"]) == g_dim,
        "nilradical_complement": is_direct(s["n"], s["u"], nh),
        "q_meets_h_inside_levi": dim_intersection(s["q"], s["h_std"])
        == len(lh),
        "noncompact_levi_ideals_in_h": dim_sum(s["ln"], s["h_std"])
        == dim_span(s["h_std"]),
        "levi_split_by_p_and_h": dim_sum(
            intersection_rows(s["levi"], s["p"]), lh) == dim_span(s["levi"]),
        "levi_meets_h_in_core_and_ln": is_direct(lh, s["core"], s["ln"])
        and same_span(s["core"], intersection_rows(
            list(s["center"]) + list(s["lc"]), s["h_std"])),
        "split_torus_divides": dim_span(s["a"]) == rank + dim_span(
            s["h_split"]) + dim_intersection(s["a"], s["ln"])
        and rank + dim_span(s["h_split"]) == len(z_np),
        "center_splits_by_theta": is_direct(s["center"], z_np, z_cp),
        "h_split_is_a_projection": (proj := project_rows(
            s["core"], z_np, list(z_cp) + list(s["lc"]))) is not None
        and same_span(s["h_split"], proj),
        "complement_splits": is_direct(s["complement"], s["split"],
                                       s["compact"]),
        "complement_in_center_and_lc": dim_sum(
            s["c_std"], list(s["center"]) + list(s["lc"]))
        == dim_sum(s["center"], s["lc"]),
    }
    return [name for name, ok in held.items() if not ok]
