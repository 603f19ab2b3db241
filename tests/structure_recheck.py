"""The oracle recheck of a structure report: every local-structure
identity the library tests or proves, recomputed by
:func:`oracles.local_structure_failures` on the reports' plain row spans."""

from oracles import local_structure_failures


def rows(sub):
    return [list(v) for v in sub.basis]


def identity_failures(sr, nr):
    """The oracle's failing identities for a structure report ``sr`` and
    its normalizer report ``nr``."""
    cd, fs, word = sr.pair.cartan, sr.levi_structure, sr.levi_adjustment
    spans = {
        "q": sr.adapted.q, "p": cd.p, "n": cd.n, "u": sr.adapted.nilradical,
        "h": sr.pair.h, "levi": sr.adapted.levi, "center": fs.center,
        "k": cd.k, "s": cd.s, "a": cd.a, "lc": fs.compact_ideals,
        "ln": fs.noncompact_ideals, "h_std": sr.standard_form_h,
        "core": sr.standard_reductive_part,
        "h_split": word.inverse.image(sr.h_split_part),
        "c_std": word.inverse.image(nr.complement),
        "complement": nr.complement, "split": nr.split_part,
        "compact": nr.compact_factor,
    }
    return local_structure_failures(
        cd.algebra.dim, sr.rank, {k: rows(v) for k, v in spans.items()})
