"""Built-in example pairs with exactly specified expected results.

Every expected number below was derived by hand linear algebra on the
explicit matrices (documented next to the unit tests) and cross-checked by
an independent elimination oracle in the test suite before being frozen
here.  ``run_entry`` replays the full pipeline on an entry and compares
against the frozen block, collecting any mismatch as a failure string.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from .builders import add, block_embed, gl_basis, sl_basis, so_basis
from .linalg import as_matrix
from .normalizer import NormalizerReport, normalizer_in, normalizer_report
from .orbits import OrbitIdentityReport, orbit_identity_check
from .problem import Problem, find_open_pair
from .spherical import (
    ConjugationResult,
    SphericalPair,
    StructureReport,
    structure_report,
)


@dataclass(frozen=True)
class ExpectedResults:
    """Frozen pipeline outcome for one entry.

    ``adapted_subset`` holds simple-root indices; the dimensional fields that
    only make sense for spherical pairs are None on honest-failure entries.
    """

    spherical_at_base: bool
    needs_conjugation: bool
    spherical: bool
    adapted_subset: Optional[tuple[int, ...]]
    rank: Optional[int]
    normalizer_dim: int
    complement_dim: Optional[int]
    split_dim: Optional[int]
    compact_dim: Optional[int]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    notes: str
    problem: Problem
    search_budget: int
    expected: ExpectedResults


@dataclass(frozen=True)
class EntryResult:
    entry: CatalogEntry
    base_spherical: bool
    defect: int
    search: Optional[ConjugationResult]
    final_pair: Optional[SphericalPair]
    report: Optional[StructureReport]
    normalizer: Optional[NormalizerReport]
    orbit: Optional[OrbitIdentityReport]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


# -- entry construction helpers ----------------------------------------------


def _mats(*ms):
    return tuple(as_matrix(m) for m in ms)


_H = [[1, 0], [0, -1]]
_E = [[0, 1], [0, 0]]
_F = [[0, 0], [1, 0]]
_J = [[0, 1], [-1, 0]]


def _diag_embed(m, copies):
    """m repeated ``copies`` times down the diagonal."""
    size = len(m)
    return add(*(block_embed(m, copies * size, k * size)
                 for k in range(copies)))


def _problem(name, size, basis, sub, hint=None):
    return Problem(name=name, matrix_size=size, basis=_mats(*basis),
                   subalgebra_basis=_mats(*sub),
                   minimal_parabolic_hint=hint)


def _sl2_problem(name, sub):
    return _problem(name, 2, sl_basis(2), sub)


def catalog_entries() -> tuple[CatalogEntry, ...]:
    sl2x2 = [block_embed(m, 4, off) for off in (0, 2) for m in sl_basis(2)]
    sl2x3 = [block_embed(m, 6, off) for off in (0, 2, 4) for m in sl_basis(2)]
    sl2_so2_sum = ([block_embed(m, 4, 0) for m in sl_basis(2)]
                   + [block_embed(_J, 4, 2)])
    entries = (
        CatalogEntry(
            name="sl2_so2",
            notes="rotation line inside sl(2): spherical at the base point "
                  "with one-dimensional split torus acting on the quotient; "
                  "the model compact-type pair.",
            problem=_sl2_problem("sl2_so2", [_J]),
            search_budget=0,
            expected=ExpectedResults(
                spherical_at_base=True, needs_conjugation=False,
                spherical=True, adapted_subset=(), rank=1,
                normalizer_dim=1, complement_dim=0, split_dim=0,
                compact_dim=0),
        ),
        CatalogEntry(
            name="sl2_opposite_borel",
            notes="diagonal plus lower-triangular line: spherical with rank "
                  "0; the complementary minimal parabolic, used as the "
                  "noncompactness witness case for transitivity sampling.",
            problem=_sl2_problem("sl2_opposite_borel", [_H, _F]),
            search_budget=0,
            expected=ExpectedResults(
                spherical_at_base=True, needs_conjugation=False,
                spherical=True, adapted_subset=(), rank=0,
                normalizer_dim=2, complement_dim=0, split_dim=0,
                compact_dim=0),
        ),
        CatalogEntry(
            name="sl2x2_diag_opposite",
            notes="diagonal copy of sl(2) in the double, with the two "
                  "factors' positivity chosen opposite: the group-times-"
                  "group pair, spherical at the base point, rank 1.",
            problem=_problem("sl2x2_diag_opposite", 4, sl2x2,
                             [_diag_embed(_H, 2), _diag_embed(_E, 2),
                              _diag_embed(_F, 2)],
                             hint=(1, -1)),
            search_budget=0,
            expected=ExpectedResults(
                spherical_at_base=True, needs_conjugation=False,
                spherical=True, adapted_subset=(), rank=1,
                normalizer_dim=3, complement_dim=0, split_dim=0,
                compact_dim=0),
        ),
        CatalogEntry(
            name="sl2x3_diag_mixed",
            notes="diagonal copy of sl(2) in the triple with mixed-sign "
                  "positivity (+,+,-): never spherical at the base point "
                  "(the sum of the split generators always survives), but a "
                  "single root exponential moves it to an open position of "
                  "rank 3.",
            problem=_problem("sl2x3_diag_mixed", 6, sl2x3,
                             [_diag_embed(_H, 3), _diag_embed(_E, 3),
                              _diag_embed(_F, 3)],
                             hint=(1, 1, -1)),
            search_budget=10,
            expected=ExpectedResults(
                spherical_at_base=False, needs_conjugation=True,
                spherical=True, adapted_subset=(), rank=3,
                normalizer_dim=3, complement_dim=0, split_dim=0,
                compact_dim=0),
        ),
        CatalogEntry(
            name="sl3_so3",
            notes="rotations inside sl(3): the split-torus-plus-upper-"
                  "triangular complement is the whole algebra, so the pair "
                  "is spherical with full rank 2 and self-normalizing h.",
            problem=_problem("sl3_so3", 3, sl_basis(3),
                             [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
                              [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                              [[0, 0, 0], [0, 0, 1], [0, -1, 0]]],
                             hint=(1,)),
            search_budget=0,
            expected=ExpectedResults(
                spherical_at_base=True, needs_conjugation=False,
                spherical=True, adapted_subset=(), rank=2,
                normalizer_dim=3, complement_dim=0, split_dim=0,
                compact_dim=0),
        ),
        CatalogEntry(
            name="gl2_projective_line",
            notes="the line through E11 in gl(2) is closed at the base "
                  "point; conjugating by a root exponential makes it a "
                  "projection whose orbit is open.  The normalizer then "
                  "gains the scalar line, a split direction.",
            problem=_problem("gl2_projective_line", 2, gl_basis(2),
                             [[[1, 0], [0, 0]]]),
            search_budget=5,
            expected=ExpectedResults(
                spherical_at_base=False, needs_conjugation=True,
                spherical=True, adapted_subset=(), rank=2,
                normalizer_dim=2, complement_dim=1, split_dim=1,
                compact_dim=0),
        ),
        CatalogEntry(
            name="so3_so2",
            notes="compact ambient algebra: the split torus is zero, the "
                  "minimal parabolic is everything, and any subalgebra is "
                  "spherical with rank 0.",
            problem=_problem("so3_so2", 3, so_basis(3),
                             [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]]),
            search_budget=0,
            expected=ExpectedResults(
                spherical_at_base=True, needs_conjugation=False,
                spherical=True, adapted_subset=(), rank=0,
                normalizer_dim=1, complement_dim=0, split_dim=0,
                compact_dim=0),
        ),
        CatalogEntry(
            name="sl2_full",
            notes="h = g: the adapted parabolic is the whole algebra (the "
                  "unique subset is the full simple-root set), rank 0.",
            problem=_sl2_problem("sl2_full", [_H, _E, _F]),
            search_budget=0,
            expected=ExpectedResults(
                spherical_at_base=True, needs_conjugation=False,
                spherical=True, adapted_subset=(0,), rank=0,
                normalizer_dim=3, complement_dim=0, split_dim=0,
                compact_dim=0),
        ),
        CatalogEntry(
            name="sl2x2_factor_plus_so2",
            notes="first factor plus the rotation line of the second: the "
                  "adapted subset is a proper nonempty set of simple roots, "
                  "so the Levi has a noncompact simple part sitting inside "
                  "h; rank 1.",
            problem=_problem("sl2x2_factor_plus_so2", 4, sl2x2,
                             [block_embed(_H, 4, 0), block_embed(_E, 4, 0),
                              block_embed(_F, 4, 0), block_embed(_J, 4, 2)]),
            search_budget=0,
            expected=ExpectedResults(
                spherical_at_base=True, needs_conjugation=False,
                spherical=True, adapted_subset=(1,), rank=1,
                normalizer_dim=4, complement_dim=0, split_dim=0,
                compact_dim=0),
        ),
        CatalogEntry(
            name="sl2_zero",
            notes="h = 0: no conjugate can be spherical (the minimal "
                  "parabolic is a proper subspace), so the search is "
                  "honestly inconclusive and the adapted construction "
                  "refuses.  The normalizer of 0 is all of g.",
            problem=_sl2_problem("sl2_zero", []),
            search_budget=30,
            expected=ExpectedResults(
                spherical_at_base=False, needs_conjugation=False,
                spherical=False, adapted_subset=None, rank=None,
                normalizer_dim=3, complement_dim=None, split_dim=None,
                compact_dim=None),
        ),
        CatalogEntry(
            name="sl2_n",
            notes="the positive root line: closed at the base point, but "
                  "the standard Weyl representative flips it to the "
                  "negative line, which is open; rank 1 after conjugation.",
            problem=_sl2_problem("sl2_n", [_E]),
            search_budget=5,
            expected=ExpectedResults(
                spherical_at_base=False, needs_conjugation=True,
                spherical=True, adapted_subset=(), rank=1,
                normalizer_dim=2, complement_dim=1, split_dim=1,
                compact_dim=0),
        ),
        CatalogEntry(
            name="sl2_plus_so2_borel",
            notes="opposite Borel of the simple factor inside sl(2)+so(2): "
                  "the central rotation line normalizes h, giving a "
                  "compact-type complement direction in the normalizer.",
            problem=_problem("sl2_plus_so2_borel", 4, sl2_so2_sum,
                             [block_embed(_H, 4, 0), block_embed(_F, 4, 0)]),
            search_budget=0,
            expected=ExpectedResults(
                spherical_at_base=True, needs_conjugation=False,
                spherical=True, adapted_subset=(), rank=0,
                normalizer_dim=3, complement_dim=1, split_dim=0,
                compact_dim=1),
        ),
    )
    return entries


def get_entry(name: str) -> CatalogEntry:
    for entry in catalog_entries():
        if entry.name == name:
            return entry
    known = ", ".join(sorted(e.name for e in catalog_entries()))
    raise KeyError(f"no catalog entry named {name!r}; known entries: {known}")


def run_entry(entry: CatalogEntry, seed: int = 0,
              orbit_samples: int = 100) -> EntryResult:
    """Replay the full pipeline on an entry and diff against its frozen
    expectations.

    The run's own ExpectedResults is built once and compared field by field,
    each mismatch as "<field>: expected X, got Y".  Without an open pair
    only spherical_at_base, needs_conjugation, spherical and normalizer_dim
    (N(h) of the base pair) are observed; the normalizer flags add their
    own message, and the structure checks are proved
    (:class:`~sphlie.spherical.StructureReport`).  The orbit identity is
    reported from the adapted parabolic's certified derivation pair
    (:func:`~sphlie.orbits.orbit_identity_check`), which cannot fail, so
    it adds none."""
    exp = entry.expected
    pair, ok, defect, search, final = find_open_pair(
        entry.problem, entry.search_budget, seed)
    report = norm = orbit = None
    if final is None:
        got = replace(exp, spherical_at_base=ok, needs_conjugation=False,
                      spherical=False,
                      normalizer_dim=normalizer_in(pair.algebra, pair.h).dim)
    else:
        report = structure_report(final)
        norm = normalizer_report(report)
        orbit = orbit_identity_check(report.adapted.derivation,
                                     orbit_samples)
        got = ExpectedResults(
            spherical_at_base=ok, needs_conjugation=not ok, spherical=True,
            adapted_subset=report.adapted.subset_indices, rank=report.rank,
            normalizer_dim=norm.normalizer.dim,
            complement_dim=norm.complement.dim,
            split_dim=norm.split_part.dim,
            compact_dim=norm.compact_factor.dim)
    failures = [f"{f.name}: expected {getattr(exp, f.name)}, got "
                f"{getattr(got, f.name)}" for f in fields(ExpectedResults)
                if getattr(got, f.name) != getattr(exp, f.name)]
    if norm is not None and not norm.all_ok:
        failures.append("normalizer flags: not all certified")
    return EntryResult(entry=entry, base_spherical=ok, defect=defect,
                       search=search, final_pair=final, report=report,
                       normalizer=norm, orbit=orbit,
                       failures=tuple(failures))


def run_all(seed: int = 0, orbit_samples: int = 100) -> list[EntryResult]:
    """Run every entry, ordered canonically by name."""
    return [run_entry(e, seed=seed, orbit_samples=orbit_samples)
            for e in sorted(catalog_entries(), key=lambda e: e.name)]
