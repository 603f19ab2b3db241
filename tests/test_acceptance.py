"""Acceptance suite: one test, and one printed PASS line, per criterion.

Each test re-derives its expected values through tests/oracles.py — an
independent plain-list elimination written separately from the package —
or through explicitly frozen constants verified by hand, and only then
compares the library's answers.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from matrix_helpers import apply_ad
from oracles import (
    adapted_subsets,
    dim_intersection,
    dim_span,
    dim_sum,
    rank_when_levi_is_split_torus,
)
from sphlie.builders import sl_basis, so_basis
from sphlie.catalog import run_all
from sphlie.liealg import LieAlgebra, cartan_data, simple_ideal_split
from sphlie.linalg import (
    canonical_basis,
    restrict_bilinear_form,
    subspace_sum,
    symmetric_signature,
    vec_add,
)
from sphlie.normalizer import normalizer_in
from sphlie.orbits import derivation_pair, exp_ad_apply, solve_conjugator
from sphlie.parabolic import containment_check, standard_parabolic
from sphlie.spherical import (
    compact_transitivity_check,
    group_element_candidates,
    is_spherical,
    spherical_pair,
    structure_report,
)

ORBIT_SAMPLES = 100
CONJUGATES_PER_ENTRY = 20


@pytest.fixture(scope="module")
def catalog_run():
    started = time.monotonic()
    results = run_all(seed=0, orbit_samples=ORBIT_SAMPLES)
    elapsed = time.monotonic() - started
    return results, elapsed


def spherical_results(results):
    return [r for r in results if r.final_pair is not None]


def rows(subspace):
    return [list(v) for v in subspace.basis]


def fr(*entries):
    return tuple(Fraction(e) for e in entries)


def test_criterion_1_adapted_parabolic_unique_and_catalog_fast(catalog_run):
    results, elapsed = catalog_run
    assert all(r.passed for r in results), \
        [(r.entry.name, r.failures) for r in results if not r.passed]
    checked = 0
    for result in spherical_results(results):
        cd = result.final_pair.cartan
        assert result.report.candidates_passing == 1, result.entry.name
        space_rows = {root: rows(cd.root_space(root))
                      for root in cd.positive_roots}
        oracle = adapted_subsets(cd.simple_roots, cd.positive_roots,
                                 space_rows, rows(cd.n),
                                 rows(result.final_pair.h))
        assert oracle == [result.report.adapted.subset_indices], \
            result.entry.name
        checked += 1
    assert checked == 11
    assert elapsed < 10.0, f"catalog run took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS — adapted parabolic unique (library count "
          f"and exhaustive oracle agree) on {checked} spherical entries; "
          f"full catalog in {elapsed:.2f}s < 10s")


def test_criterion_2_structure_identities_hold_exactly(catalog_run):
    results, _ = catalog_run
    expected_keys = {"q_plus_h_is_g", "q_meets_h_inside_levi",
                     "noncompact_levi_ideals_in_h", "levi_split_by_p_and_h",
                     "nilradical_complement"}
    for result in spherical_results(results):
        report = result.report
        assert set(report.checks) == expected_keys
        assert all(report.checks.values()), result.entry.name
        # independent dimension recheck of the two headline identities,
        # in the standard position where they are certified
        g_dim = result.final_pair.cartan.algebra.dim
        q = rows(report.adapted.q)
        h_std = rows(report.standard_form_h)
        levi = rows(report.adapted.levi)
        assert dim_sum(q, h_std) == g_dim, result.entry.name
        assert dim_intersection(q, h_std) == dim_intersection(levi, h_std), \
            result.entry.name
    print("\nACCEPTANCE 2: PASS — all five local-structure identities hold "
          "exactly on every spherical entry (plus independent dimension "
          "recheck)")


def test_criterion_3_rank_values_match_independent_oracle(catalog_run):
    results, _ = catalog_run
    frozen = {"sl2_so2": 1, "sl2_opposite_borel": 0,
              "sl2x2_diag_opposite": 1, "sl3_so3": 2}
    by_name = {r.entry.name: r for r in results}
    for name, expected_rank in sorted(frozen.items()):
        result = by_name[name]
        cd = result.final_pair.cartan
        # oracle precondition: the adapted Levi is exactly the split torus
        assert result.report.adapted.levi == cd.a, name
        oracle = rank_when_levi_is_split_torus(rows(cd.a),
                                               rows(result.final_pair.h))
        assert result.report.rank == oracle == expected_rank, name
    print("\nACCEPTANCE 3: PASS — ranks (sl2,so2)=1, (sl2,a+nbar)=0, "
          "(sl2xsl2,diag)=1, (sl3,so3)=2 agree with the independent oracle")


def test_criterion_4_rank_invariant_under_open_orbit_conjugations(
        catalog_run):
    results, _ = catalog_run
    total = 0
    for result in spherical_results(results):
        cd = result.final_pair.cartan
        g = cd.algebra
        base_rank = result.report.rank
        kept = 0
        stream = group_element_candidates(cd, seed=17)
        # a compact pair has no root-space exponentials, so the exact
        # candidate stream is the identity alone; openness survives it
        target = CONJUGATES_PER_ENTRY if cd.positive_roots else 1
        for word, _desc in itertools.islice(stream, 1000):
            conjugated = apply_ad(g, word.matrix, result.final_pair.h)
            moved = spherical_pair(cd, conjugated, label=result.entry.name)
            if not is_spherical(moved)[0]:
                continue
            assert structure_report(moved).rank == base_rank, \
                result.entry.name
            kept += 1
            if kept >= target:
                break
        assert kept >= target, (result.entry.name, kept)
        total += kept
    print(f"\nACCEPTANCE 4: PASS — rank constant across {total} "
          f"openness-preserving conjugations "
          f"({CONJUGATES_PER_ENTRY} per noncompact spherical entry)")


def test_criterion_5_orbit_identity_and_conjugator_round_trips(catalog_run):
    results, _ = catalog_run
    for result in spherical_results(results):
        assert result.orbit is not None and result.orbit.ok
        assert result.orbit.samples_run == ORBIT_SAMPLES, result.entry.name
    g = LieAlgebra(sl_basis(3), name="sl3")
    x0 = g.from_matrix((fr(-1, 0, 0), fr(0, 0, 0), fr(0, 0, 1)))
    upper = g.span_of_matrices((
        (fr(0, 1, 0), fr(0, 0, 0), fr(0, 0, 0)),
        (fr(0, 0, 1), fr(0, 0, 0), fr(0, 0, 0)),
        (fr(0, 0, 0), fr(0, 0, 1), fr(0, 0, 0))))
    dp = derivation_pair(g, x0, upper)
    rng = random.Random(11)
    pool = [Fraction(c) for c in (-3, -2, -1, 0, 1, 2, 3)] + \
           [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]
    trips = 0
    for _ in range(ORBIT_SAMPLES):
        coeffs = [rng.choice(pool) for _ in upper.basis]
        w = [Fraction(0)] * g.dim
        for c, v in zip(coeffs, upper.basis):
            w = [a + c * b for a, b in zip(w, v)]
        w = tuple(w)
        exponent = solve_conjugator(dp, w)
        assert upper.contains(exponent)
        assert exp_ad_apply(g, exponent, dp.x0) == vec_add(dp.x0, w)
        trips += 1
    assert trips == ORBIT_SAMPLES
    print(f"\nACCEPTANCE 5: PASS — orbit identity certified for every "
          f"spherical entry; {trips} conjugator round trips verified "
          f"exactly")


def test_criterion_6_normalizer_suite_on_every_entry(catalog_run):
    results, _ = catalog_run
    for result in spherical_results(results):
        report = result.normalizer
        assert report is not None, result.entry.name
        assert report.split_ok, result.entry.name
        assert report.elementary_ok, result.entry.name
        assert report.self_normalizing_ok, result.entry.name
        assert report.same_adapted_ok, result.entry.name
        g = result.final_pair.cartan.algebra
        assert normalizer_in(g, report.normalizer) == report.normalizer
    zero = next(r for r in results if r.entry.name == "sl2_zero")
    g = LieAlgebra(sl_basis(2), name="sl2")
    tilde = normalizer_in(g, g.zero_space())
    assert tilde == g.full_space()
    assert normalizer_in(g, tilde) == tilde
    assert zero.passed
    print("\nACCEPTANCE 6: PASS — normalizer split/elementary/"
          "self-normalizing/adapted-subalgebra checks hold on every "
          "spherical entry; idempotence verified everywhere")


def test_criterion_7_transitivity_verdicts():
    g = LieAlgebra(sl_basis(2), name="sl2")
    cd = cartan_data(g)
    so2 = canonical_basis([fr(0, 1, -1)], 3)
    compact = compact_transitivity_check(
        spherical_pair(cd, so2, label="sl2/so2"), samples=100, seed=0)
    assert compact.verdict == "consistent-with-compact"
    assert compact.compact_type and compact.samples_run == 100
    a_nbar = canonical_basis([fr(1, 0, 0), fr(0, 0, 1)], 3)
    split = compact_transitivity_check(
        spherical_pair(cd, a_nbar, label="sl2/an"), samples=100, seed=0)
    assert split.verdict == "witness-of-noncompactness"
    assert not split.compact_type
    assert split.witness_description == "weyl[(2)#0]"
    # re-certify the witness: h + Ad(w)p is a proper subspace
    moved = apply_ad(g, split.witness, cd.p)
    assert subspace_sum(a_nbar, moved).dim == 2 < g.dim
    print("\nACCEPTANCE 7: PASS — (sl2,so2) consistent with compactness over "
          "100 samples; (sl2,a+nbar) yields a re-certified witness of "
          "noncompactness")


def test_criterion_8_invariant_form_detects_compact_factors():
    so3 = LieAlgebra(so_basis(3), name="so3")
    sl2 = LieAlgebra(sl_basis(2), name="sl2")
    assert symmetric_signature(so3.killing_form()) == (0, 3, 0)
    assert symmetric_signature(sl2.killing_form()) == (2, 1, 0)
    assert [flag for _, flag in simple_ideal_split(so3).ideals] == [True]
    assert [flag for _, flag in simple_ideal_split(sl2).ideals] == [False]

    def embed(m, off, total=5):
        out = [[Fraction(0)] * total for _ in range(total)]
        for i, row in enumerate(m):
            for j, e in enumerate(row):
                out[off + i][off + j] = e
        return tuple(tuple(r) for r in out)

    mixed = LieAlgebra(tuple([embed(m, 0) for m in so_basis(3)]
                             + [embed(m, 3) for m in sl_basis(2)]),
                       name="so3+sl2")
    killing = mixed.killing_form()
    seen = []
    for ideal, flag in simple_ideal_split(mixed).ideals:
        npos, nneg, nzero = symmetric_signature(
            restrict_bilinear_form(killing, ideal))
        assert nzero == 0
        assert flag == (npos == 0 and nneg == ideal.dim)
        seen.append(flag)
    assert sorted(seen) == [False, True]
    print("\nACCEPTANCE 8: PASS — Killing form negative definite exactly on "
          "the compact factors, matching the ideal classification")


def test_criterion_9_parabolic_lattice_matches_subset_lattice():
    pairs_checked = 0
    for size in (2, 3, 4):
        g = LieAlgebra(sl_basis(size), name=f"sl{size}")
        cd = cartan_data(g)
        simple = range(len(cd.simple_roots))
        assert len(cd.simple_roots) == size - 1
        subsets = [tuple(c) for k in range(len(cd.simple_roots) + 1)
                   for c in itertools.combinations(simple, k)]
        parabolics = {f: standard_parabolic(cd, f) for f in subsets}
        for f, fp in itertools.product(subsets, repeat=2):
            subset_leq = set(f) <= set(fp)
            q_leq = parabolics[f].q.is_contained_in(parabolics[fp].q)
            assert subset_leq == q_leq, (size, f, fp)
            # the containment lemma: a Levi meeting the other nilradical
            # trivially certifies q <= q' (asserted inside when it applies)
            lemma = containment_check(parabolics[f], parabolics[fp])
            assert lemma == subset_leq, (size, f, fp)
            pairs_checked += 1
        full = parabolics[tuple(simple)]
        assert full.q == g.full_space()
        assert parabolics[()].q == cd.p
    assert pairs_checked == 4 + 16 + 64
    print(f"\nACCEPTANCE 9: PASS — subset lattice and parabolic lattice "
          f"agree on all {pairs_checked} ordered pairs (exhaustive through "
          f"3 simple roots), containment lemma certified on each")
