"""Built-in catalog: frozen expectations replay, retrieval, round trips."""

import dataclasses

import pytest

from sphlie.catalog import (
    catalog_entries,
    get_entry,
    run_all,
    run_entry,
)
from sphlie.problem import build_pair, parse_problem_text, problem_to_json


@pytest.fixture(scope="module")
def results():
    return {r.entry.name: r for r in run_all(seed=0)}


def test_names_are_unique_and_cover_the_advertised_pairs():
    names = [e.name for e in catalog_entries()]
    assert len(names) == len(set(names)) == 12
    for expected in ("sl2_so2", "sl2_opposite_borel", "sl2x2_diag_opposite",
                     "sl2x3_diag_mixed", "sl3_so3", "gl2_projective_line",
                     "so3_so2", "sl2_full", "sl2x2_factor_plus_so2",
                     "sl2_zero", "sl2_n", "sl2_plus_so2_borel"):
        assert expected in names


def test_get_entry_by_name_and_helpful_error():
    assert get_entry("sl3_so3").problem.matrix_size == 3
    with pytest.raises(KeyError, match="sl2_so2"):
        get_entry("nope")


def test_every_entry_replays_its_frozen_expectations(results):
    for name, result in sorted(results.items()):
        assert result.passed, f"{name}: {result.failures}"


def test_entry_problems_survive_an_export_parse_round_trip():
    for entry in catalog_entries():
        text = problem_to_json(entry.problem)
        assert parse_problem_text(text) == entry.problem
        pair = build_pair(entry.problem)
        assert pair.h.dim == build_pair(parse_problem_text(text)).h.dim


def test_search_transcripts_are_reproducible(results):
    gl2 = results["gl2_projective_line"].search
    assert gl2 is not None
    assert (gl2.attempts, gl2.description) == (3, "exp(1*g[(-1,1)#0])")
    n = results["sl2_n"].search
    assert (n.attempts, n.description) == (2, "weyl[(2)#0]")
    mixed = results["sl2x3_diag_mixed"].search
    assert (mixed.attempts, mixed.description) == (5, "exp(1*g[(-2,0,0)#0])")
    base = results["sl2_so2"].search
    assert base is None  # already spherical, no search configured


def test_honest_failure_entry_stays_inconclusive(results):
    zero = results["sl2_zero"]
    assert not zero.base_spherical
    assert zero.defect == 1
    assert zero.search is None and zero.final_pair is None
    assert zero.report is None and zero.normalizer is None
    assert zero.passed


def test_spherical_entries_carry_full_reports(results):
    for name, result in results.items():
        if result.entry.expected.spherical:
            assert result.final_pair is not None, name
            assert result.report is not None and result.report.rank >= 0
            assert result.normalizer is not None and result.normalizer.all_ok


# the fields an entry without an open pair still observes
ALWAYS_COMPARED = {"spherical_at_base", "needs_conjugation", "spherical",
                   "normalizer_dim"}


def tampered(value):
    if value is None:
        return 7
    if isinstance(value, bool):
        return not value
    return value + (9,) if isinstance(value, tuple) else value + 1


def test_tampered_expectations_are_caught():
    """Each ExpectedResults field tampered in turn fails the replay under
    that field's name alone; an entry with no open pair (sl2_zero) can only
    fail the four fields it observes."""
    for entry in map(get_entry, ["sl2_so2", "sl2_zero"]):
        exp = entry.expected
        for field in dataclasses.fields(exp):
            wrong = dataclasses.replace(exp, **{
                field.name: tampered(getattr(exp, field.name))})
            result = run_entry(dataclasses.replace(entry, expected=wrong),
                               seed=0)
            named = [f.split(":")[0] for f in result.failures]
            caught = exp.spherical or field.name in ALWAYS_COMPARED
            assert named == [field.name] * caught, (entry.name, named)
            if caught:
                assert result.failures[0].endswith(
                    f"got {getattr(exp, field.name)}")


def test_run_all_is_sorted_by_name():
    ordered = [r.entry.name for r in run_all(seed=0)]
    assert ordered == sorted(ordered)
