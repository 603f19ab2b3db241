"""Problem-file format: parsing, positioned errors, serialization, assembly."""

import dataclasses
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphlie.builders import (
    add,
    direct_sum_basis,
    gl_basis,
    scale,
    sl_basis,
    so_basis,
)
from sphlie.catalog import get_entry
from sphlie.errors import NotClosed, ProblemFormatError
from sphlie.liealg import LieAlgebra
from sphlie.linalg import canonical_basis, subspace_intersect
from sphlie.problem import (
    Problem,
    build_pair,
    format_rational,
    parse_problem,
    parse_problem_dict,
    parse_problem_text,
    parse_rational,
    positivity_from_hint,
    problem_to_json,
)
from test_enumeration import hinted_sl2_so2, sl_so

H = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
E = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
F = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
J = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))


def sl2_problem(sub, **extra):
    return Problem(name="sl2", matrix_size=2, basis=(H, E, F),
                   subalgebra_basis=tuple(sub), **extra)


def embed(m, offset, total):
    rows = [[Fraction(0)] * total for _ in range(total)]
    for i, row in enumerate(m):
        for j, e in enumerate(row):
            rows[offset + i][offset + j] = e
    return tuple(tuple(r) for r in rows)


# -- scalar parsing -----------------------------------------------------------


def test_parse_rational_accepts_ints_and_fraction_strings():
    assert parse_rational(7, "x") == Fraction(7)
    assert parse_rational(-2, "x") == Fraction(-2)
    assert parse_rational("3/4", "x") == Fraction(3, 4)
    assert parse_rational("-5/2", "x") == Fraction(-5, 2)
    assert parse_rational("6", "x") == Fraction(6)


def test_parse_rational_rejects_bool_zero_denominator_and_garbage():
    with pytest.raises(ProblemFormatError, match="x: expected a number"):
        parse_rational(True, "x")
    with pytest.raises(ProblemFormatError,
                       match=r"basis\[0\]\[0\]\[1\]: malformed rational '1/0'"):
        parse_rational("1/0", "basis[0][0][1]")
    with pytest.raises(ProblemFormatError, match="malformed rational 'zz'"):
        parse_rational("zz", "x")
    with pytest.raises(ProblemFormatError, match="got NoneType"):
        parse_rational(None, "x")


def test_format_rational_round_trips_exactly():
    assert format_rational(Fraction(3)) == 3
    assert format_rational(Fraction(-4)) == -4
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-5, 3)) == "-5/3"
    for f in (Fraction(3), Fraction(1, 2), Fraction(-7, 11)):
        assert parse_rational(format_rational(f), "x") == f


# -- document-level parsing ---------------------------------------------------


def good_doc():
    return {
        "schema_version": 1,
        "name": "sl2",
        "matrix_size": 2,
        "basis": [[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]],
        "subalgebra_basis": [[[0, 1], [-1, 0]]],
    }


def test_parse_problem_dict_happy_path():
    p = parse_problem_dict(good_doc())
    assert p.name == "sl2"
    assert p.matrix_size == 2
    assert p.basis == (H, E, F)
    assert p.subalgebra_basis == (J,)
    assert p.theta is None and p.a_seed is None
    assert p.positivity_basis is None and p.minimal_parabolic_hint is None


def test_rational_strings_inside_matrices():
    doc = good_doc()
    doc["basis"][0] = [["1/2", 0], [0, "-1/2"]]
    p = parse_problem_dict(doc)
    assert p.basis[0] == ((Fraction(1, 2), Fraction(0)),
                          (Fraction(0), Fraction(-1, 2)))


def test_float_literals_are_rejected_with_guidance():
    text = '{"schema_version": 1, "matrix_size": 2, "basis": [[[0.5, 0], [0, -0.5]]], "subalgebra_basis": []}'
    with pytest.raises(ProblemFormatError,
                       match="floating point literal '0.5' is not accepted"):
        parse_problem_text(text)


def test_invalid_json_is_a_format_error():
    with pytest.raises(ProblemFormatError, match="invalid JSON"):
        parse_problem_text("{not json")


def test_unknown_keys_are_listed():
    doc = good_doc()
    doc["extra"] = 1
    doc["also_bad"] = 2
    with pytest.raises(ProblemFormatError,
                       match="unknown keys: also_bad, extra"):
        parse_problem_dict(doc)


def test_schema_version_mismatch():
    doc = good_doc()
    doc["schema_version"] = 2
    with pytest.raises(ProblemFormatError,
                       match="schema_version: expected 1, got 2"):
        parse_problem_dict(doc)


def test_missing_required_keys():
    doc = good_doc()
    del doc["basis"]
    with pytest.raises(ProblemFormatError, match="basis: missing"):
        parse_problem_dict(doc)
    doc = good_doc()
    del doc["subalgebra_basis"]
    with pytest.raises(ProblemFormatError,
                       match="subalgebra_basis: missing"):
        parse_problem_dict(doc)


def test_matrix_size_must_be_a_positive_integer():
    for bad in (0, -1, "2", True, None):
        doc = good_doc()
        doc["matrix_size"] = bad
        with pytest.raises(ProblemFormatError,
                           match="matrix_size: expected a positive integer"):
            parse_problem_dict(doc)


def test_positioned_error_for_wrong_row_length():
    doc = good_doc()
    doc["basis"][2] = [[0, 0], [1, 0, 9]]
    with pytest.raises(ProblemFormatError,
                       match=r"basis\[2\]\[1\]: expected 2 entries, got 3"):
        parse_problem_dict(doc)


def test_positioned_error_for_wrong_row_count_and_non_list_rows():
    doc = good_doc()
    doc["basis"][1] = [[0, 1]]
    with pytest.raises(ProblemFormatError,
                       match=r"basis\[1\]: expected 2 rows, got 1"):
        parse_problem_dict(doc)
    doc = good_doc()
    doc["subalgebra_basis"][0] = [42, [0, 0]]
    with pytest.raises(ProblemFormatError,
                       match=r"subalgebra_basis\[0\]\[0\]: expected 2 entries, "
                             "got int"):
        parse_problem_dict(doc)


@pytest.mark.parametrize("field, at, value, message", [
    ("basis", (1, 0, 1), True,
     "basis[1][0][1]: expected a number, got a boolean"),
    ("basis", (0, 1, 1), 0.5,
     "basis[0][1][1]: expected an integer or a 'p/q' string, got float"),
    ("subalgebra_basis", (0, 1, 0), "1/0",
     "subalgebra_basis[0][1][0]: malformed rational '1/0'"),
    ("basis", (2, 0, 0), "one/2",
     "basis[2][0][0]: malformed rational 'one/2'"),
    ("theta", (1, 2), False,
     "theta[1][2]: expected a number, got a boolean"),
    ("theta", (2, 0), "3/x",
     "theta[2][0]: malformed rational '3/x'"),
])
def test_bad_matrix_entries_are_located(field, at, value, message):
    doc = good_doc()
    doc["theta"] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    *path, last = at
    target = doc[field]
    for k in path:
        target = target[k]
    target[last] = value
    with pytest.raises(ProblemFormatError) as err:
        parse_problem_dict(doc)
    assert str(err.value) == message


def test_int_rows_pass_through_and_other_rows_are_parsed():
    doc = good_doc()
    doc["basis"][0] = [[1, 0], ["0/3", "-1"]]
    p = parse_problem_dict(doc)
    assert p.basis[0] == ((1, 0), (0, -1))
    assert p.basis[1] == ((0, 1), (0, 0))
    assert all(type(e) is int for m in p.basis for row in m for e in row)


def test_empty_basis_rejected_but_empty_subalgebra_allowed():
    doc = good_doc()
    doc["basis"] = []
    with pytest.raises(ProblemFormatError, match="basis: must not be empty"):
        parse_problem_dict(doc)
    doc = good_doc()
    doc["subalgebra_basis"] = []
    assert parse_problem_dict(doc).subalgebra_basis == ()


def test_theta_shape_is_checked_against_algebra_dimension():
    doc = good_doc()
    doc["theta"] = [[1, 0], [0, 1]]
    with pytest.raises(ProblemFormatError,
                       match="theta: expected a 3x3 coordinate matrix"):
        parse_problem_dict(doc)
    doc["theta"] = [[1, 0, 0], [0, 1, 0], [0, 1]]
    with pytest.raises(ProblemFormatError,
                       match="theta: expected a 3x3 coordinate matrix"):
        parse_problem_dict(doc)


def test_hint_must_be_signs_and_excludes_positivity_basis():
    doc = good_doc()
    doc["minimal_parabolic_hint"] = [1, 0]
    with pytest.raises(ProblemFormatError, match="list of 1/-1 signs"):
        parse_problem_dict(doc)
    doc["minimal_parabolic_hint"] = [1, True]
    with pytest.raises(ProblemFormatError, match="list of 1/-1 signs"):
        parse_problem_dict(doc)
    doc["minimal_parabolic_hint"] = [1]
    doc["positivity_basis"] = [[[1, 0], [0, -1]]]
    with pytest.raises(ProblemFormatError, match="mutually exclusive"):
        parse_problem_dict(doc)


def test_parse_problem_reports_unreadable_files(tmp_path):
    with pytest.raises(ProblemFormatError, match="cannot read"):
        parse_problem(tmp_path / "missing.json")


def test_parse_problem_reads_files(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(problem_to_json(sl2_problem([J])), encoding="utf-8")
    assert parse_problem(path) == sl2_problem([J])


# -- serialization round trips ------------------------------------------------


def test_json_round_trip_preserves_every_field():
    p = Problem(
        name="half", matrix_size=2,
        basis=(((Fraction(1, 2), Fraction(0)),
                (Fraction(0), Fraction(-1, 2))), E, F),
        subalgebra_basis=(J,),
        theta=((Fraction(1), Fraction(0), Fraction(0)),
               (Fraction(0), Fraction(0), Fraction(1)),
               (Fraction(0), Fraction(1), Fraction(0))),
        a_seed=(H,),
    )
    assert parse_problem_text(problem_to_json(p)) == p
    q = sl2_problem([J], minimal_parabolic_hint=(1,))
    assert parse_problem_text(problem_to_json(q)) == q
    r = sl2_problem([], positivity_basis=(H,))
    assert parse_problem_text(problem_to_json(r)) == r


def test_serialized_text_is_deterministic_and_float_free():
    text = problem_to_json(sl2_problem([J]))
    assert text == problem_to_json(sl2_problem([J]))
    assert "e-" not in text and "E-" not in text
    assert "." not in text


# -- assembly: positivity, seeds, theta ---------------------------------------


def sl2_times_sl2():
    basis = [embed(m, off, 4) for off in (0, 2) for m in (H, E, F)]
    return LieAlgebra(tuple(basis), name="sl2+sl2")


def test_positivity_from_hint_flips_the_marked_factor():
    g = sl2_times_sl2()
    cd = positivity_from_hint(g, None, (1, -1))
    h1 = g.from_matrix(embed(H, 0, 4))
    h2 = g.from_matrix(embed(H, 2, 4))
    assert cd.a.contains(h1) and cd.a.contains(h2) and cd.a.dim == 2
    assert cd.positivity == (h1, tuple(-c for c in h2))


def test_positivity_from_hint_sign_count_must_match_ideals():
    g = sl2_times_sl2()
    with pytest.raises(ProblemFormatError,
                       match="expected 2 signs .*got 1"):
        positivity_from_hint(g, None, (1,))
    so3 = LieAlgebra(so_basis(3), name="so3")
    cd = positivity_from_hint(so3, None, ())
    assert cd.a.dim == 0 and cd.positivity == ()
    with pytest.raises(ProblemFormatError, match="expected 0 signs"):
        positivity_from_hint(so3, None, (1,))


def test_positivity_from_hint_appends_the_split_center():
    gl2 = LieAlgebra(gl_basis(2), name="gl2")   # E11, E22, E12, E21
    cd = positivity_from_hint(gl2, None, (-1,))
    one, zero = Fraction(1), Fraction(0)
    # -(E11 - E22) for the sl(2) factor, then the identity
    assert cd.positivity == ((-one, one, zero, zero), (one, one, zero, zero))
    assert cd.n == canonical_basis([(0, 0, 0, 1)], 4)


def hinted_problems():
    """(id, problem, analyze options): every hinted catalog entry, with its
    search budget, and the hinted ladder pair sl(2)^6 / so(2)^6."""
    from sphlie.catalog import catalog_entries

    return ([(e.name, e.problem, ("--conjugate-search", str(e.search_budget)))
             for e in catalog_entries()
             if e.problem.minimal_parabolic_hint is not None]
            + [("sl2x6_hinted", hinted_sl2_so2(6), ())])


HINTED_PROBLEMS = hinted_problems()


def gl2_hinted():
    """gl(2) with so(2) and the hint (-1): z(g) ∩ s = span(I) is nonzero."""
    return Problem("gl2_hinted", 2, tuple(gl_basis(2)), (J,),
                   minimal_parabolic_hint=(-1,))


@pytest.mark.parametrize(
    "problem, center_dim",
    [(p, 0) for _, p, _ in HINTED_PROBLEMS] + [(gl2_hinted(), 1)],
    ids=[name for name, _, _ in HINTED_PROBLEMS] + ["gl2_hinted"])
def test_hinted_split_center_read_off_the_roots_is_z_cap_s(problem,
                                                          center_dim):
    """The positivity ends with the centre the hint reads off the roots; it
    is the echelon basis of z(g) ∩ s, solved here from z(g)."""
    cd = build_pair(problem).cartan
    center_split = subspace_intersect(cd.algebra.center(), cd.s)
    assert center_split.dim == center_dim
    assert cd.positivity[cd.a.dim - center_dim:] == center_split.basis


def test_build_pair_hint_controls_which_root_spaces_are_positive():
    basis = [embed(m, off, 4) for off in (0, 2) for m in (H, E, F)]
    flipped = Problem(name="opp", matrix_size=4, basis=tuple(basis),
                      subalgebra_basis=(), minimal_parabolic_hint=(1, -1))
    pair = build_pair(flipped)
    g = pair.cartan.algebra
    assert pair.cartan.n.contains(g.from_matrix(embed(E, 0, 4)))
    assert pair.cartan.n.contains(g.from_matrix(embed(F, 2, 4)))
    assert not pair.cartan.n.contains(g.from_matrix(embed(E, 2, 4)))


def test_build_pair_explicit_positivity_basis_flips_sl2():
    neg_h = tuple(tuple(-e for e in row) for row in H)
    p = sl2_problem([], positivity_basis=(neg_h,))
    pair = build_pair(p)
    g = pair.cartan.algebra
    assert pair.cartan.n.contains(g.from_matrix(F))
    assert not pair.cartan.n.contains(g.from_matrix(E))


def test_build_pair_a_seed_path_and_membership_errors():
    pair = build_pair(sl2_problem([J], a_seed=(H,)))
    assert pair.cartan.a.contains(pair.cartan.algebra.from_matrix(H))
    e11 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    with pytest.raises(ProblemFormatError,
                       match=r"a_seed\[0\]: not an element of the algebra"):
        build_pair(sl2_problem([J], a_seed=(e11,)))
    with pytest.raises(ProblemFormatError,
                       match=r"positivity_basis\[0\]: not an element"):
        build_pair(sl2_problem([J], positivity_basis=(e11,)))


def test_build_pair_rejects_fields_a_hint_excludes():
    """A Problem built in code meets the same exclusion as a parsed one:
    with a hint, a seed or positivity basis is refused, not ignored."""
    problem = get_entry("sl2x2_diag_opposite").problem
    assert build_pair(problem).cartan.a.dim == 2
    first = problem.basis[0]
    for key in ("a_seed", "positivity_basis"):
        with pytest.raises(ProblemFormatError, match=(
                f"{key} and minimal_parabolic_hint are mutually exclusive")):
            build_pair(dataclasses.replace(problem, **{key: (first,)}))


def test_build_pair_theta_override_matches_default_for_so3():
    base = Problem(name="so3", matrix_size=3, basis=so_basis(3),
                   subalgebra_basis=(so_basis(3)[0],))
    identity = tuple(tuple(Fraction(1 if i == j else 0) for j in range(3))
                     for i in range(3))
    with_theta = Problem(name="so3", matrix_size=3, basis=so_basis(3),
                         subalgebra_basis=(so_basis(3)[0],), theta=identity)
    assert build_pair(base).cartan.k.dim == 3
    assert build_pair(with_theta).cartan.k == build_pair(base).cartan.k


def test_build_pair_rejects_non_closed_subalgebras():
    with pytest.raises(NotClosed):
        build_pair(sl2_problem([E, F]))


def test_build_pair_full_sl3_smoke():
    p = Problem(name="sl3", matrix_size=3, basis=sl_basis(3),
                subalgebra_basis=(so_basis(3)[0], so_basis(3)[1],
                                  so_basis(3)[2]),
                minimal_parabolic_hint=(1,))
    pair = build_pair(p)
    assert pair.cartan.algebra.dim == 8
    assert pair.h.dim == 3
    assert len(pair.cartan.simple_roots) == 2


# -- each derived object once per analysis ---------------------------------------


def analyze_counting(monkeypatch, tmp_path, problem, *options):
    """Run ``sphlie analyze`` on a problem; return its exit code, the number
    of times each algebra's center was solved (its centralizer in itself),
    the subalgebras whose normalizer was solved and the subspaces
    is_subalgebra checked."""
    import sys
    from collections import Counter

    import sphlie.liealg as liealg
    from sphlie.cli import main

    center_solves = Counter()   # id of the algebra -> solves of z(g)
    real_centralizer_in = liealg.centralizer_in

    def counting_centralizer_in(g, s, within=None):
        if sys._getframe(1).f_code.co_name in ("center", "_center"):
            center_solves[id(g)] += 1
        return real_centralizer_in(g, s, within)

    normalized = []
    real_normalizer = liealg._normalizer
    checked = []
    real_is_subalgebra = liealg.LieAlgebra.is_subalgebra
    monkeypatch.setattr(liealg, "centralizer_in", counting_centralizer_in)
    # every sphlie namespace that binds _normalizer is patched
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sphlie" and getattr(
                module, "_normalizer", None) is real_normalizer:
            monkeypatch.setattr(
                module, "_normalizer",
                lambda g, h: normalized.append(h) or real_normalizer(g, h))
    monkeypatch.setattr(
        liealg.LieAlgebra, "is_subalgebra",
        lambda g, s: checked.append(s) or real_is_subalgebra(g, s))
    path = tmp_path / "problem.json"
    path.write_text(problem_to_json(problem), encoding="utf-8")
    code = main(["analyze", str(path), "--samples", "2", *options])
    return code, center_solves, normalized, checked


def test_one_analyze_solves_each_center_once_and_normalizes_once(
        monkeypatch, tmp_path, capsys):
    code, center_solves, normalized, _ = analyze_counting(
        monkeypatch, tmp_path,
        Problem("sl4_so4", 4, tuple(sl_basis(4)), tuple(so_basis(4))))
    assert code == 0
    # each center at most once, and sl(4)'s not at all: the compact factor
    # m of N(h) is zero, so no invariant form is restricted to it
    assert not center_solves
    # N(h) = h for sl(4)/so(4), so the self-normalizing check reuses it
    assert len(normalized) == 1


def test_one_analyze_builds_the_normalizer_once(monkeypatch, tmp_path,
                                                capsys):
    """structure_report solves N(h) for the Levi adjustment, and
    normalizer_report reads it there; only the self-normalizing check
    solves N(N(h)) as well, as N(h) ≠ h here (dims 3 and 2)."""
    code, _, normalized, _ = analyze_counting(
        monkeypatch, tmp_path, get_entry("sl2_plus_so2_borel").problem)
    assert code == 0
    assert [s.dim for s in normalized] == [2, 3]


def test_one_analyze_certifies_closure_once(monkeypatch, tmp_path, capsys):
    code, _, _, checked = analyze_counting(
        monkeypatch, tmp_path,
        Problem("sl4_so4", 4, tuple(sl_basis(4)), tuple(so_basis(4))))
    assert code == 0
    # spherical_pair certifies h; the root table closes the nilradical u,
    # the normalizer reuses h's certificate and N(h) = h needs none
    assert [s.dim for s in checked] == [6]


def analyze_ok(tmp_path, problem):
    from sphlie.cli import main

    path = tmp_path / "problem.json"
    path.write_text(problem_to_json(problem), encoding="utf-8")
    return main(["analyze", str(path), "--samples", "2"]) == 0


@pytest.mark.parametrize("problem", [sl_so(4), hinted_sl2_so2(6)],
                         ids=lambda p: p.name)
def test_one_analyze_builds_one_standard_parabolic(
        monkeypatch, tmp_path, capsys, problem):
    """The adapted parabolic is the one the enumeration's exact test built
    for the passing subset, not a second build."""
    import sphlie.spherical as spherical

    built = []
    real = spherical.standard_parabolic
    monkeypatch.setattr(spherical, "standard_parabolic",
                        lambda cd, f: built.append(f) or real(cd, f))
    assert analyze_ok(tmp_path, problem)
    assert built == [()]


def recording(monkeypatch, name, module):
    """Record the arguments of every call to ``module.name`` from any
    sphlie module that binds it."""
    real, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "sphlie" and getattr(
                mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("problem", [sl_so(4), hinted_sl2_so2(6)],
                         ids=lambda p: p.name)
def test_one_analyze_meets_n_with_h_and_tests_the_complement_once(
        monkeypatch, tmp_path, capsys, problem):
    """n ∩ h and the test n = u ⊕ (n ∩ h) run once, in the enumeration:
    the structure report reads the check from it, and N(h) = h makes the
    normalizer's test the same one."""
    import sphlie.linalg as linalg
    import sphlie.spherical as spherical

    pairs = []
    real = spherical.candidate_subsets
    monkeypatch.setattr(spherical, "candidate_subsets",
                        lambda pair: pairs.append(pair) or real(pair))
    meets = recording(monkeypatch, "subspace_intersect", linalg)
    tests = recording(monkeypatch, "is_direct_sum", linalg)
    assert analyze_ok(tmp_path, problem)
    (pair,) = pairs
    n, h = pair.cartan.n, pair.h
    assert sum({a, b} == {n, h} for a, b in meets) == 1
    assert [args[2:] for args in tests if args[0] == n] == [
        (subspace_intersect(n, h),)]


@pytest.mark.parametrize("problem", [sl_so(4), hinted_sl2_so2(6)],
                         ids=lambda p: p.name)
def test_a_diagonal_torus_analyze_solves_no_eigenspace(
        monkeypatch, tmp_path, capsys, problem):
    """The adapted parabolic's grading is read off the root table, and the
    roots off the diagonal weights, so neither derivation_pair nor
    eigen_split runs."""
    import sphlie.orbits as orbits
    import sphlie.spectral as spectral

    validated = recording(monkeypatch, "derivation_pair", orbits)
    split = recording(monkeypatch, "eigen_split", spectral)
    assert analyze_ok(tmp_path, problem)
    assert validated == split == []


def test_one_analyze_builds_no_gram_form_on_sl4_so4(
        monkeypatch, tmp_path, capsys):
    """sl(4)/so(4) has a zero compact Levi part l_c and a zero compact
    factor m of N(h), and theta = -X^T is proved Cartan, so no Killing or
    invariant form is built."""
    built = []
    for name in ("_killing", "_invariant"):
        real = getattr(LieAlgebra, name).func
        monkeypatch.setattr(LieAlgebra, name, property(
            lambda g, _real=real, _name=name: built.append(_name)
            or _real(g)))
    assert analyze_ok(tmp_path, sl_so(4))
    assert built == []


@pytest.mark.parametrize("name", ["sl2_n", "gl2_projective_line",
                                  "sl2x3_diag_mixed"])
def test_a_conjugated_pair_certifies_closure_once(monkeypatch, name):
    """find_open_pair checks h's closure once, in build_pair: Ad(word) is an
    automorphism, so the conjugated h is closed without a check of its own."""
    import sphlie.liealg as liealg
    from sphlie.problem import find_open_pair

    entry = get_entry(name)
    checked = []
    real_is_subalgebra = liealg.LieAlgebra.is_subalgebra
    monkeypatch.setattr(
        liealg.LieAlgebra, "is_subalgebra",
        lambda g, s: checked.append(s) or real_is_subalgebra(g, s))
    pair, ok, _, search, final = find_open_pair(
        entry.problem, entry.search_budget, seed=0)
    assert not ok and search is not None
    assert final.h == search.conjugated != pair.h
    assert checked == [pair.h]
    assert real_is_subalgebra(final.algebra, final.h)


def test_hinted_analyze_solves_each_center_once(monkeypatch, tmp_path, capsys):
    from sphlie.catalog import get_entry

    entry = get_entry("sl2x3_diag_mixed")
    code, center_solves, _, _ = analyze_counting(
        monkeypatch, tmp_path, entry.problem,
        "--conjugate-search", str(entry.search_budget))
    assert code == 0
    # the hint reads its split centre off the roots, and no invariant form
    # is built, so z(g) is never solved
    assert not center_solves


@pytest.mark.parametrize(
    "problem, options",
    [(p, o) for name, p, o in HINTED_PROBLEMS if name != "sl2x3_diag_mixed"],
    ids=[name for name, _, _ in HINTED_PROBLEMS
         if name != "sl2x3_diag_mixed"])
def test_hinted_analyze_solves_each_center_at_most_once(
        monkeypatch, tmp_path, capsys, problem, options):
    code, center_solves, _, _ = analyze_counting(
        monkeypatch, tmp_path, problem, *options)
    assert code == 0
    assert all(n == 1 for n in center_solves.values())


def test_hinted_build_validates_theta_once(monkeypatch):
    """The default theta = -X^T is validated by one default_involution per
    build, which solves -b^T in g for each basis matrix b; its automorphism
    property is then proved, so cartan_decompose makes no bracket."""
    import sphlie.liealg as liealg
    from sphlie.catalog import get_entry

    calls = []
    real = liealg.default_involution
    monkeypatch.setattr(liealg, "default_involution",
                        lambda g: calls.append(g) or real(g))
    problem = get_entry("sl2x3_diag_mixed").problem
    assert problem.minimal_parabolic_hint is not None
    build_pair(problem)
    assert len(calls) == 1
    build_pair(problem)   # a new algebra validates its own theta
    assert len(calls) == 2

    brackets = []
    real_bracket = liealg.LieAlgebra.bracket
    monkeypatch.setattr(liealg.LieAlgebra, "bracket",
                        lambda g, x, y: brackets.append(1) or real_bracket(g, x, y))
    liealg.cartan_decompose(LieAlgebra(problem.basis))
    assert brackets == []


def test_hinted_build_checks_a_given_theta_once(monkeypatch):
    """A theta given in the problem keeps the full check, once per build."""
    import sphlie.liealg as liealg
    from sphlie.catalog import get_entry

    problem = get_entry("sl2x3_diag_mixed").problem
    problem = dataclasses.replace(problem, theta=liealg.default_involution(
        LieAlgebra(problem.basis)))
    calls = []
    real = liealg._validate_involution
    monkeypatch.setattr(liealg, "_validate_involution",
                        lambda g, th: calls.append(g) or real(g, th))
    build_pair(problem)
    assert len(calls) == 1
    build_pair(problem)
    assert len(calls) == 2


def count_liealg_calls(monkeypatch, *names):
    """{name: 0} for each ``sphlie.liealg`` function named, counting its
    calls through every sphlie module that holds it."""
    import sphlie.liealg as liealg

    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(liealg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "sphlie"
                    and getattr(mod, name, None) is real):
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_hinted_build_decomposes_g_once(monkeypatch):
    """One root decomposition per hinted build: the hint orders the roots
    of the diagonal torus and grows no second torus.  The default theta is
    proved Cartan, so no Killing signature is checked."""
    counts = count_liealg_calls(monkeypatch, "maximal_abelian",
                                "_certify_cartan")
    build_pair(get_entry("sl2x3_diag_mixed").problem)
    assert counts == {"maximal_abelian": 1, "_certify_cartan": 0}


def test_hinted_build_certifies_a_given_theta_cartan_once(monkeypatch):
    """A given theta, here -X^T's own coordinate matrix, keeps its Killing
    signature check, once per build."""
    import sphlie.liealg as liealg

    problem = get_entry("sl2x3_diag_mixed").problem
    problem = dataclasses.replace(problem, theta=liealg.default_involution(
        LieAlgebra(problem.basis)))
    counts = count_liealg_calls(monkeypatch, "maximal_abelian",
                                "_certify_cartan")
    build_pair(problem)
    assert counts == {"maximal_abelian": 1, "_certify_cartan": 1}


# -- a hinted build does not depend on g's basis ------------------------------


HINTED = {
    "sl2x2": (direct_sum_basis([sl_basis(2)] * 2), (1, -1)),
    "sl2x3": (direct_sum_basis([sl_basis(2)] * 3), (1, -1, 1)),
    "sl3": (sl_basis(3), (1,)),
}


def is_diagonal(m) -> bool:
    return all(not e for r, row in enumerate(m) for c, e in enumerate(row)
               if r != c)


def remix(mats, seed, keep_frame):
    """An invertible rational recombination of ``mats``.

    With ``keep_frame``, basis matrix i gains rational multiples of later,
    non-diagonal basis matrices only.  Every subspace then keeps its pivots
    and leading coefficients, and the diagonal torus keeps its echelon
    basis, so the ideals' order and each torus's orientation, which a
    hint's signs refer to, stay the same.  Otherwise the mixing is a unit
    lower times a unit upper triangular one with entries in {-1, 0, 1}
    (kept small: the torus's root values are rationals whose size grows
    with the mixing's)."""
    rng = random.Random(seed)
    d = len(mats)

    def entry(choices):
        return Fraction(rng.choice(choices))

    if keep_frame:
        rational = (-1, 0, 0, 1, Fraction(1, 2), -2)
        mix = [[Fraction(1) if i == j else entry(rational)
                if j > i and not is_diagonal(mats[j]) else Fraction(0)
                for j in range(d)] for i in range(d)]
    else:
        small = (-1, 0, 0, 1)
        low = [[Fraction(1) if i == j else entry(small) if j < i
                else Fraction(0) for j in range(d)] for i in range(d)]
        up = [[Fraction(1) if i == j else entry(small) if j > i
               else Fraction(0) for j in range(d)] for i in range(d)]
        mix = [[sum(low[i][k] * up[k][j] for k in range(d))
                for j in range(d)] for i in range(d)]
    return [add(*(scale(c, m) for c, m in zip(row, mats))) for row in mix]


def hinted_spans(name, mats):
    """The matrix spans of a and n of the hinted build on basis ``mats``."""
    hint = HINTED[name][1]
    cd = build_pair(Problem(name=name, matrix_size=len(mats[0]),
                            basis=tuple(mats), subalgebra_basis=(),
                            minimal_parabolic_hint=hint)).cartan
    g, n = cd.algebra, cd.algebra.matrix_size
    return tuple(canonical_basis(
        [tuple(e for row in g.to_matrix(v) for e in row) for v in sub.basis],
        n * n) for sub in (cd.a, cd.n))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(HINTED)), st.integers(0, 2 ** 32))
@example("sl2x2", 0)
@example("sl3", 0)
def test_hinted_build_does_not_depend_on_the_basis(name, seed):
    basis = HINTED[name][0]
    a, n = hinted_spans(name, basis)
    assert hinted_spans(name, remix(basis, seed, keep_frame=True)) == (a, n)
    assert hinted_spans(name, remix(basis, seed, keep_frame=False))[0] == a
