"""Nilpotent-orbit identity and its exact inverse.

Coordinates follow the builders: sl2 is (H, E, F); sl3 is
(H1, H2, E12, E13, E23, E21, E31, E32).
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sphlie.orbits as orbits
from sphlie.builders import sl
from sphlie.catalog import catalog_entries, get_entry
from sphlie.cli import main
from sphlie.errors import (
    DimensionMismatch,
    NotClosed,
    NotNilpotent,
    SpectrumError,
    UnreachableTarget,
)
from sphlie.liealg import cartan_data
from sphlie.linalg import (
    canonical_basis,
    lin_comb,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)
from sphlie.orbits import (
    derivation_pair,
    exp_ad_apply,
    solve_conjugator,
)
from sphlie.parabolic import characteristic_element, standard_parabolic
from sphlie.problem import build_pair, find_open_pair, problem_to_json
from sphlie.spherical import adapted_parabolic
from test_enumeration import ladder_problems
from test_exact_scalars import remixed
from test_exp_series import dense_exp_ad

# the 10-value pool the library's orbit sampler drew from, in its order, so
# that every seeded draw below is the one it made
POOL = (1, -1, 2, -2, F(1, 2), F(-1, 2), 3, -3, 0, F(1, 3))


def random_u_element(dp, rng):
    return lin_comb([rng.choice(POOL) for _ in dp.u.basis], dp.u.basis,
                    dp.algebra.dim)


def bracket_image_dim(dp):
    """dim [x0, u], by the independent oracle."""
    g = dp.algebra
    return oracles.dim_span([g.bracket(dp.x0, b) for b in dp.u.basis])


# -- fixtures ---------------------------------------------------------------


def sl2_dp():
    # x0 = -H/2, u = span(E); -ad(x0) has eigenvalue 1 on E.
    g = sl(2)
    return derivation_pair(g, (F(-1, 2), F(0), F(0)),
                           canonical_basis([(0, 1, 0)], 3))


def sl3_heisenberg_dp():
    # x0 = diag(-1, 0, 1), u = all strictly upper triangular: layers are
    # eigenvalue 1 on span(E12, E23) and eigenvalue 2 on span(E13).
    g = sl(3)
    x0 = g.from_matrix([[-1, 0, 0], [0, 0, 0], [0, 0, 1]])
    u = g.span_of_matrices([
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    ])
    return derivation_pair(g, x0, u)


def borel_nilradical_dp(n):
    # sl(n) with u the full upper triangle: layers 1, ..., n - 1 under
    # x0 = diag(-(n-1)/2, ..., (n-1)/2), E_ij in layer j - i.
    g = sl(n)
    x0 = g.from_matrix([[F(2 * i - n + 1, 2) if i == j else 0
                         for j in range(n)] for i in range(n)])
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = [[0] * n for _ in range(n)]
            m[i][j] = 1
            mats.append(m)
    return derivation_pair(g, x0, g.span_of_matrices(mats))


def sl4_three_layer_dp():
    # x0 = diag(-3/2, -1/2, 1/2, 3/2): layers 1, 2, 3.
    return borel_nilradical_dp(4)


# -- exp_ad_apply -----------------------------------------------------------


def test_exp_ad_of_zero_is_identity():
    g = sl(2)
    y = (F(2), F(-3), F(5))
    assert exp_ad_apply(g, zero_vector(3), y) == y


def test_exp_ad_two_term_series():
    g = sl(2)
    # e^{ad E} H = H + [E, H] = H - 2E; the k = 2 term [E, -2E]/2 vanishes.
    assert exp_ad_apply(g, (0, 1, 0), (1, 0, 0)) == (F(1), F(-2), F(0))


def test_exp_ad_rejects_non_nilpotent():
    g = sl(2)
    with pytest.raises(NotNilpotent):
        exp_ad_apply(g, (1, 0, 0), (0, 1, 0))    # ad H is semisimple


def test_exp_ad_certifies_only_its_own_series():
    # ad H is not nilpotent on sl2, but [H, H] = 0 ends the series on H.
    g = sl(2)
    h = (F(1), F(0), F(0))
    assert exp_ad_apply(g, h, h) == h


def test_exp_ad_rejects_wrong_lengths():
    g = sl(2)
    with pytest.raises(DimensionMismatch):
        exp_ad_apply(g, (0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(DimensionMismatch):
        exp_ad_apply(g, (0, 1, 0, 1), (1, 0, 0))


def test_exp_ad_preserves_brackets():
    g = sl(3)
    rng = Random(11)
    dp = sl3_heisenberg_dp()
    for _ in range(10):
        u_elt = random_u_element(dp, rng)
        x = tuple(F(rng.randint(-3, 3)) for _ in range(8))
        y = tuple(F(rng.randint(-3, 3)) for _ in range(8))
        fx = exp_ad_apply(g, u_elt, x)
        fy = exp_ad_apply(g, u_elt, y)
        assert exp_ad_apply(g, u_elt, g.bracket(x, y)) == g.bracket(fx, fy)


# -- derivation_pair validation ----------------------------------------------


def test_derivation_pair_layers_sl2():
    dp = sl2_dp()
    assert [(lam, layer.dim) for lam, layer in dp.layers] == [(F(1), 1)]
    assert bracket_image_dim(dp) == dp.u.dim


def test_derivation_pair_layers_heisenberg():
    dp = sl3_heisenberg_dp()
    assert [(lam, layer.dim) for lam, layer in dp.layers] == [
        (F(1), 2), (F(2), 1)]
    assert bracket_image_dim(dp) == dp.u.dim


@pytest.mark.parametrize("n", [4, 5])
def test_derivation_pair_sums_the_positive_layers_in_one_elimination(
        monkeypatch, n):
    """Every layer is positive, so the image [x0, u] is certified equal to
    u by one canonical basis: one elimination, whatever the number of
    layers.  eigen_split is replayed from a first run, so that every rref
    counted belongs to derivation_pair itself."""
    import sphlie.linalg as linalg
    import sphlie.orbits as orbits
    dp = borel_nilradical_dp(n)
    assert [lam for lam, _ in dp.layers] == list(range(1, n))
    monkeypatch.setattr(orbits, "eigen_split", lambda a, s: dp.layers)
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda rows: calls.append(len(rows)) or real(rows))
    again = derivation_pair(dp.algebra, dp.x0, dp.u)
    assert again.u == dp.u and again.layers == dp.layers
    assert len(calls) <= 1


def graded_problems():
    """{label: (problem, largest |F| checked)}: every catalog entry and
    ladder pair, on its own basis and remixed by seeds 0 and 3.  On the
    remixed sl(5)/so(5) and sl(2)^6, where one derivation_pair takes up to
    2 s, only F = () is checked: u_F = n, with every layer."""
    problems = [*(e.problem for e in sorted(catalog_entries(),
                                            key=lambda e: e.name)),
                *ladder_problems()]
    big = {"sl5_so5", "sl2x6_so2x6_hinted"}
    return {f"{p.name}-{seed}": (p if seed is None else remixed(p, seed),
                                 0 if seed is not None and p.name in big
                                 else None)
            for p in problems for seed in (None, 0, 3)}


GRADED_PROBLEMS = graded_problems()


@pytest.mark.parametrize("label", GRADED_PROBLEMS)
def test_the_root_table_grading_is_the_certified_one(label):
    """For every subset F checked (:func:`graded_problems`) with u_F ≠ 0,
    ParabolicData.derivation, read off the root table, equals
    derivation_pair of the characteristic element and u_F: the same x0 and u, and for each layer the same λ, a Fraction,
    and the same canonical basis."""
    problem, largest = GRADED_PROBLEMS[label]
    cd = build_pair(problem).cartan
    r = len(cd.simple_roots)
    checked = 0
    for k in range(r + 1 if largest is None else largest + 1):
        for f in combinations(range(r), k):
            pd = standard_parabolic(cd, f)
            if pd.nilradical.dim == 0:
                continue
            read = pd.derivation
            ref = derivation_pair(cd.algebra, characteristic_element(cd, f),
                                  pd.nilradical)
            assert (read.x0, read.u) == (ref.x0, ref.u), f
            assert read.layers == ref.layers, f
            assert all(type(lam) is F for lam, _ in read.layers), f
            checked += 1
    assert checked or cd.n.dim == 0


def test_derivation_pair_rejects_non_subalgebra():
    g = sl(2)
    with pytest.raises(NotClosed):
        derivation_pair(g, (0, 0, 0),
                        canonical_basis([(0, 1, 0), (0, 0, 1)], 3))


def test_derivation_pair_rejects_non_invariant_u():
    g = sl(2)
    with pytest.raises(NotClosed):
        derivation_pair(g, (0, 1, 0), canonical_basis([(0, 0, 1)], 3))


def test_derivation_pair_rejects_positive_spectrum():
    g = sl(2)
    with pytest.raises(SpectrumError):
        derivation_pair(g, (F(1, 2), F(0), F(0)),
                        canonical_basis([(0, 1, 0)], 3))


def test_derivation_pair_rejects_non_semisimple_action():
    # x0 = E23 maps E12 to -E13 and kills E13: nilpotent, not diagonalizable.
    g = sl(3)
    x0 = g.from_matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    u = g.span_of_matrices([
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ])
    with pytest.raises(SpectrumError):
        derivation_pair(g, x0, u)


def unit(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i][j] = 1
    return m


ZERO_2, H_2, E_2 = [[0, 0], [0, 0]], [[1, 0], [0, -1]], unit(2, 0, 1)
# diag(-1/3, -1/3, 2/3): E12 and H1 in the layer 0, E13 and E23 in the layer 1
THIRDS = [[F(-1, 3), 0, 0], [0, F(-1, 3), 0], [0, 0, F(2, 3)]]
H1_3 = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]


@pytest.mark.parametrize("x0, u", [
    (ZERO_2, [H_2, E_2]),
    (ZERO_2, [H_2]),
    (ZERO_2, [E_2]),
    (THIRDS, [H1_3, unit(3, 0, 2), unit(3, 1, 2)]),
    (THIRDS, [unit(3, 0, 1), unit(3, 0, 2), unit(3, 1, 2)]),
    (THIRDS, [unit(3, 0, 1), unit(3, 0, 2)]),
], ids=["non_nilpotent_u", "u_not_acting_nilpotently_on_g", "central_x0",
        "semisimple_zero_layer", "nilpotent_zero_layer",
        "zero_layer_component"])
def test_derivation_pair_rejects_a_zero_layer(x0, u):
    """A layer of -ad(x0) with eigenvalue 0 raises at construction, whether
    u is nilpotent (E, or E12 beside the layer 1) or not (span(H, E), or H
    and H1 that act semisimply on g): [x0, u] misses that layer, and the
    positive grading is what proves u nilpotent."""
    g = sl(len(x0))
    with pytest.raises(SpectrumError, match="negative eigenvalues"):
        derivation_pair(g, g.from_matrix(x0), g.span_of_matrices(u))


# -- orbit identity ----------------------------------------------------------


def test_orbit_identity_sl2():
    # x0 = -H/2 and [E, x0] = E, so e^{ad tE}x0 = x0 + tE: the orbit of x0
    # under u = span(E) is x0 + u, and tE is its own conjugator
    dp = sl2_dp()
    for t in POOL:
        w = (0, t, 0)
        assert exp_ad_apply(dp.algebra, w, dp.x0) == vec_add(dp.x0, w)
        assert solve_conjugator(dp, w) == w


def test_orbit_identity_heisenberg():
    # x0 = diag(-1, 0, 1): [E_ij, x0] = (x0_j - x0_i) E_ij, so U = a E12 +
    # b E13 + c E23 has [U, x0] = a E12 + 2b E13 + c E23, and [U, [U, x0]]
    # = ac[E12, E23] + ca[E23, E12] = 0: e^{ad U}x0 = x0 + [U, x0]
    dp = sl3_heisenberg_dp()
    for a, b, c in combinations(POOL, 3):
        u_elt = (0, 0, a, b, c, 0, 0, 0)
        w = (0, 0, a, 2 * b, c, 0, 0, 0)
        assert exp_ad_apply(dp.algebra, u_elt, dp.x0) == vec_add(dp.x0, w)
        assert solve_conjugator(dp, w) == u_elt


def test_orbit_identity_from_characteristic_element():
    # Cross-check with the parabolic module: the characteristic element of
    # any subset acts on the corresponding nilradical with strictly negative
    # eigenvalues, so the pair is valid and the image is all of u.
    g = sl(3)
    from sphlie.builders import regular_diagonal_positivity, sl_basis
    reg = g.from_matrix(regular_diagonal_positivity(3))
    cd = cartan_data(g, positivity_basis=[reg, g.from_matrix(sl_basis(3)[0])])
    for subset in ((), (0,), (1,)):
        pd = standard_parabolic(cd, subset)
        x0 = characteristic_element(cd, subset)
        dp = derivation_pair(g, x0, pd.nilradical)
        assert all(lam > 0 for lam, _ in dp.layers)
        assert dp.u == pd.nilradical
        assert bracket_image_dim(dp) == dp.u.dim


# -- solve_conjugator --------------------------------------------------------


def test_solve_conjugator_zero_target():
    dp = sl2_dp()
    assert solve_conjugator(dp, zero_vector(3)) == zero_vector(3)


def test_solve_conjugator_sl2_line():
    # W = 5E lives in the eigenvalue-1 layer, so U = 5E on the nose.
    dp = sl2_dp()
    assert solve_conjugator(dp, (F(0), F(5), F(0))) == (F(0), F(5), F(0))


def test_solve_conjugator_two_layer_hand_case():
    # W = E23 + E13: layer 1 gives U_1 = E23, and e^{ad E23}x0 - x0 = E23
    # has no E13 part, so layer 2 gives U_2 = E13/2.
    g = sl(3)
    dp = sl3_heisenberg_dp()
    w = g.from_matrix([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    expected = g.from_matrix([[0, 0, F(1, 2)], [0, 0, 1], [0, 0, 0]])
    got = solve_conjugator(dp, w)
    assert got == expected
    assert exp_ad_apply(g, got, dp.x0) == vec_add(dp.x0, w)


def test_solve_conjugator_round_trips_heisenberg():
    g = sl(3)
    dp = sl3_heisenberg_dp()
    rng = Random(9)
    for _ in range(25):
        w = zero_vector(8)
        for b in dp.u.basis:
            w = vec_add(w, vec_scale(F(rng.randint(-6, 6), rng.choice((1, 2, 3))), b))
        u_sol = solve_conjugator(dp, w)
        assert dp.u.contains(u_sol)
        assert exp_ad_apply(g, u_sol, dp.x0) == vec_add(dp.x0, w)


def test_solve_conjugator_three_layer_round_trips():
    # three layers (1, 2, 3) with non-commuting brackets: each layer's part
    # of U depends on the parts solved below it.
    dp = sl4_three_layer_dp()
    g = dp.algebra
    assert [lam for lam, _ in dp.layers] == [F(1), F(2), F(3)]
    rng = Random(21)
    for _ in range(10):
        w = zero_vector(g.dim)
        for b in dp.u.basis:
            w = vec_add(w, vec_scale(F(rng.randint(-4, 4)), b))
        u_sol = solve_conjugator(dp, w)
        assert dp.u.contains(u_sol)
        assert exp_ad_apply(g, u_sol, dp.x0) == vec_add(dp.x0, w)


def test_solve_conjugator_recovers_u_exactly():
    # every layer is positive in both pairs and ad is injective on u, so
    # U is the only solution, and the solve must return it on the nose.
    for dp, seed in ((sl4_three_layer_dp(), 5), (sl3_heisenberg_dp(), 6)):
        assert all(lam > 0 for lam, _ in dp.layers)
        g = dp.algebra
        rng = Random(seed)
        for _ in range(15):
            u_elt = random_u_element(dp, rng)
            w = vec_sub(exp_ad_apply(g, u_elt, dp.x0), dp.x0)
            assert solve_conjugator(dp, w) == u_elt


def test_solve_conjugator_eliminates_only_on_first_call(monkeypatch):
    import sphlie.linalg as linalg
    dp = sl4_three_layer_dp()
    g = dp.algebra
    rng = Random(13)
    targets = [vec_sub(exp_ad_apply(g, random_u_element(dp, rng), dp.x0),
                       dp.x0) for _ in range(4)]
    solve_conjugator(dp, targets[0])
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda rows: calls.append(len(rows)) or real(rows))
    for w in targets[1:]:
        assert exp_ad_apply(g, solve_conjugator(dp, w), dp.x0) == vec_add(dp.x0, w)
    assert calls == []


def test_solve_conjugator_rejects_target_outside_image():
    dp = sl2_dp()
    with pytest.raises(UnreachableTarget, match="bracket image"):
        solve_conjugator(dp, (F(1), F(0), F(0)))   # H is not even in u


# -- the identity, replayed on samples ----------------------------------------


@lru_cache(maxsize=None)
def adapted_pairs():
    """{label: derivation pair} of every catalog entry's adapted parabolic,
    on the entry's own basis and on two remixed bases, wherever the pair
    opens within the entry's search budget."""
    out = {}
    for entry in sorted(catalog_entries(), key=lambda e: e.name):
        for seed in (None, 0, 3):
            problem = (entry.problem if seed is None
                       else remixed(entry.problem, seed))
            final = find_open_pair(problem, entry.search_budget, 0)[4]
            if final is not None:
                out[f"{entry.name}-{seed}"] = adapted_parabolic(
                    final).derivation
    return out


@lru_cache(maxsize=None)
def minimal_pairs():
    """{label: derivation pair} of the minimal parabolic of every catalog
    entry with n ≠ 0, on the entry's own basis and on two remixed bases."""
    out = {}
    for entry in sorted(catalog_entries(), key=lambda e: e.name):
        for seed in (None, 0, 3):
            problem = (entry.problem if seed is None
                       else remixed(entry.problem, seed))
            cd = build_pair(problem).cartan
            if cd.n.dim > 0:
                out[f"{entry.name}-{seed}-minimal"] = standard_parabolic(
                    cd, ()).derivation
    return out


FIXED = {"sl3_heisenberg": sl3_heisenberg_dp,
         "sl4_borel": lambda: borel_nilradical_dp(4),
         "sl5_borel": lambda: borel_nilradical_dp(5)}


@pytest.mark.parametrize("label", [*FIXED, *adapted_pairs(),
                                   *minimal_pairs()])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_the_orbit_identity_holds_on_samples_and_inverts(label, data):
    """For U drawn over the layers of u: e^{ad U}x0 - x0 lies in u = [x0, u]
    by the oracle (⊆), and solve_conjugator returns U itself (⊇).  U is the
    only solution, since ad x0 is injective on u (every λ > 0), so the
    round trip checks both inclusions of derivation_pair's proof."""
    dp = (FIXED[label]() if label in FIXED
          else {**adapted_pairs(), **minimal_pairs()}[label])
    g = dp.algebra
    u_elt = zero_vector(g.dim)
    for _, layer in dp.layers:
        coeffs = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                                    min_size=layer.dim, max_size=layer.dim))
        u_elt = vec_add(u_elt, lin_comb(coeffs, layer.basis, g.dim))
    moved = vec_sub(dense_exp_ad(g, u_elt, dp.x0), dp.x0)
    assert oracles.member(dp.u.basis, moved)
    assert solve_conjugator(dp, moved) == u_elt


def no_series(*args):
    raise AssertionError("an e^{ad U} series ran")


@pytest.mark.parametrize("entry", sorted(catalog_entries(),
                                         key=lambda e: e.name),
                         ids=lambda e: e.name)
def test_the_orbit_report_runs_no_series(monkeypatch, tmp_path, capsys,
                                         entry):
    """The orbit identity costs no e^{ad U} series: an entry that opens at
    the base point runs none at all, and one that needs a conjugation runs
    the search's series only, as many in ``orbit-check`` with 100 samples
    as with 0."""
    path = tmp_path / f"{entry.name}.json"
    path.write_text(problem_to_json(entry.problem), encoding="utf-8")
    calls = []
    real = orbits._exp_ad_series

    def series(*args):
        if not entry.expected.needs_conjugation:
            no_series()
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(orbits, "_exp_ad_series", series)
    counts = []
    for samples in (0, 100):
        calls.clear()
        code = main(["orbit-check", str(path), "--format", "json",
                     "--samples", str(samples), "--conjugate-search",
                     str(entry.search_budget)])
        assert code == (0 if entry.expected.spherical else 1)
        orbit = json.loads(capsys.readouterr().out)["orbit"]
        assert orbit is None or orbit["samples_run"] == samples
        counts.append(len(calls))
    assert counts[0] == counts[1]


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def test_analyze_runs_no_series_and_prints_its_golden(monkeypatch, tmp_path):
    entry = get_entry("sl3_so3")
    path = tmp_path / "sl3_so3.json"
    path.write_text(problem_to_json(entry.problem), encoding="utf-8")
    monkeypatch.setattr(orbits, "_exp_ad_series", no_series)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", str(path), "--format", "json",
                     "--conjugate-search", "0", "--samples", "100",
                     "--seed", "0"])
    assert code == 0
    golden = json.loads(GOLDEN.read_text("utf-8"))["catalog"]["0"]["sl3_so3"]
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == golden
