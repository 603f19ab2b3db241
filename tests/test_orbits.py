"""Nilpotent-orbit identity and its exact inverse.

Coordinates follow the builders: sl2 is (H, E, F); sl3 is
(H1, H2, E12, E13, E23, E21, E31, E32).
"""

from fractions import Fraction as F
from random import Random

import pytest

from sphlie.builders import sl
from sphlie.errors import (
    NotClosed,
    NotNilpotent,
    SpectrumError,
    UnreachableTarget,
)
from sphlie.liealg import cartan_data
from sphlie.linalg import canonical_basis, vec_add, vec_scale, zero_vector
from sphlie.orbits import (
    derivation_pair,
    exp_ad_apply,
    orbit_identity_check,
    random_u_element,
    solve_conjugator,
)
from sphlie.parabolic import characteristic_element, standard_parabolic


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
    assert dp.bracket_image == dp.u


def test_derivation_pair_layers_heisenberg():
    dp = sl3_heisenberg_dp()
    assert [(lam, layer.dim) for lam, layer in dp.layers] == [
        (F(1), 2), (F(2), 1)]
    assert dp.bracket_image == dp.u


def test_derivation_pair_rejects_non_subalgebra():
    g = sl(2)
    with pytest.raises(NotClosed):
        derivation_pair(g, (0, 0, 0),
                        canonical_basis([(0, 1, 0), (0, 0, 1)], 3))


def test_derivation_pair_rejects_non_nilpotent_u():
    g = sl(2)
    with pytest.raises(NotNilpotent):
        derivation_pair(g, (0, 0, 0),
                        canonical_basis([(1, 0, 0), (0, 1, 0)], 3))


def test_derivation_pair_rejects_u_not_acting_nilpotently_on_g():
    # u = span(H) is abelian, so nilpotent, but ad H is semisimple on sl2.
    g = sl(2)
    with pytest.raises(NotNilpotent):
        derivation_pair(g, (0, 0, 0), canonical_basis([(1, 0, 0)], 3))


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


# -- orbit identity ----------------------------------------------------------


def test_orbit_identity_sl2():
    rep = orbit_identity_check(sl2_dp(), samples=100, seed=3)
    assert rep.ok and rep.samples_run == 100 and rep.witness is None


def test_orbit_identity_heisenberg():
    rep = orbit_identity_check(sl3_heisenberg_dp(), samples=100, seed=4)
    assert rep.ok and rep.samples_run == 100


def test_orbit_identity_central_x0():
    # x0 = 0: the orbit is a single point and [x0, u] = 0.
    g = sl(2)
    dp = derivation_pair(g, zero_vector(3), canonical_basis([(0, 1, 0)], 3))
    assert dp.bracket_image.dim == 0
    rep = orbit_identity_check(dp, samples=25, seed=0)
    assert rep.ok and rep.samples_run == 25


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
        assert dp.bracket_image == pd.nilradical
        assert orbit_identity_check(dp, samples=20, seed=7).ok


# -- solve_conjugator --------------------------------------------------------


def test_solve_conjugator_zero_target():
    dp = sl2_dp()
    assert solve_conjugator(dp, zero_vector(3)) == zero_vector(3)


def test_solve_conjugator_sl2_line():
    # W = 5E lives in the eigenvalue-1 layer, so U = 5E on the nose.
    dp = sl2_dp()
    assert solve_conjugator(dp, (F(0), F(5), F(0))) == (F(0), F(5), F(0))


def test_solve_conjugator_two_layer_hand_case():
    # W = E23 + E13: peeling gives exp factors E23 then E13/2, which
    # commute, so U = E23 + E13/2.
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
        for b in dp.bracket_image.basis:
            w = vec_add(w, vec_scale(F(rng.randint(-6, 6), rng.choice((1, 2, 3))), b))
        u_sol = solve_conjugator(dp, w)
        assert dp.u.contains(u_sol)
        assert exp_ad_apply(g, u_sol, dp.x0) == vec_add(dp.x0, w)


def test_solve_conjugator_three_layer_round_trips():
    # sl4 with u the full upper triangle: three layers (1, 2, 3) whose
    # exponents genuinely fail to commute, exercising the logarithm path.
    g = sl(4)
    x0 = g.from_matrix([
        [F(-3, 2), 0, 0, 0], [0, F(-1, 2), 0, 0],
        [0, 0, F(1, 2), 0], [0, 0, 0, F(3, 2)]])
    mats = []
    for i in range(4):
        for j in range(i + 1, 4):
            m = [[0] * 4 for _ in range(4)]
            m[i][j] = 1
            mats.append(m)
    u = g.span_of_matrices(mats)
    dp = derivation_pair(g, x0, u)
    assert [lam for lam, _ in dp.layers] == [F(1), F(2), F(3)]
    rng = Random(21)
    for _ in range(10):
        w = zero_vector(g.dim)
        for b in dp.bracket_image.basis:
            w = vec_add(w, vec_scale(F(rng.randint(-4, 4)), b))
        u_sol = solve_conjugator(dp, w)
        assert dp.u.contains(u_sol)
        assert exp_ad_apply(g, u_sol, dp.x0) == vec_add(dp.x0, w)


def test_solve_conjugator_rejects_target_outside_image():
    dp = sl2_dp()
    with pytest.raises(UnreachableTarget, match="bracket image"):
        solve_conjugator(dp, (F(1), F(0), F(0)))   # H is not even in u


def test_solve_conjugator_rejects_zero_layer_component():
    # u = span(E12, E13) with x0 = diag(-1/3, -1/3, 2/3): E12 sits in the
    # zero-eigenvalue layer, E13 in the eigenvalue-1 layer.
    g = sl(3)
    x0 = g.from_matrix([[F(-1, 3), 0, 0], [0, F(-1, 3), 0], [0, 0, F(2, 3)]])
    u = g.span_of_matrices([
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ])
    dp = derivation_pair(g, x0, u)
    assert [lam for lam, _ in dp.layers] == [F(0), F(1)]
    e13 = g.from_matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert solve_conjugator(dp, e13) == e13
    e12 = g.from_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(UnreachableTarget, match="zero-eigenvalue"):
        solve_conjugator(dp, e12)
    with pytest.raises(UnreachableTarget, match="zero-eigenvalue"):
        solve_conjugator(dp, vec_add(e12, e13))
