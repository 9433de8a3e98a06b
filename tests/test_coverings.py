"""Covering projections, deck actions, path classification, Wilson lines."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from conftest import ALT_THETA, THETA, assert_close
from nctorus.algebra import TorusParams, apply_auto, lam, one, random_element, u, v
from nctorus.connections import Connection, rotation_block_connection, scalar_connection
from nctorus.coverings import (
    CoveringSpec,
    DeckElement,
    check_path_independence,
    classify_path,
    deck_act,
    project,
    wilson,
)
from nctorus.errors import NotFlat, NonConstantConnection, ParamMismatch, PathNotAssociated, ZeroWeight

C_U, C_V = 0.25, 0.1


@pytest.fixture
def spec(params):
    return CoveringSpec(params, (2, 2))


def x(spec):
    return u(spec.cover)


def y(spec):
    return v(spec.cover)


# -- covering structure -------------------------------------------------------


def test_cover_parameter(spec, params):
    assert spec.cover.theta == pytest.approx(params.theta / 4)


def test_covering_degrees_are_integers(params):
    for degrees in [(2.5, 2), (2, math.inf), (True, 2), ("2", 2)]:
        with pytest.raises(ValueError):
            CoveringSpec(params, degrees)
    # integral floats are stored as ints, so the cover and deck elements keep int coordinates
    spec = CoveringSpec(params, (2.0, 3.0))
    assert spec.degrees == (2, 3) and all(type(k) is int for k in spec.degrees)
    assert spec.cover.theta == params.theta / 6
    assert all(type(c) is int for g in spec.deck_elements() for c in (g.a, g.b))


def test_project_generators(spec, params):
    assert project(spec, u(params)).terms == {(2, 0, 0): 1}
    assert project(spec, v(params)).terms == {(0, 2, 0): 1}
    assert project(spec, one(params)).terms == {(0, 0, 0): 1}


@pytest.mark.parametrize("degrees", [(2, 2), (3, 5)])
def test_projected_generators_commute_like_the_base(params, degrees):
    # pi(u) pi(v) = e^{2 pi i theta} pi(v) pi(u), exactly in lambda' exponents
    spec = CoveringSpec(params, degrees)
    k = degrees[0] * degrees[1]
    pu, pv = project(spec, u(params)), project(spec, v(params))
    lhs = pu * pv
    rhs = lam(spec.cover, k) * (pv * pu)
    assert lhs.terms == rhs.terms
    assert spec.cover.lam(k) == pytest.approx(params.lam(1))


def test_project_is_multiplicative_exact(spec, params, rng):
    for _ in range(200):
        a = random_element(rng, params)
        b = random_element(rng, params)
        lhs = project(spec, a * b)
        rhs = project(spec, a) * project(spec, b)
        assert set(lhs.terms) == set(rhs.terms)
        for key, c in lhs.terms.items():
            assert abs(c - rhs.terms[key]) <= 1e-12


def test_project_respects_star_exact(spec, params, rng):
    for _ in range(50):
        a = random_element(rng, params)
        assert project(spec, a.star()).terms == project(spec, a).star().terms


def test_project_param_mismatch(spec):
    with pytest.raises(ParamMismatch):
        project(spec, u(TorusParams(0.5)))


# -- deck group ---------------------------------------------------------------


def test_deck_generators_on_cover_generators(spec):
    gu, gv = spec.g_u, spec.g_v
    assert_close(deck_act(gu, x(spec)), -1 * x(spec))
    assert_close(deck_act(gu, y(spec)), y(spec))
    assert_close(deck_act(gv, x(spec)), x(spec))
    assert_close(deck_act(gv, y(spec)), -1 * y(spec))


def test_deck_fixes_projected_elements_exactly(spec, params, rng):
    for g in spec.deck_elements():
        for _ in range(10):
            a = random_element(rng, params)
            assert deck_act(g, project(spec, a)).terms == project(spec, a).terms


def test_identity_deck_acts_trivially(spec, rng):
    e = spec.deck(0, 0)
    a = random_element(rng, spec.cover)
    assert deck_act(e, a).terms == a.terms


def test_deck_action_is_group_action(spec, rng):
    for g1 in spec.deck_elements():
        for g2 in spec.deck_elements():
            a = random_element(rng, spec.cover)
            assert_close(deck_act(g1, deck_act(g2, a)), deck_act(g1 + g2, a))


def test_deck_action_is_star_automorphism(spec, rng):
    for g in spec.deck_elements():
        a = random_element(rng, spec.cover)
        b = random_element(rng, spec.cover)
        assert_close(deck_act(g, a * b), deck_act(g, a) * deck_act(g, b))
        assert_close(deck_act(g, a.star()), deck_act(g, a).star())


def test_equivariance_of_deck_action(spec, params, rng):
    # g(pi(a) atilde) = pi(a) (g atilde) on 200 random triples
    for i in range(200):
        g = spec.deck_elements()[i % 4]
        a = random_element(rng, params)
        atilde = random_element(rng, spec.cover)
        assert_close(
            deck_act(g, project(spec, a) * atilde),
            project(spec, a) * deck_act(g, atilde),
        )


def test_deck_element_validation(spec):
    with pytest.raises(ValueError):
        DeckElement(2, 0, (2, 2))
    assert spec.deck(3, -1) == DeckElement(1, 1, (2, 2))


# -- lifted flows -------------------------------------------------------------


def lift(spec, weight, tau, a):
    """The weight flow lifted to the cover: apply_auto at weight (alpha/k1, beta/k2)."""
    k1, k2 = spec.degrees
    return apply_auto((weight[0] / k1, weight[1] / k2), tau, a)


def test_lift_scales_cover_generator_at_half_speed(spec):
    tau = 0.613
    got = lift(spec, (1, 0), tau, x(spec))
    assert got.terms == {(1, 0, 0): pytest.approx(cmath.exp(1j * math.pi * tau))}
    assert lift(spec, (1, 0), tau, y(spec)).terms == {(0, 1, 0): 1}


def test_lift_at_time_one_is_deck_generator(spec, rng):
    for _ in range(20):
        a = random_element(rng, spec.cover)
        assert_close(lift(spec, (1, 0), 1.0, a), deck_act(spec.g_u, a))
    a = random_element(rng, spec.cover)
    assert_close(lift(spec, (0, 1), 1.0, a), deck_act(spec.g_v, a))


def test_lift_compatible_with_projection(spec, params, rng):
    for _ in range(30):
        w = (rng.randint(-3, 3), rng.randint(-3, 3))
        tau = rng.uniform(-2, 2)
        a = random_element(rng, params)
        assert_close(lift(spec, w, tau, project(spec, a)), project(spec, apply_auto(w, tau, a)))


def test_zero_weight_lift_is_identity(spec, rng):
    a = random_element(rng, spec.cover)
    assert lift(spec, (0, 0), 0.8, a).terms == a.terms


# -- closed-path classification ------------------------------------------------


def oracle_classify(spec: CoveringSpec, alpha: int, beta: int):
    """Sample the lifted flow at tau = j/840 and test deck membership numerically."""
    k1, k2 = spec.degrees
    deck_phases = [
        (g, cmath.exp(2j * math.pi * g.a / k1), cmath.exp(2j * math.pi * g.b / k2))
        for g in spec.deck_elements()
    ]

    def member(tau):
        sx = cmath.exp(2j * math.pi * tau * alpha / k1)
        sy = cmath.exp(2j * math.pi * tau * beta / k2)
        for g, px, py in deck_phases:
            if abs(sx - px) < 1e-9 and abs(sy - py) < 1e-9:
                return g
        return None

    hits = [(j / 840, member(j / 840)) for j in range(1, 840)]
    hits = [(tau, g) for tau, g in hits if g is not None]
    return {
        "closed": not hits,
        "witness": hits[0][0] if hits else None,
        "at_one": member(1.0),
    }


def test_classify_paper_generator_paths(spec):
    rep = classify_path(spec, (1, 0))
    assert rep.is_closed and rep.associated == spec.g_u and rep.witness is None
    rep = classify_path(spec, (0, 1))
    assert rep.is_closed and rep.associated == spec.g_v


def test_classify_doubled_weight_not_closed(spec):
    rep = classify_path(spec, (2, 0))
    assert not rep.is_closed
    assert rep.associated is None
    assert rep.witness == pytest.approx(0.5)
    # the lift at the witness time is already the deck element g_u
    assert_close(lift(spec, (2, 0), 0.5, u(spec.cover)), deck_act(spec.g_u, u(spec.cover)))


def test_classify_skew_weight(spec):
    rep = classify_path(spec, (1, 2))
    assert rep.is_closed and rep.associated == spec.g_u


def test_classify_zero_weight_rejected(spec):
    with pytest.raises(ZeroWeight):
        classify_path(spec, (0, 0))


def test_classify_non_integer_weight_rejected(spec):
    # an infinite or NaN weight is a ValueError too, and a bool is not an integer
    for weight in [(1.5, 0), (math.inf, 1), (1, math.nan), (True, 0)]:
        with pytest.raises(ValueError):
            classify_path(spec, weight)
    # integral floats are accepted
    assert classify_path(spec, (1.0, 0.0)).associated == spec.g_u


@pytest.mark.parametrize("degrees", [(2, 2), (3, 2)])
def test_classify_matches_brute_force_oracle(params, degrees):
    spec = CoveringSpec(params, degrees)
    cases = 0
    for alpha in range(-4, 5):
        for beta in range(-4, 5):
            if (alpha, beta) == (0, 0):
                continue
            cases += 1
            rep = classify_path(spec, (alpha, beta))
            oracle = oracle_classify(spec, alpha, beta)
            assert rep.is_closed == oracle["closed"], (alpha, beta)
            if rep.is_closed:
                assert rep.associated == oracle["at_one"], (alpha, beta)
            else:
                assert rep.witness == pytest.approx(oracle["witness"]), (alpha, beta)
    assert cases == 80


def test_report_json_shape(spec):
    d = classify_path(spec, (1, 2)).to_dict()
    assert d == {"weight": [1, 2], "closed": True, "deck": [1, 0], "witness": None}
    d = classify_path(spec, (2, 2)).to_dict()
    assert d["closed"] is False and d["deck"] is None and d["witness"] == 0.5


# -- generalized Wilson lines ---------------------------------------------------


def test_scalar_wilson_values(spec, params):
    conn = scalar_connection(params, C_U, C_V)
    got = wilson(spec, spec.g_u, conn).matrix[0, 0]
    assert abs(got - cmath.exp(2j * math.pi * C_U)) < 1e-12
    got = wilson(spec, spec.g_v, conn).matrix[0, 0]
    assert abs(got - cmath.exp(2j * math.pi * C_V)) < 1e-12
    assert np.array_equal(wilson(spec, spec.deck(0, 0), conn).matrix, np.eye(1))


def test_block_wilson_matrices(spec, params):
    conn = rotation_block_connection(params, 0.125, 1 / 6)
    got = wilson(spec, spec.g_u, conn).matrix
    r = math.sqrt(2) / 2
    expect = np.array(
        [[r, -r, 0, 0], [r, r, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.max(np.abs(got - expect)) < 1e-12
    got = wilson(spec, spec.g_v, conn).matrix
    c, s = 0.5, math.sqrt(3) / 2
    expect = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, -s], [0, 0, s, c]], dtype=complex
    )
    assert np.max(np.abs(got - expect)) < 1e-12


def test_wilson_values_do_not_depend_on_theta():
    for degrees in [(2, 2), (3, 5)]:
        mats = []
        for theta in (THETA, ALT_THETA):
            spec = CoveringSpec(TorusParams(theta), degrees)
            conn = scalar_connection(TorusParams(theta), C_U, C_V)
            mats.append(wilson(spec, spec.deck(1, 1), conn).matrix)
        assert np.max(np.abs(mats[0] - mats[1])) < 1e-12


def test_wilson_homomorphism_without_wraparound(spec, params):
    # canonical weights add exactly when no mod-k reduction happens
    conn = rotation_block_connection(params, C_U, C_V)
    w_u = wilson(spec, spec.g_u, conn).matrix
    w_v = wilson(spec, spec.g_v, conn).matrix
    w_uv = wilson(spec, spec.deck(1, 1), conn).matrix
    assert np.max(np.abs(w_u @ w_v - w_uv)) < 1e-10
    assert np.max(np.abs(w_v @ w_u - w_uv)) < 1e-10
    e = wilson(spec, spec.deck(0, 0), conn).matrix
    assert np.max(np.abs(w_u @ e - w_u)) < 1e-12


def test_wilson_full_homomorphism_at_half_integer_holonomy(spec, params):
    # wraparound g_u + g_u = e needs exp(4 pi i c) = 1, i.e. half-integer c
    conn = scalar_connection(params, 0.5, 0.5)
    table = {(g.a, g.b): wilson(spec, g, conn).matrix for g in spec.deck_elements()}
    for g1 in spec.deck_elements():
        for g2 in spec.deck_elements():
            g3 = g1 + g2
            prod = table[(g1.a, g1.b)] @ table[(g2.a, g2.b)]
            assert np.max(np.abs(prod - table[(g3.a, g3.b)])) < 1e-10


def test_wilson_requires_flat(spec, params):
    bumpy = Connection(params, [[v(params)]], [[0]])
    with pytest.raises(NotFlat):
        wilson(spec, spec.g_u, bumpy)


def test_wilson_requires_constant_coefficients(spec, params):
    # flat but symbolic: Theta_u = u, Theta_v = 0 has vanishing curvature
    symbolic = Connection(params, [[u(params)]], [[0]])
    with pytest.raises(NonConstantConnection):
        wilson(spec, spec.g_u, symbolic)


def test_wilson_param_mismatch(spec):
    conn = scalar_connection(TorusParams(0.5), C_U, C_V)
    with pytest.raises(ParamMismatch):
        wilson(spec, spec.g_u, conn)


# -- path (in)dependence ---------------------------------------------------------


def test_path_independence_holds_for_half_integer_c_v(spec, params):
    conn = scalar_connection(params, C_U, 0.5)
    report = check_path_independence(spec, spec.g_u, conn, [(1, 0), (1, 2)])
    assert report.max_distance < 1e-12
    assert report.certified


def test_path_dependence_for_generic_c_v(spec, params):
    conn = scalar_connection(params, C_U, 0.3)
    report = check_path_independence(spec, spec.g_u, conn, [(1, 0), (1, 2)])
    # |e^{2 pi i (c_u + 0.6)} - e^{2 pi i c_u}| = |e^{1.2 pi i} - 1|
    expect = abs(cmath.exp(1.2j * math.pi) - 1)
    assert report.max_distance == pytest.approx(expect, abs=1e-12)
    assert report.max_distance > 0.5
    assert not report.certified


def test_path_independence_singleton_is_trivial(spec, params):
    conn = scalar_connection(params, C_U, C_V)
    report = check_path_independence(spec, spec.g_u, conn, [(1, 0)])
    assert report.max_distance == 0.0 and report.certified


def test_path_independence_rejects_wrong_deck_element(spec, params):
    conn = scalar_connection(params, C_U, C_V)
    with pytest.raises(PathNotAssociated):
        check_path_independence(spec, spec.g_u, conn, [(1, 0), (1, 1)])
    with pytest.raises(PathNotAssociated):
        check_path_independence(spec, spec.g_u, conn, [(2, 0)])

