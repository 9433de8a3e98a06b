"""Covering projections, deck actions, path classification, Wilson lines."""

from __future__ import annotations

import cmath
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    ALT_THETA,
    THETA,
    antihermitian_connection,
    assert_close,
    clock_shift,
    deck_elements,
    l1,
    reference_path_independence,
    rotation_block_connection,
    scalar_connection,
)
from nctorus import connections
from nctorus.algebra import EQ_TOL, R15_TOP, TorusElement, TorusParams, apply_auto, lam, mono, one, random_element, u, v
from nctorus.connections import Connection
from nctorus.coverings import (
    CoveringSpec,
    DeckElement,
    PathIndependenceReport,
    check_path_independence,
    classify_path,
    deck_act,
    project,
    wilson,
)
from nctorus.errors import NotFlat, NonConstantConnection, ParamMismatch, PathNotAssociated, ZeroWeight
from test_algebra import DYADIC_THETAS

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
    assert all(type(c) is int for g in deck_elements(spec) for c in (g.a, g.b))


def test_deck_coordinates_are_integers(params):
    spec = CoveringSpec(params, (2, 2))
    for a in (2.5, True, math.inf):
        with pytest.raises(ValueError):
            spec.deck(a, 0)
    with pytest.raises(ValueError):
        DeckElement(True, 0, (2, 2))
    # integral floats reduce and are stored as ints
    g = spec.deck(3.0, 1)
    assert g == DeckElement(1, 1, (2, 2)) and all(type(c) is int for c in (g.a, g.b))
    assert type(DeckElement(1.0, 0, (2, 2)).a) is int


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
    gu, gv = spec.deck(1, 0), spec.deck(0, 1)
    assert_close(deck_act(gu, x(spec)), -1 * x(spec))
    assert_close(deck_act(gu, y(spec)), y(spec))
    assert_close(deck_act(gv, x(spec)), x(spec))
    assert_close(deck_act(gv, y(spec)), -1 * y(spec))


def test_deck_fixes_projected_elements_exactly(spec, params, rng):
    for g in deck_elements(spec):
        for _ in range(10):
            a = random_element(rng, params)
            assert deck_act(g, project(spec, a)).terms == project(spec, a).terms


def test_deck_keeps_a_whole_turn_exactly(spec):
    # 1/2 + 1/2 is one turn: the coefficient of xy stays 1, not 1 - 2.4e-16j
    xy = x(spec) * y(spec)
    assert deck_act(spec.deck(1, 1), xy).terms == {(1, 1, 0): 1 + 0j}


def test_deck_keeps_coefficients_at_integer_phase_bit_for_bit(params):
    rng = random.Random(59)
    split = turned = 0
    for _ in range(100):
        k1 = rng.choice((rng.randint(2, 6), rng.randint(1, 1000)))
        k2 = rng.choice((k1, rng.randint(1, 12)))
        spec = CoveringSpec(params, (k1, k2))
        g = spec.deck(rng.randrange(k1), rng.randrange(k2))
        terms = {}
        for _ in range(40):
            c = complex(rng.uniform(-1, 1), rng.choice((rng.uniform(-1, 1), 0.0, -0.0)))
            terms[(rng.randint(-(10**6), 10**6), rng.randint(-50, 50), rng.randint(-5, 5))] = c
        a = TorusElement(spec.cover, terms)
        got = deck_act(g, a).terms
        assert list(got) == list(a.terms)
        for (p, q, k), c in a.terms.items():
            turns = Fraction(g.a * p, k1) + Fraction(g.b * q, k2)
            if turns.denominator == 1:
                assert (got[p, q, k].real.hex(), got[p, q, k].imag.hex()) == (c.real.hex(), c.imag.hex())
                split += g.a * p % k1 != 0  # then the v leg is fractional too
            else:
                assert abs(got[p, q, k] - c * cmath.exp(2j * math.pi * float(turns % 1))) <= 1e-15 * abs(c)
                turned += 1
    # whole turns made of two fractional legs are the case a per-leg sum of floats misses
    assert split > 60 and turned > 2000


def test_identity_deck_acts_trivially(spec, rng):
    e = spec.deck(0, 0)
    a = random_element(rng, spec.cover)
    assert deck_act(e, a).terms == a.terms


def test_deck_action_is_group_action(spec, rng):
    for g1 in deck_elements(spec):
        for g2 in deck_elements(spec):
            a = random_element(rng, spec.cover)
            assert_close(deck_act(g1, deck_act(g2, a)), deck_act(g1 + g2, a))


def test_deck_action_is_star_automorphism(spec, rng):
    for g in deck_elements(spec):
        a = random_element(rng, spec.cover)
        b = random_element(rng, spec.cover)
        assert_close(deck_act(g, a * b), deck_act(g, a) * deck_act(g, b))
        assert_close(deck_act(g, a.star()), deck_act(g, a).star())


def test_equivariance_of_deck_action(spec, params, rng):
    # g(pi(a) atilde) = pi(a) (g atilde) on 200 random triples
    for i in range(200):
        g = deck_elements(spec)[i % 4]
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


def test_deck_elements_add_within_one_covering_only(spec):
    assert spec.deck(1, 1) + spec.deck(1, 0) == DeckElement(0, 1, (2, 2))
    with pytest.raises(ParamMismatch, match="^deck elements of different coverings$"):
        spec.deck(1, 1) + DeckElement(1, 1, (2, 3))


# -- clock-and-shift representation of the cover ----------------------------------
#
# At theta = p/q with k1 k2 a power of 2, theta' = theta / (k1 k2) = p / q' stays dyadic, q' = q k1 k2, and the
# cover has the q' x q' representation x -> U' = diag(omega'^j), y -> V' the cyclic shift (conftest.clock_shift).
# A matrix power U'^e carries up to e < q' roundings of omega'^j, so each bound is a multiple of q' eps sum |c|.

#: covering degrees whose product is a power of 2
DYADIC_DEGREES = ((1, 2), (2, 2), (1, 4), (4, 2))


def cover_clock_and_shift(p: int, qc: int):
    """U' = diag(omega'^j), omega' = e^{2 pi i p / q'}, exponents reduced mod q' in integers, and V' e_c = e_{c+1}."""
    clock = np.diag([cmath.exp(2j * math.pi * (j * p % qc) / qc) for j in range(qc)])
    shift = np.zeros((qc, qc), dtype=complex)
    shift[(np.arange(qc) + 1) % qc, np.arange(qc)] = 1
    return clock, shift


def test_project_is_the_clock_and_shift_embedding():
    """clock_shift(project(a)) = sum c omega'^{k k1 k2} X^{k1 m} Y^{k2 n}, X and Y matrix powers of U' and V'
    (exponents mod q', since U'^q' = V'^q' = I), within 4 q' eps sum |c|; project(a*) maps to the adjoint
    within 2 q' eps sum |c|.  Worst seen: 0.74 and 0.15 of those bounds (0.75 and 0.40 over four larger draws)."""
    eps = sys.float_info.epsilon
    rng = random.Random(20261030)
    for theta in DYADIC_THETAS:
        p, q = theta.as_integer_ratio()
        for k1, k2 in DYADIC_DEGREES:
            spec, qc = CoveringSpec(TorusParams(theta), (k1, k2)), q * k1 * k2
            assert spec.cover.theta.as_integer_ratio() == (p, qc)
            clock, shift = cover_clock_and_shift(p, qc)
            powers = {}

            def power(matrix, name: str, e: int):
                key = (name, e % qc)
                if key not in powers:
                    powers[key] = np.linalg.matrix_power(matrix, e % qc)
                return powers[key]

            for _ in range(20):
                a = random_element(rng, spec.base, max_terms=6, max_exp=5)
                want = sum(
                    c * cmath.exp(2j * math.pi * (k * k1 * k2 * p % qc) / qc)
                    * (power(clock, "x", k1 * m) @ power(shift, "y", k2 * n))
                    for (m, n, k), c in a.terms.items()
                )
                got = clock_shift(project(spec, a))
                assert np.abs(got - want).max() <= 4 * qc * eps * l1(a), (theta, k1, k2)
                star = clock_shift(project(spec, a.star()))
                assert np.abs(star - got.conj().T).max() <= 2 * qc * eps * l1(a), (theta, k1, k2)


def test_deck_action_is_clock_and_shift_conjugation():
    """deck (a, b) is M -> U'^t V'^-s M V'^s U'^-t: V'^-s U' V'^s = omega'^s U' and U'^t V' U'^-t = omega'^t V', so
    s p = a q k2 and t p = b q k1 (mod q') make the phases e^{2 pi i a / k1}, e^{2 pi i b / k2}; p is odd, so both
    are solvable.  Within 4 q' eps sum |c| (the two clock powers carry up to q' roundings each); worst seen 0.69
    (0.81 over four larger draws)."""
    eps = sys.float_info.epsilon
    rng = random.Random(20261031)
    for theta in DYADIC_THETAS:
        p, q = theta.as_integer_ratio()
        for k1, k2 in DYADIC_DEGREES:
            spec, qc = CoveringSpec(TorusParams(theta), (k1, k2)), q * k1 * k2
            clock, shift = cover_clock_and_shift(p, qc)
            for g in deck_elements(spec):
                s, t = g.a * q * k2 * pow(p, -1, qc) % qc, g.b * q * k1 * pow(p, -1, qc) % qc
                vs, ut = np.linalg.matrix_power(shift, s), np.linalg.matrix_power(clock, t)
                for _ in range(3):
                    x = random_element(rng, spec.cover, max_terms=6, max_exp=5)
                    want = ut @ vs.T @ clock_shift(x) @ vs @ ut.conj().T
                    got = clock_shift(deck_act(g, x))
                    assert np.abs(got - want).max() <= 4 * qc * eps * l1(x), (theta, g)


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
        assert_close(lift(spec, (1, 0), 1.0, a), deck_act(spec.deck(1, 0), a))
    a = random_element(rng, spec.cover)
    assert_close(lift(spec, (0, 1), 1.0, a), deck_act(spec.deck(0, 1), a))


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
        for g in deck_elements(spec)
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
    assert rep.is_closed and rep.associated == spec.deck(1, 0) and rep.witness is None
    rep = classify_path(spec, (0, 1))
    assert rep.is_closed and rep.associated == spec.deck(0, 1)


def test_classify_doubled_weight_not_closed(spec):
    rep = classify_path(spec, (2, 0))
    assert not rep.is_closed
    assert rep.associated is None
    assert rep.witness == pytest.approx(0.5)
    # the lift at the witness time is already the deck element g_u
    assert_close(lift(spec, (2, 0), 0.5, u(spec.cover)), deck_act(spec.deck(1, 0), u(spec.cover)))


def test_classify_skew_weight(spec):
    rep = classify_path(spec, (1, 2))
    assert rep.is_closed and rep.associated == spec.deck(1, 0)


def test_classify_zero_weight_rejected(spec):
    with pytest.raises(ZeroWeight):
        classify_path(spec, (0, 0))


def test_classify_non_integer_weight_rejected(spec):
    # an infinite or NaN weight is a ValueError too, and a bool is not an integer
    for weight in [(1.5, 0), (math.inf, 1), (1, math.nan), (True, 0)]:
        with pytest.raises(ValueError):
            classify_path(spec, weight)
    # integral floats are accepted
    assert classify_path(spec, (1.0, 0.0)).associated == spec.deck(1, 0)


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
    got = wilson(spec, spec.deck(1, 0), conn).matrix[0][0]
    assert abs(got - cmath.exp(2j * math.pi * C_U)) < 1e-12
    got = wilson(spec, spec.deck(0, 1), conn).matrix[0][0]
    assert abs(got - cmath.exp(2j * math.pi * C_V)) < 1e-12
    assert np.array_equal(wilson(spec, spec.deck(0, 0), conn).matrix, np.eye(1))


def test_scalar_wilson_operator_on_high_degree_elements(spec, params):
    # the flow of g_u's path at time 1 is exactly the identity, so W acts on u^m as the scalar W
    # at every degree; the error of an unreduced phase grows with m, though not monotonically
    conn = scalar_connection(params, C_U, C_V)
    op = wilson(spec, spec.deck(1, 0), conn)
    w = complex(op.matrix[0][0])
    for m in (4000, 10**4, 10**5):
        (got,) = op.apply([mono(m, 0, 1, params)])
        assert_close(got, mono(m, 0, w, params), tol=EQ_TOL)


def test_block_wilson_matrices(spec, params):
    conn = rotation_block_connection(params, 0.125, 1 / 6)
    got = wilson(spec, spec.deck(1, 0), conn).matrix
    r = math.sqrt(2) / 2
    expect = np.array(
        [[r, -r, 0, 0], [r, r, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.max(np.abs(got - expect)) < 1e-12
    got = wilson(spec, spec.deck(0, 1), conn).matrix
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
            mats.append(np.asarray(wilson(spec, spec.deck(1, 1), conn).matrix))
        assert np.max(np.abs(mats[0] - mats[1])) < 1e-12


def test_wilson_homomorphism_without_wraparound(spec, params):
    # canonical weights add exactly when no mod-k reduction happens
    conn = rotation_block_connection(params, C_U, C_V)
    w_u = np.asarray(wilson(spec, spec.deck(1, 0), conn).matrix)
    w_v = np.asarray(wilson(spec, spec.deck(0, 1), conn).matrix)
    w_uv = np.asarray(wilson(spec, spec.deck(1, 1), conn).matrix)
    assert np.max(np.abs(w_u @ w_v - w_uv)) < 1e-10
    assert np.max(np.abs(w_v @ w_u - w_uv)) < 1e-10
    e = np.asarray(wilson(spec, spec.deck(0, 0), conn).matrix)
    assert np.max(np.abs(w_u @ e - w_u)) < 1e-12


def test_wilson_full_homomorphism_at_half_integer_holonomy(spec, params):
    # wraparound g_u + g_u = e needs exp(4 pi i c) = 1, i.e. half-integer c
    conn = scalar_connection(params, 0.5, 0.5)
    table = {(g.a, g.b): np.asarray(wilson(spec, g, conn).matrix) for g in deck_elements(spec)}
    for g1 in deck_elements(spec):
        for g2 in deck_elements(spec):
            g3 = g1 + g2
            prod = table[(g1.a, g1.b)] @ table[(g2.a, g2.b)]
            assert np.max(np.abs(prod - table[(g3.a, g3.b)])) < 1e-10


def test_wilson_requires_flat(spec, params):
    bumpy = Connection(params, [[v(params)]], [[0]])
    with pytest.raises(NotFlat):
        wilson(spec, spec.deck(1, 0), bumpy)


def test_wilson_requires_constant_coefficients(spec, params):
    # flat but symbolic: Theta_u = u, Theta_v = 0 has vanishing curvature
    symbolic = Connection(params, [[u(params)]], [[0]])
    with pytest.raises(NonConstantConnection):
        wilson(spec, spec.deck(1, 0), symbolic)


def test_wilson_param_mismatch(spec):
    conn = scalar_connection(TorusParams(0.5), C_U, C_V)
    with pytest.raises(ParamMismatch):
        wilson(spec, spec.deck(1, 0), conn)


# -- path (in)dependence ---------------------------------------------------------


def test_path_independence_holds_for_half_integer_c_v(spec, params):
    conn = scalar_connection(params, C_U, 0.5)
    report = check_path_independence(spec, spec.deck(1, 0), conn, [(1, 0), (1, 2)])
    assert report.max_distance < 1e-12
    assert report.certified


def test_path_dependence_for_generic_c_v(spec, params):
    conn = scalar_connection(params, C_U, 0.3)
    report = check_path_independence(spec, spec.deck(1, 0), conn, [(1, 0), (1, 2)])
    # |e^{2 pi i (c_u + 0.6)} - e^{2 pi i c_u}| = |e^{1.2 pi i} - 1|
    expect = abs(cmath.exp(1.2j * math.pi) - 1)
    assert report.max_distance == pytest.approx(expect, abs=1e-12)
    assert report.max_distance > 0.5
    assert not report.certified


def test_path_independence_singleton_is_trivial(spec, params):
    conn = scalar_connection(params, C_U, C_V)
    report = check_path_independence(spec, spec.deck(1, 0), conn, [(1, 0)])
    assert report.max_distance == 0.0 and report.certified


#: Theta_u = r + i/8 with e^{2 pi r} = 0.65e308 sqrt 2: the weight-(1, 0) transport is M = 0.65e308 (1 + i) and
#: the weight-(1, 2) one, with Theta_v = 0.25i, is -M; both finite, but |M - (-M)| is beyond the largest double
OVERFLOWING_DIFFERENCE = (complex(math.log(0.65e308 * math.sqrt(2)) / (2 * math.pi), 1 / 8), 0.25j)


def test_path_independence_whose_difference_overflows_is_infinite(spec, params):
    theta_u, theta_v = OVERFLOWING_DIFFERENCE
    conn = Connection(params, [[theta_u]], [[theta_v]])
    (m,), (n,) = [connections.transport(conn, w, 1.0).matrix[0] for w in [(1, 0), (1, 2)]]
    assert cmath.isfinite(m) and cmath.isfinite(n) and abs(m.real + n.real) < 1e295 and m.real > 6e307
    report = check_path_independence(spec, spec.deck(1, 0), conn, [(1, 0), (1, 2)])
    assert (report.max_distance, report.certified) == (math.inf, False)
    assert report.to_dict()["max_distance"] == R15_TOP  # strict JSON holds no inf


def test_path_independence_rejects_wrong_deck_element(spec, params):
    conn = scalar_connection(params, C_U, C_V)
    with pytest.raises(PathNotAssociated):
        check_path_independence(spec, spec.deck(1, 0), conn, [(1, 0), (1, 1)])
    with pytest.raises(PathNotAssociated):
        check_path_independence(spec, spec.deck(1, 0), conn, [(2, 0)])


def test_independence_checks_the_cover_as_wilson_does(spec, params):
    # a connection over another theta, and a deck element of another covering, raise ParamMismatch in
    # both, before any weight is classified
    elsewhere = scalar_connection(TorusParams(0.25), C_U, C_V)
    conn = scalar_connection(params, C_U, C_V)
    foreign = CoveringSpec(params, (3, 2)).deck(1, 0)
    checks = (
        lambda g, c: wilson(spec, g, c),
        lambda g, c: check_path_independence(spec, g, c, [(1, 0), (1, 2)]),
        lambda g, c: check_path_independence(spec, g, c, [(0, 0)]),
    )
    for check in checks:
        with pytest.raises(ParamMismatch, match="^connection does not live over the base parameter$"):
            check(spec.deck(1, 0), elsewhere)
        with pytest.raises(ParamMismatch, match="^deck element belongs to a different covering$"):
            check(foreign, conn)


@pytest.mark.parametrize("rank", [1, 2, 4, 8])
@pytest.mark.parametrize("degrees", [(2, 2), (3, 5)])
def test_path_independence_is_the_loop_of_single_transports(monkeypatch, params, degrees, rank):
    # one expm call on the stack of every weight's exponent (none without a weight); the report is that
    # of one transport per weight, repr for repr
    spec = CoveringSpec(params, degrees)
    conn = antihermitian_connection(params, rank, 20261019 + rank)
    k1, k2 = degrees
    expm = connections.expm
    for g in deck_elements(spec):
        shifts = [(i, j) for i in (-1, 0, 1, 2) for j in (-1, 0, 1)]
        weights = [(g.a + k1 * i, g.b + k2 * j) for i, j in shifts if math.gcd(g.a + k1 * i, g.b + k2 * j) == 1]
        calls = []
        monkeypatch.setattr(connections, "expm", lambda a: calls.append(a) or expm(a))
        got = check_path_independence(spec, g, conn, weights)
        monkeypatch.undo()
        assert repr(got) == repr(reference_path_independence(spec, g, conn, weights))
        assert len(calls) == (1 if weights else 0)
        # numpy's complex abs may differ from Python's in the last bits, never by more
        mats = np.array([connections.transport(conn, w, 1.0).matrix for w in weights])
        pairs = [(i, j) for i in range(len(mats)) for j in range(i + 1, len(mats))]
        want = max((float(np.max(np.abs(mats[i] - mats[j]))) for i, j in pairs), default=0.0)
        assert abs(got.max_distance - want) <= 2 * math.ulp(want)


def test_path_independence_of_no_weight_makes_no_transport(monkeypatch, spec, params):
    # as the loop of one transport per weight gave it: distance 0.0, certified, and no transport, so even
    # a connection that cannot be transported passes
    calls = []
    expm = connections.expm
    monkeypatch.setattr(connections, "expm", lambda a: calls.append(a) or expm(a))
    for conn in (scalar_connection(params, C_U, C_V), Connection(params, [[u(params)]], [[0]])):
        report = check_path_independence(spec, spec.deck(1, 0), conn, [])
        assert report == PathIndependenceReport(spec.deck(1, 0), (), 0.0, True)
        assert report == reference_path_independence(spec, spec.deck(1, 0), conn, [])
    assert calls == []


def commuting_connection(params: TorusParams, d_u, d_v, seed: int) -> Connection:
    """Theta_u = i Q D_u Q^*, Theta_v = i Q D_v Q^* for a seeded unitary Q: commuting, antihermitian, flat."""
    gen = np.random.default_rng(seed)
    rank = len(d_u)
    q, _ = np.linalg.qr(gen.normal(size=(rank, rank)) + 1j * gen.normal(size=(rank, rank)))
    theta_u, theta_v = (1j * q @ np.diag(d) @ q.conj().T for d in (d_u, d_v))
    return Connection(params, theta_u.tolist(), theta_v.tolist())


@pytest.mark.parametrize("rank", [1, 4, 8])
@pytest.mark.parametrize("degrees", [(2, 2), (3, 5)])
def test_wilson_lines_are_a_representation_where_the_lattice_holonomy_is_trivial(params, degrees, rank):
    # W(a, b) = exp(2 pi a Theta_u) exp(2 pi b Theta_v) for commuting Theta, so the closed paths of one deck
    # element differ by the holonomies H_u = exp(2 pi k1 Theta_u) and H_v = exp(2 pi k2 Theta_v): where
    # k1 d_u and k2 d_v are integers both are I and g -> W(g) is a representation of Z_k1 x Z_k2; elsewhere
    # the path one lap of the u-lattice further is H_u W(a, b)
    spec = CoveringSpec(params, degrees)
    k1, k2 = degrees
    rng = random.Random(20261030 + rank)
    decks = deck_elements(spec)

    def gap(x, y) -> float:
        return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))

    trivial = commuting_connection(
        params, [rng.randint(-3, 3) / k1 for _ in range(rank)], [rng.randint(-3, 3) / k2 for _ in range(rank)], rank
    )
    w = {g: np.array(wilson(spec, g, trivial).matrix) for g in decks}
    for g in decks:
        for h in decks:
            assert gap(w[g + h], w[g] @ w[h]) < 1e-12, (g, h)

    generic = commuting_connection(
        params, [rng.uniform(-1, 1) for _ in range(rank)], [rng.uniform(-1, 1) for _ in range(rank)], rank
    )
    h_u = np.array(connections.transport(generic, (k1, 0), 1.0).matrix)
    w = {g: np.array(wilson(spec, g, generic).matrix) for g in decks}
    assert gap(h_u, np.eye(rank)) > 1e-3  # no k1 d_u is an integer here
    for g in decks:
        assert gap(connections.transport(generic, (g.a + k1, g.b), 1.0).matrix, h_u @ w[g]) < 1e-12, g
    assert max(gap(w[g + h], w[g] @ w[h]) for g in decks for h in decks) > 1e-3  # and W is no representation
