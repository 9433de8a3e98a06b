"""Torus algebra: generator relations, involution, flows, derivations."""

from __future__ import annotations

import cmath
import copy
import json
import math
import pickle
import random
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALT_THETA,
    THETA,
    EDGE_COEFFICIENTS,
    assert_close,
    clock_shift,
    element_bits,
    l1,
    oracle_monomial_product,
    oracle_monomial_star,
    reference_random_element,
    total,
)
from nctorus.algebra import (
    EQ_TOL,
    TWO_PI,
    TorusElement,
    TorusParams,
    _twist,
    apply_auto,
    apply_derivation,
    distance,
    integral,
    lam,
    mono,
    one,
    r15,
    random_element,
    turn,
    u,
    v,
    zero,
)
from nctorus.connections import Connection, curvature_commutator, curvature_form
from nctorus.coverings import CoveringSpec, deck_act, project
from nctorus.errors import ParamMismatch

TWO_PI_I = 2j * math.pi


# -- hypothesis strategies --------------------------------------------------

coeffs = st.complex_numbers(
    min_magnitude=0.01, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
exps = st.integers(min_value=-3, max_value=3)
term_keys = st.tuples(exps, exps, st.integers(min_value=-2, max_value=2))


@st.composite
def elements(draw, theta=THETA):
    terms = draw(st.dictionaries(term_keys, coeffs, min_size=1, max_size=5))
    return TorusElement(TorusParams(theta), terms)


small_weights = st.tuples(
    st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2)
)


# -- constructors and basic arithmetic --------------------------------------


def test_mono_generators(params):
    assert u(params).terms == {(1, 0, 0): 1}
    assert one(params).terms == {(0, 0, 0): 1}
    assert mono(1, 1, 1, params).terms == {(1, 1, 0): 1}


def test_additive_identity_and_inverse(params):
    assert u(params) + zero(params) == u(params)
    assert (u(params) + (-1) * u(params)).terms == {}
    s = u(params) + v(params)
    assert s.terms == {(1, 0, 0): 1, (0, 1, 0): 1}


def test_param_mismatch_raises(params):
    other = TorusParams(0.25)
    with pytest.raises(ParamMismatch):
        u(params) + u(other)
    with pytest.raises(ParamMismatch):
        u(params) * u(other)


def test_torus_params_is_a_value_of_theta():
    a, b, c = TorusParams(0.25), TorusParams(theta=0.25), TorusParams(0.5)
    assert a == b and a is not b and hash(a) == hash(b) == hash((0.25,))
    assert a != c and len({a, b, c}) == 2
    assert a != 0.25 and a.__eq__(0.25) is NotImplemented  # only another TorusParams compares
    assert repr(a) == "TorusParams(theta=0.25)"
    with pytest.raises(AttributeError):
        a.theta = 0.5
    with pytest.raises(AttributeError):
        a.other = 1  # slotted: no new attributes either
    for theta in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="theta must lie in"):
            TorusParams(theta)
    # one lambda**k memo per instance: each small power is computed once and shared by every fold
    assert a.lam(3) is a.lam(3) and a.lam(3) == b.lam(3)
    x = mono(1, 0, 1, a, lam_exp=3)
    assert x.folded() == {(1, 0): a.lam(3)} and a.lam(65) is not a.lam(65)  # memo only for |k| <= 64
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_uv_product_is_plain_monomial(params):
    assert (u(params) * v(params)).terms == {(1, 1, 0): 1}


def test_twisted_commutation_exact(params):
    # u v = lambda v u with the lambda exponent handled exactly
    vu = v(params) * u(params)
    assert vu.terms == {(1, 1, -1): 1}
    assert (u(params) * v(params) - lam(params) * vu).terms == {}


def test_uv_squared_frozen_and_oracle(params):
    uv = u(params) * v(params)
    sq = uv * uv
    # oracle: bubble-sort reordering of the word u v u v
    assert oracle_monomial_product(1, 1, 1, 1) == (2, 2, -1)
    assert sq.terms == {(2, 2, -1): 1}


#: dyadic theta = p/q, so TorusParams reads q exactly; q = 2 is lambda = -1
DYADIC_THETAS = (0.5, 0.25, 0.375, 0.3125, 0.34375)


def test_product_kernel_is_the_clock_and_shift_product():
    """_product into a fresh dict, and into a non-empty one, against q x q clock-and-shift matrices.

    Derivations have no finite-dimensional representation, so this oracle checks products only.  Each
    matrix entry is within 2 q eps of sum |a||b| over the pairs (plus sum |c| over the accumulator).
    """
    import numpy as np

    from nctorus.algebra import _product, random_element

    eps = sys.float_info.epsilon
    rng = random.Random(20261024)
    for theta in DYADIC_THETAS:
        params, q = TorusParams(theta), theta.as_integer_ratio()[1]
        uv, vu = clock_shift(u(params)) @ clock_shift(v(params)), clock_shift(v(params)) @ clock_shift(u(params))
        assert np.allclose(uv, params.lam() * vu) and not np.allclose(uv, vu)  # the relation, faithfully
        for _ in range(200):
            x, y, acc = (random_element(rng, params, max_terms=6, max_exp=5) for _ in range(3))
            xy = clock_shift(x) @ clock_shift(y)
            got = clock_shift(TorusElement._wrap(params, _product(x.terms, y.terms)))
            assert np.abs(got - xy).max() <= 2 * q * eps * l1(x) * l1(y)
            got = clock_shift(TorusElement._wrap(params, _product(x.terms, y.terms, dict(acc.terms))))
            assert np.abs(got - clock_shift(acc) - xy).max() <= 2 * q * eps * (l1(acc) + l1(x) * l1(y))


def test_star_and_lambda_powers_are_the_clock_and_shift_adjoint_and_scalars():
    """star is the conjugate transpose and lambda^k is omega^k times the identity, within 2 q eps sum |c|."""
    import numpy as np

    from nctorus.algebra import random_element

    eps = sys.float_info.epsilon
    rng = random.Random(20261026)
    for theta in DYADIC_THETAS:
        params, q = TorusParams(theta), theta.as_integer_ratio()[1]
        for _ in range(200):
            x = random_element(rng, params, max_terms=6, max_exp=5)
            assert np.abs(clock_shift(x.star()) - clock_shift(x).conj().T).max() <= 2 * q * eps * l1(x)
        for k in (*range(-5, 6), 63, 64, 65, -64, -65, 1000, -(10**6) - 1):
            omega_k = cmath.exp(2j * math.pi * float(k * Fraction(theta) % 1))
            assert np.abs(clock_shift(lam(params, k)) - omega_k * np.eye(q)).max() <= 2 * q * eps, (theta, k)


def test_flows_at_multiples_of_one_over_q_are_clock_and_shift_conjugations():
    """At tau = r/q, weight (1, 0) is X -> V^-s X V^s and weight (0, 1) is X -> U^s X U^-s, s = r p^-1 mod q.

    V^-s U V^s = omega^s U and U^s V U^-s = omega^s V, with omega^s = e^{2 pi i r/q}.  V^s is a permutation
    and U^s = diag(omega^{s j}) has its exponents reduced mod q in integers, so each side carries the
    roundings of one clock_shift: within 2 q eps sum |c|.
    """
    import numpy as np

    from nctorus.algebra import random_element

    eps = sys.float_info.epsilon
    rng = random.Random(20261028)
    for theta in DYADIC_THETAS:
        params = TorusParams(theta)
        p, q = theta.as_integer_ratio()
        for r in range(q):
            s = r * pow(p, -1, q) % q
            shift = np.zeros((q, q), dtype=complex)  # V^s e_c = e_{c+s}
            shift[(np.arange(q) + s) % q, np.arange(q)] = 1
            clock = np.diag([cmath.exp(2j * math.pi * (s * j * p % q) / q) for j in range(q)])
            for _ in range(20):
                x = random_element(rng, params, max_terms=6, max_exp=5)
                mx, bound = clock_shift(x), 2 * q * eps * l1(x)
                got = clock_shift(apply_auto((1, 0), r / q, x))
                assert np.abs(got - shift.T @ mx @ shift).max() <= bound, (theta, r)
                got = clock_shift(apply_auto((0, 1), r / q, x))
                assert np.abs(got - clock @ mx @ clock.conj().T).max() <= bound, (theta, r)


@given(m=exps, n=exps, p=exps, q=exps)
def test_monomial_product_matches_reordering_oracle(m, n, p, q):
    params = TorusParams(THETA)
    prod = mono(m, n, 1, params) * mono(p, q, 1, params)
    (key,) = prod.terms
    assert key == oracle_monomial_product(m, n, p, q)


def test_star_frozen_values(params):
    assert u(params).star().terms == {(-1, 0, 0): 1}
    assert one(params).star().terms == {(0, 0, 0): 1}
    # (uv)* = v^{-1} u^{-1} = lambda^{-1} u^{-1} v^{-1}
    assert oracle_monomial_star(1, 1) == (-1, -1, -1)
    assert (u(params) * v(params)).star().terms == {(-1, -1, -1): 1}


@given(m=exps, n=exps)
def test_monomial_star_matches_oracle(m, n):
    params = TorusParams(THETA)
    starred = mono(m, n, 1, params).star()
    (key,) = starred.terms
    assert key == oracle_monomial_star(m, n)


def test_unitarity_exact(params):
    assert (u(params) * u(params).star()).terms == {(0, 0, 0): 1}
    assert (v(params) * v(params).star()).terms == {(0, 0, 0): 1}
    assert (u(params).star() * u(params)).terms == {(0, 0, 0): 1}


# -- algebraic laws ----------------------------------------------------------


@settings(max_examples=60)
@given(a=elements(), b=elements(), c=elements())
def test_associativity(a, b, c):
    assert_close((a * b) * c, a * (b * c), tol=1e-11)


@given(a=elements(), b=elements())
def test_involution_antimultiplicative(a, b):
    assert_close((a * b).star(), b.star() * a.star())


@given(a=elements())
def test_involution_involutive(a):
    assert a.star().star().terms == a.terms


@given(a=elements(), b=elements())
def test_distributivity(a, b):
    c = mono(1, -1, 0.5j, TorusParams(THETA))
    assert_close(c * (a + b), c * a + c * b)


def assert_canonical(x: TorusElement):
    assert all(type(c) is complex and c != 0 for c in x.terms.values()), x.terms


@settings(max_examples=60)
@given(
    a=elements(),
    b=elements(),
    entries=st.lists(elements(), min_size=8, max_size=8),
    degrees=st.tuples(st.integers(1, 1000), st.integers(1, 1000)),
    deck=st.tuples(st.integers(-(10**5), 10**5), st.integers(-(10**5), 10**5)),
)
def test_results_are_canonical_by_construction(a, b, entries, degrees, deck):
    """Sums, products, negation, star, covering maps and curvature hold only nonzero complex coefficients."""
    params = TorusParams(THETA)
    spec = CoveringSpec(params, degrees)
    lifted = project(spec, a)
    for x in (a + b, a - b, a - a, a * b, -a, a.star(), lifted, deck_act(spec.deck(*deck), lifted)):
        assert_canonical(x)
    # project moves keys only: a's coefficients, in a's order
    assert [bits for _, bits in element_bits(lifted)] == [bits for _, bits in element_bits(a)]
    # + is one merge into a copy of a's terms: the bits and key order of the left-to-right reference sum
    assert element_bits(a + b) == element_bits(total(a, [b]))
    conn = Connection(params, [entries[0:2], entries[2:4]], [entries[4:6], entries[6:8]])
    for row in curvature_form(conn).entries:
        for e in row:
            assert_canonical(e.dudv)
    for row in curvature_commutator(conn, (1, 0), (0, 1)):
        for e in row:
            assert_canonical(e)


# -- one-parameter flows -----------------------------------------------------


def test_flow_on_generators(params):
    tau = 0.731
    got = apply_auto((1, 0), tau, u(params))
    assert got.terms == {(1, 0, 0): pytest.approx(cmath.exp(TWO_PI_I * tau))}
    assert apply_auto((1, 0), tau, v(params)).terms == {(0, 1, 0): 1}
    assert apply_auto((0, 1), tau, v(params)).terms == {
        (0, 1, 0): pytest.approx(cmath.exp(TWO_PI_I * tau))
    }


@given(a=elements(), w=small_weights)
def test_flow_at_time_zero_is_identity(a, w):
    assert apply_auto(w, 0.0, a).terms == a.terms


def test_flow_at_integer_time_is_exactly_the_identity(params):
    # tau (alpha m + beta n) is reduced mod 1 before the exponential, so an integer phase leaves the
    # coefficient as it is, sign bits included, whatever the degree
    for w in ((1, 0), (2, 3), (0, 4)):
        for m in (1, 7, 4000, 10**4, 10**5, 10**6):
            for n in (0, 1, -3, m):
                for c in (1, complex(0.3, -0.0), complex(-0.0, -2.5)):
                    a = mono(m, n, c, params)
                    for tau in (1.0, 2.0, -1.0):
                        (got,) = apply_auto(w, tau, a).terms.items()
                        want = ((m, n, 0), complex(c))
                        assert got == want and str(got) == str(want), (w, m, n, c, tau)


@settings(max_examples=60)
@given(a=elements(), b=elements(), w=small_weights, tau=st.floats(-2, 2))
def test_flow_is_automorphism(a, b, w, tau):
    lhs = apply_auto(w, tau, a * b)
    rhs = apply_auto(w, tau, a) * apply_auto(w, tau, b)
    assert_close(lhs, rhs, tol=1e-11)


@settings(max_examples=60)
@given(a=elements(), w=small_weights, tau=st.floats(-2, 2), sigma=st.floats(-2, 2))
def test_flow_group_law(a, w, tau, sigma):
    assert_close(
        apply_auto(w, tau + sigma, a),
        apply_auto(w, tau, apply_auto(w, sigma, a)),
        tol=1e-11,
    )


@given(a=elements(), w=small_weights)
def test_flow_preserves_star(a, w):
    tau = 0.37
    assert_close(apply_auto(w, tau, a.star()), apply_auto(w, tau, a).star())


# -- derivations -------------------------------------------------------------


def test_derivation_frozen_values(params):
    assert apply_derivation((1, 0), u(params)).terms == {(1, 0, 0): TWO_PI_I}
    assert apply_derivation((1, 0), v(params)).terms == {}
    got = apply_derivation((2, 3), u(params) * v(params))
    assert got.terms == {(1, 1, 0): pytest.approx(TWO_PI_I * 5)}


@given(a=elements(), b=elements(), w=small_weights)
def test_leibniz(a, b, w):
    lhs = apply_derivation(w, a * b)
    rhs = apply_derivation(w, a) * b + a * apply_derivation(w, b)
    assert_close(lhs, rhs, tol=1e-11)


@given(a=elements(), w=small_weights)
def test_derivation_is_flow_generator(a, w):
    # difference quotient at t=1e-6: relative tolerance 1e-4 per coefficient
    t = 1e-6
    quotient = (apply_auto(w, t, a) - a) * (1.0 / t)
    target = apply_derivation(w, a)
    fq, ft = quotient.folded(), target.folded()
    for key in set(fq) | set(ft):
        lhs, rhs = fq.get(key, 0j), ft.get(key, 0j)
        assert abs(lhs - rhs) <= 1e-4 * max(abs(rhs), 1e-9)


# -- views and serialization -------------------------------------------------


def test_equality_folds_lambda_exponents(params):
    # lam * 1 equals the numeric scalar exp(2 pi i theta)
    explicit = mono(0, 0, params.lam(1), params)
    assert lam(params) == explicit
    assert lam(params).terms != explicit.terms  # stored forms differ


def test_lam_reduces_large_exponents_exactly(params):
    # k theta is reduced mod 1 on the integer ratio of theta: one rounding at any k
    for k in (10**9, -(10**9)):
        exact = cmath.exp(TWO_PI_I * float((Fraction(params.theta) * k) % 1))
        assert abs(params.lam(k) - exact) <= 1e-15
    assert params.lam(1) == cmath.exp(2.0 * math.pi * 1j * params.theta)
    assert params.lam(0) == 1
    assert TorusParams(0.25).lam(-8) == 1  # an integer phase is exactly 1


def test_turn_on_a_float_is_the_turn_on_its_integer_ratio():
    """turn(c, x) and turn(c, num, den) give the same bits, and a whole turn gives c's own bits."""

    def bits(z: complex) -> bytes:
        return struct.pack("<dd", z.real, z.imag)

    rng = random.Random(71)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1 - 2**-53, -(1 - 2**-53), 0.5, -0.5, 1.0, -1.0]
    edges += [1e300, -1e300, 2.0**53 + 2, -(2.0**52) - 0.5, 1e16 + 0.5]
    doubles = edges + [rng.uniform(-10, 10) for _ in range(400)]
    doubles += [rng.choice((-1, 1)) * 2.0 ** rng.uniform(-1074, 1000) for _ in range(400)]
    doubles += [float(rng.randint(-(10**18), 10**18)) / rng.choice((1, 2, 4, 1024)) for _ in range(200)]
    coefficients = [1 + 0j, complex(-0.0, -0.0), complex(0.3, -0.0), complex(-0.0, 2.5), complex(-1e-300, 7.0)]
    for x in doubles:
        whole = Fraction(x) % 1 == 0
        for c in coefficients:
            got = turn(c, x)
            assert bits(got) == bits(turn(c, *x.as_integer_ratio())), (c, x)
            if whole:
                assert bits(got) == bits(c), (c, x)


def test_scalar_views(params):
    assert mono(0, 0, 2.5 - 1j, params).folded() == {(0, 0): 2.5 - 1j}
    assert lam(params, 2).folded() == {(0, 0): params.lam(2)}
    assert zero(params).is_zero() and not u(params).is_zero()


def test_json_round_trip(rng, params):
    # to_dict is the payload from_dict reads, so it stays exact through JSON text: 17-digit
    # coefficients and theta (0.1 + 0.2 has no 15-digit form) come back bit for bit
    from nctorus.algebra import random_element

    exact = TorusElement(TorusParams(0.1 + 0.2), {(1, 0, 0): complex(0.1 + 0.2, 1 / 3), (0, 2, -1): 2j / 3})
    for a in [exact] + [random_element(rng, params) for _ in range(25)]:
        back = TorusElement.from_dict(json.loads(json.dumps(a.to_dict())))
        assert back.params == a.params
        assert back.terms == a.terms


def test_json_round_trip_keeps_signed_zero_parts(params):
    # each term is read as given; only a repeated key is summed
    for c in (complex(0.3, -0.0), complex(-0.0, 2.0), complex(-1.5, -0.0)):
        (back,) = TorusElement.from_dict(json.loads(json.dumps(mono(2, -1, c, params, 3).to_dict()))).terms.values()
        assert str(back) == str(c)
    twice = [{"m": 1, "n": 0, "re": 0.5, "im": 1.0}, {"m": 1, "n": 0, "re": -0.5, "im": 1.0}]
    repeated = {"theta": THETA, "terms": twice}
    assert TorusElement.from_dict(repeated).terms == {(1, 0, 0): 2j}


def test_json_shape(params):
    d = (2 * u(params)).to_dict()
    assert d == {"theta": THETA, "terms": [{"m": 1, "n": 0, "re": 2.0, "im": 0.0, "lk": 0}]}


def test_distance_zero_on_equal(params):
    assert distance(u(params), u(params)) == 0.0
    assert distance(u(params), v(params)) == 1.0


def test_a_nan_difference_is_the_distance_in_every_key_order(params):
    # max keeps the first of a NaN pair, so without a check the verdict hung on dict order
    nan = TorusElement(params, {(0, 0, 0): math.nan})
    for first, second in ((nan, u(params)), (u(params), nan)):
        a = TorusElement(params, {**first.terms, **second.terms})
        for x, y in ((a, u(params)), (u(params), a)):
            assert math.isnan(distance(x, y))
            assert x != y
    assert distance(TorusElement(params, {(0, 0, 0): 2.0, (1, 0, 0): 1.0}), u(params)) == 2.0


def test_integral_keeps_every_result_and_message():
    big = 10**400
    assert integral(big, "m") is big and integral(-3, "m") == -3
    assert integral(4.0, "m") == 4 and type(integral(4.0, "m")) is int
    for bad in (True, False, 2.5, math.nan, math.inf, "3", None, 1j):
        with pytest.raises(ValueError) as info:
            integral(bad, "deck a")
        assert str(info.value) == f"deck a must be an integer, got {bad!r}"


def test_r15_keeps_a_finite_double_finite():
    # within half a 15-digit step of the largest double the rounding overflows: a finite x stays finite
    import numpy as np

    top, r15_top = sys.float_info.max, 1.79769313486231e308
    for x in (top, math.nextafter(top, 0), 1.797693134862315e308, np.float64(top)):
        assert (r15(x), r15(-x)) == (r15_top, -r15_top)
    assert r15(r15_top) == r15_top and r15(-r15_top) == -r15_top
    for x in (math.inf, -math.inf, np.float64(-math.inf)):  # inf and NaN keep their rounding, with no warning
        assert r15(x) == x
    assert math.isnan(r15(math.nan)) and math.isnan(r15(np.float64(math.nan)))
    # every other float, and a float subclass, rounds as float(f"{x:.15g}") does, bit for bit
    rng = random.Random(20261019)
    xs = [0.0, -0.0, 5e-324, 1 / 3, -2.5e-300, 1e308, -1.7976931348623e308, r15_top]
    xs += [rng.uniform(-1, 1) * 10.0 ** rng.randint(-323, 307) for _ in range(2000)]
    for x in xs + [np.float64(x) for x in xs[:200]]:
        assert struct.pack("<d", r15(x)) == struct.pack("<d", float(f"{x:.15g}")), x
    assert type(r15(3)) is int and r15(3) == 3 and r15(None) is None and r15(True) is True


def test_twist_is_turn_per_term():
    # _twist inlines turn's reduction mod 1: each coefficient keeps turn's bits, c itself at a whole turn
    terms = {(0, 0, 0): 1 + 2j, (1, 0, 1): complex(-0.0, 0.5), (-2, 3, 0): 5e-324, (3, -1, -2): -1e200j}
    for weight in ((1, 0), (0, 1), (-2, 3), (0.5, -1.25), (0, 0), (1e300, 1)):
        for tau in (0, 0.0, -0.0, 1, 1.0, -0.37, 1e-310, 2.0**40 + 0.5, 1e300, math.inf, math.nan):
            alpha, beta = weight
            want = {key: turn(c, tau * (alpha * key[0] + beta * key[1])) for key, c in terms.items()}
            got = _twist(weight, tau, terms)
            assert [(k, struct.pack("<2d", c.real, c.imag)) for k, c in got.items()] == [
                (k, struct.pack("<2d", c.real, c.imag)) for k, c in want.items()
            ]


def test_derivation_and_fold_keep_their_bits(params):
    # apply_derivation drops a zero product inline, as the public constructor did; folded reads lam's memo
    rng = random.Random(20261019)
    for _ in range(200):
        keys = [(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice([0, 1, -2, 65, -90])) for _ in range(4)]
        a = TorusElement(params, {key: rng.choice(EDGE_COEFFICIENTS) for key in keys})
        for alpha, beta in ((1, 0), (0, 1), (0.5, -2), (1e-320, 1), (0, 0)):
            terms = {}
            for (m, n, k), c in a.terms.items():
                if alpha * m + beta * n != 0:
                    terms[(m, n, k)] = c * (TWO_PI * 1j * (alpha * m + beta * n))
            assert element_bits(apply_derivation((alpha, beta), a)) == element_bits(TorusElement(params, terms))
        fold = {}
        for (m, n, k), c in a.terms.items():
            fold[(m, n)] = fold.get((m, n), 0j) + (c if k == 0 else c * params.lam(k))
        assert [(key, struct.pack("<2d", c.real, c.imag)) for key, c in a.folded().items()] == [
            (key, struct.pack("<2d", c.real, c.imag)) for key, c in fold.items()
        ]


def test_random_element_draws_the_randint_stream(params):
    # randrange(a, b + 1) is randint(a, b): the same elements, and the generator left in the same state
    for seed in range(20):
        mine, theirs = random.Random(seed), random.Random(seed)
        for max_terms, max_exp in ((1, 0), (3, 3), (4, 3), (6, 1)):
            got = random_element(mine, params, max_terms=max_terms, max_exp=max_exp)
            assert element_bits(got) == element_bits(reference_random_element(theirs, params, max_terms, max_exp))
        assert mine.random() == theirs.random()


@pytest.mark.parametrize("max_terms, max_exp", [(0, 3), (3, -1)])
def test_random_element_rejects_an_empty_range(params, max_terms, max_exp):
    # randint's ValueError, where a draw of getrandbits(0) until below 0 would never end
    with pytest.raises(ValueError, match="^random_element needs max_terms >= 1 and max_exp >= 0"):
        random_element(random.Random(0), params, max_terms=max_terms, max_exp=max_exp)


#: a finite complex whose modulus, about 1.84e308, is beyond the largest double, so abs raises on it
HUGE = complex(1.3e308, 1.3e308)


@pytest.mark.parametrize(
    "values, negligible",
    [
        ([], True),
        ([0j, -0.0, 0], True),
        ([EQ_TOL, complex(0, -EQ_TOL)], True),
        ([math.nextafter(EQ_TOL, 1)], False),
        ([complex(0, math.nextafter(EQ_TOL, 1))], False),
        ([math.nan], False),
        ([0j, complex(0, math.nan)], False),
        ([math.inf], False),
        ([-math.inf], False),
        ([HUGE], False),
        ([HUGE, 2.0], False),
        ([2.0, HUGE], False),
        ([0j, HUGE, 0j], False),
    ],
    ids=[
        "empty", "zeros", "eq-tol", "above-eq-tol", "above-eq-tol-imag", "nan", "nan-imag", "inf", "-inf",
        "huge", "huge-before-curved", "huge-after-curved", "huge-among-zeros",
    ],
)
def test_negligible_is_the_zero_test_and_never_raises(params, values, negligible):
    # modulus at most EQ_TOL; NaN is not negligible, nor a finite value whose modulus overflows abs
    from nctorus.algebra import _negligible

    with pytest.raises(OverflowError, match="^absolute value too large$"):
        abs(HUGE)
    assert _negligible(values) is negligible
    assert _negligible(iter(values)) is negligible
    element = TorusElement(params, {(i, 0, 0): c for i, c in enumerate(values)})
    assert element.is_zero() is negligible


def test_element_repr_names_each_factor(params):
    x = mono(1, 2, 2 - 1j, params, lam_exp=-3) + mono(0, 1, 0.5, params, lam_exp=1) + 1 + mono(-1, 0, 1j, params)
    assert repr(x) == (
        "TorusElement(theta=0.3819660113, (1j)*u^-1 + ((1+0j)) + ((0.5+0j))*lam*v + ((2-1j))*lam^-3*u*v^2)"
    )
    assert repr(zero(params)) == "TorusElement(theta=0.3819660113, 0)"


def test_element_operators_with_numbers_and_other_types(params):
    assert element_bits(1 - u(params)) == element_bits(TorusElement(params, {(0, 0, 0): 1, (1, 0, 0): -1}))
    assert u(params).__rmul__("x") is NotImplemented
    with pytest.raises(TypeError):
        None * u(params)
    with pytest.raises(TypeError, match="^cannot combine TorusElement with str$"):
        u(params) + "x"
    assert one(params) == 1 and u(params) != 1
    assert u(params).__eq__("u") is NotImplemented and u(params) != "u"
    assert u(params) != u(TorusParams(ALT_THETA))
    with pytest.raises(AttributeError, match="^TorusElement is immutable$"):
        u(params).terms = {}
