"""Covariant derivatives, curvature (two routes), flatness, transport."""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import json
import math
import random
import re
import struct
import sys

import numpy as np
import pytest

from conftest import (
    THETA,
    antihermitian_connection,
    assert_close,
    element_bits,
    element_connection,
    exact_form_dict,
    nabla,
    reference_apply,
    reference_commutator,
    reference_nabla,
    reference_transport_axioms,
    reference_weight_matrix,
    rotation_block_connection,
    scalar_connection,
    total,
    vector_distance,
)
from nctorus import connections
from nctorus.algebra import (
    TWO_PI, TorusElement, TorusParams, apply_derivation, lam, mono, one, real, u, v, zero,
)
from nctorus.connections import (
    Connection,
    TransportOperator,
    check_transport_axioms,
    curvature_commutator,
    curvature_form,
    is_flat,
    transport,
)
from nctorus.errors import NonConstantConnection, ParamMismatch, RankMismatch
from nctorus.reports import TransportAxiomReport
from nctorus.scenarios import builtin

TWO_PI_I = 2j * math.pi

C_U, C_V = 0.25, 0.1


@pytest.fixture
def scalar_conn(params):
    return scalar_connection(params, C_U, C_V)


@pytest.fixture
def block_conn(params):
    return rotation_block_connection(params, C_U, C_V)


def rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


# -- covariant derivative ----------------------------------------------------


def test_nabla_bare_derivation(params):
    conn = Connection(params, [[0]], [[0]])
    (got,) = nabla(conn, (1, 0), [u(params)])
    assert got.terms == {(1, 0, 0): TWO_PI_I}


def test_nabla_scalar_connection_on_identity(scalar_conn, params):
    (got,) = nabla(scalar_conn, (1, 0), [one(params)])
    assert got.terms == {(0, 0, 0): 1j * C_U}


def test_nabla_block_connection_on_basis(block_conn, params):
    e1 = [one(params), zero(params), zero(params), zero(params)]
    got = nabla(block_conn, (1, 0), e1)
    assert got[0].terms == {} and got[2].terms == {} and got[3].terms == {}
    assert got[1].terms == {(0, 0, 0): C_U}


def test_nabla_leibniz_rule(rng, params, block_conn):
    from nctorus.algebra import apply_derivation, random_element

    for _ in range(20):
        xi = [random_element(rng, params, max_terms=3) for _ in range(4)]
        x = random_element(rng, params, max_terms=3)
        w = (rng.randint(-2, 2), rng.randint(-2, 2))
        lhs = nabla(block_conn, w, [s * x for s in xi])
        rhs = [
            a + b
            for a, b in zip(
                [s * x for s in nabla(block_conn, w, xi)],
                [s * apply_derivation(w, x) for s in xi],
            )
        ]
        assert vector_distance(lhs, rhs) <= 1e-10


def test_nabla_rank_mismatch(scalar_conn, params):
    with pytest.raises(RankMismatch):
        nabla(scalar_conn, (1, 0), [u(params), v(params)])
    with pytest.raises(RankMismatch):
        transport(scalar_conn, (1, 0), 0.5).apply([u(params), v(params)])


def test_nabla_and_commutator_are_bits_of_the_total_over_products(params):
    # keys, key order and coefficient bytes against conftest's plain loop per row: delta_X(x)'s terms,
    # then every pair of t * y added in, column by column
    from nctorus.algebra import random_element

    # t * x puts two pairs on delta_X(x)'s key u: 2 pi i + (p + p) rounds other than (2 pi i + p) + p
    t, x = (one(params) + u(params)) * 5e-16j, u(params) + one(params)
    (got,), (want,) = connections._nabla(((t,),), (1, 0), [x]), reference_nabla(((t,),), (1, 0), [x])
    assert element_bits(got) == element_bits(want)
    assert got.terms[(1, 0, 0)] != total(apply_derivation((1, 0), x), [t * x]).terms[(1, 0, 0)]

    rng = random.Random(20261020)
    for rank in range(1, 6):
        for same in (False, True):
            conn = element_connection(params, rng, rank, same=same)
            xi = [random_element(rng, params, max_terms=3) for _ in range(rank)]
            xi[-1] = xi[-1] * 1e200  # products overflow to inf, and sums of them to NaN
            for weight in ((1, 0), (0, 1), (2, -1), (0.5, 0.25)):
                theta = conn.weight_matrix(weight)
                got, want = connections._nabla(theta, weight, xi), reference_nabla(theta, weight, xi)
                assert list(map(element_bits, got)) == list(map(element_bits, want))
            got, want = curvature_commutator(conn, (1, 0), (0, 1)), reference_commutator(conn, (1, 0), (0, 1))
            assert [list(map(element_bits, row)) for row in got] == [list(map(element_bits, row)) for row in want]


def test_nabla_rejects_a_vector_over_another_theta(params):
    # every xi over another theta, and each single one, raises as the total over products did
    other = TorusParams(0.7)
    conn = element_connection(params, random.Random(5), 3)
    theta = conn.weight_matrix((1, 1))
    vectors = [[u(other), v(other), one(other)]]
    vectors += [[one(other) if i == j else u(params) for i in range(3)] for j in range(3)]
    for xi in vectors:
        with pytest.raises(ParamMismatch) as want:
            reference_nabla(theta, (1, 1), xi)
        with pytest.raises(ParamMismatch, match=f"^{re.escape(str(want.value))}$"):
            nabla(conn, (1, 1), xi)


# -- curvature ---------------------------------------------------------------


def test_scalar_connection_curvature_symbolically_empty(scalar_conn):
    curv = curvature_form(scalar_conn)
    assert curv.entries[0][0].dudv.terms == {}
    assert is_flat(scalar_conn)


def test_block_connection_curvature_symbolically_empty(block_conn):
    curv = curvature_form(block_conn)
    assert all(e.dudv.terms == {} for row in curv.entries for e in row)
    assert is_flat(block_conn)


def test_symbolic_curvature_frozen_values(params):
    # Theta_u = u: d-term vanishes since delta_v(u) = 0
    conn = Connection(params, [[u(params)]], [[0]])
    assert curvature_form(conn).entries[0][0].dudv.terms == {}
    # Theta_u = v: -delta_v(v) = -2 pi i v survives
    conn = Connection(params, [[v(params)]], [[0]])
    assert curvature_form(conn).entries[0][0].dudv.terms == {(0, 1, 0): -TWO_PI_I}
    assert not is_flat(conn)


def _flat_block(params, rng, rank: int) -> list:
    """Theta_u = Theta_v = A with every term's u and v powers equal: d Theta and Theta ^ Theta are exactly zero."""
    def entry():
        return TorusElement(params, {(m, m, rng.randint(-2, 2)): complex(rng.randint(-3, 3), 1) for m in (-1, 1)})

    return [[entry() for _ in range(rank)] for _ in range(rank)]


def _curved_cases(params, rng, rank: int) -> list:
    """Element connections, flat and curved, with the curvature at one chosen entry or everywhere."""
    z = zero(params)
    a = _flat_block(params, rng, rank)
    last = [row + [z] for row in _flat_block(params, rng, rank - 1)] + [[z] * (rank - 1) + [lam(params)]]
    # a product commutator u v - v u at (n-1, n-1) only, beside a flat block
    theta_u, theta_v = [row[:] for row in last], [row[:] for row in last]
    theta_u[-1][-1], theta_v[-1][-1] = u(params), v(params)
    # only a derivation term, 2 pi i (u - lambda v) at (n-1, n-1): Theta_v = Theta_u cancels every product
    only_d = [row[:] for row in a]
    only_d[-1][-1] = only_d[-1][-1] + u(params) - lam(params) * v(params)
    # below tolerance at (0, 0): still flat
    tiny = [row[:] for row in a]
    tiny[0][0] = tiny[0][0] + mono(1, 0, 1e-13, params)
    return [
        (Connection(params, a, a), True),
        (Connection(params, last, last), True),
        (Connection(params, tiny, tiny), True),
        (Connection(params, theta_u, theta_v), False),
        (Connection(params, only_d, only_d), False),
        (element_connection(params, rng, rank), False),
    ]


_CURVATURE_OVERFLOWS = "curvature overflows: F has a coefficient that is not a finite double"


def _flatness(conn):
    """is_flat(conn), or OverflowError where it raises that with the curvature report's message."""
    try:
        return is_flat(conn)
    except OverflowError as exc:
        assert str(exc) == _CURVATURE_OVERFLOWS
        return OverflowError


def _verdict(entries) -> bool | type:
    """is_flat's rule on TwoForm entries in row-major order: True if none is above EQ_TOL, else by the first
    one that is, False if its coefficients are finite and OverflowError if not."""
    for e in entries:
        if not e.dudv.is_zero():
            return False if all(map(cmath.isfinite, e.dudv.terms.values())) else OverflowError
    return True


def test_is_flat_is_the_verdict_of_the_full_form(params):
    # the full form's first entry above EQ_TOL, row-major, decides; with 1e200 coefficients some overflow
    rng = random.Random(20261021)
    for rank in range(1, 6):
        for conn, flat in _curved_cases(params, rng, rank):
            assert conn.scalars is None
            assert curvature_form(conn).is_zero() is flat
            assert _flatness(conn) is _verdict(e for row in curvature_form(conn).entries for e in row)
        for same in (False, True):
            conn = element_connection(params, rng, rank, same=same)
            assert _flatness(conn) is _verdict(e for row in curvature_form(conn).entries for e in row)


def test_is_flat_stops_at_the_first_curved_entry(monkeypatch, params):
    # entry (0, 0) is curved: is_flat takes only its 2n products; curvature_form still takes all 2n^3
    from nctorus import forms

    calls = []
    product = forms._product
    monkeypatch.setattr(forms, "_product", lambda x, y, terms: calls.append(1) or product(x, y, terms))
    rng = random.Random(20261022)
    for rank in range(1, 6):
        conn = element_connection(params, rng, rank)
        first = curvature_form(conn).entries[0][0]
        assert not first.dudv.is_zero()
        calls.clear()
        assert _flatness(conn) is _verdict([first])
        assert len(calls) == 2 * rank
        calls.clear()
        curvature_form(conn)
        assert len(calls) == 2 * rank**3


def test_is_flat_raises_on_a_commuting_connection_whose_products_overflow(params):
    # Theta_u = Theta_v commute, but 1e200i * 1e200i is -inf, so F = -inf - -inf is NaN, not flat zero
    conn = Connection(params, [[1e200j]], [[1e200j]])
    with pytest.raises(OverflowError, match=f"^{re.escape(_CURVATURE_OVERFLOWS)}$"):
        is_flat(conn)


#: a finite complex whose modulus, about 1.84e308, is beyond the largest double, so abs raises on it
_HUGE = complex(1.3e308, 1.3e308)


def test_a_curvature_whose_modulus_overflows_is_finite_and_curved(params):
    # F_01 = _HUGE (times v for the element twin): finite, so flatness reads it as curved, not as an abs error
    for theta_v in ([[0, _HUGE], [0, 0]], [[0, mono(0, 1, _HUGE, params)], [0, 0]]):
        conn = Connection(params, [[1, 0], [0, 0]], theta_v)
        form = curvature_form(conn)
        form.check_finite()
        assert form.is_zero() is False
        assert is_flat(conn) is False
    with pytest.raises(NonConstantConnection):
        transport(Connection(params, [[0.25j + mono(1, 0, _HUGE, params)]], [[0]]), (1, 0), 1.0)


def test_commutator_curvature_of_paper_connections_vanishes(scalar_conn, block_conn):
    for conn in (scalar_conn, block_conn):
        comm = curvature_commutator(conn, (1, 0), (0, 1))
        assert all(e.terms == {} for row in comm for e in row)


def test_commutator_antisymmetric_and_diagonal_zero(block_conn):
    xy = curvature_commutator(block_conn, (1, 2), (2, -1))
    yx = curvature_commutator(block_conn, (2, -1), (1, 2))
    for i in range(4):
        for j in range(4):
            assert_close(xy[i][j], -1 * yx[i][j])
    same = curvature_commutator(block_conn, (1, 2), (1, 2))
    assert all(e.is_zero() for row in same for e in row)


def test_commutator_of_constant_connection_is_matrix_commutator(params):
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        a_u = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a_v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        conn = Connection(params, a_u.tolist(), a_v.tolist())
        comm = curvature_commutator(conn, (1, 0), (0, 1))
        expect = a_u @ a_v - a_v @ a_u
        got = np.array([[e.folded().get((0, 0), 0j) for e in row] for row in comm])
        assert np.max(np.abs(got - expect)) < 1e-10


def test_two_curvature_routes_agree_constant(params):
    # 50 random constant connections of rank <= 4, tolerance 1e-10
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a_u = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a_v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        conn = Connection(params, a_u.tolist(), a_v.tolist())
        comm = curvature_commutator(conn, (1, 0), (0, 1))
        form = curvature_form(conn)
        for i in range(n):
            for j in range(n):
                assert_close(comm[i][j], form.entries[i][j].dudv, tol=1e-10)


def test_two_curvature_routes_agree_symbolic(rng, params):
    from nctorus.algebra import random_element

    for _ in range(10):
        n = rng.randint(1, 3)
        theta_u = [[random_element(rng, params, max_terms=2, max_exp=2) for _ in range(n)] for _ in range(n)]
        theta_v = [[random_element(rng, params, max_terms=2, max_exp=2) for _ in range(n)] for _ in range(n)]
        conn = Connection(params, theta_u, theta_v)
        comm = curvature_commutator(conn, (1, 0), (0, 1))
        form = curvature_form(conn)
        for i in range(n):
            for j in range(n):
                assert_close(comm[i][j], form.entries[i][j].dudv, tol=1e-9)


# -- transport ----------------------------------------------------------------


def test_scalar_transport_value(scalar_conn):
    op = transport(scalar_conn, (1, 0), 1.0)
    assert abs(op.matrix[0][0] - np.exp(TWO_PI_I * C_U)) < 1e-13
    op = transport(scalar_conn, (0, 1), 1.0)
    assert abs(op.matrix[0][0] - np.exp(TWO_PI_I * C_V)) < 1e-13


def test_transport_at_zero_is_identity(scalar_conn, block_conn, params):
    for conn in (scalar_conn, block_conn):
        op = transport(conn, (1, 0), 0.0)
        assert np.array_equal(op.matrix, np.eye(conn.rank))
        xs = [u(params)] * conn.rank
        assert vector_distance(op.apply(xs), xs) == 0.0


def test_transport_operator_is_immutable(scalar_conn):
    op = transport(scalar_conn, (1, 0), 0.5)
    with pytest.raises(AttributeError, match="^TransportOperator is immutable$"):
        op.tau = 1.0


def test_block_transport_is_rotation_block(block_conn):
    got = transport(block_conn, (1, 0), 1.0).matrix
    expect = block_diag(rotation(2 * math.pi * C_U), np.eye(2))
    assert np.max(np.abs(got - expect)) < 1e-12
    got = transport(block_conn, (0, 1), 1.0).matrix
    expect = block_diag(np.eye(2), rotation(2 * math.pi * C_V))
    assert np.max(np.abs(got - expect)) < 1e-12


def test_transport_group_law(scalar_conn, block_conn):
    rng = random.Random(3)
    for conn in (scalar_conn, block_conn):
        for _ in range(10):
            tau, sigma = rng.uniform(-2, 2), rng.uniform(-2, 2)
            w = (rng.randint(-2, 2), rng.randint(-2, 2))
            prod = np.asarray(transport(conn, w, tau).matrix) @ np.asarray(transport(conn, w, sigma).matrix)
            joint = np.asarray(transport(conn, w, tau + sigma).matrix)
            assert np.max(np.abs(prod - joint)) < 1e-10


def test_transport_unitary_for_antihermitian(scalar_conn, block_conn):
    for conn in (scalar_conn, block_conn):
        a = np.array(conn.scalars[0]) + np.array(conn.scalars[1])
        assert np.array_equal(a.conj().T, -a)
        m = np.asarray(transport(conn, (1, 1), 0.77).matrix)
        assert np.max(np.abs(m @ m.conj().T - np.eye(conn.rank))) < 1e-10


def test_transport_is_the_flow_of_delta_plus_two_pi_theta(params):
    """For Theta = (i c_u, i c_v), Phi_tau(u^m v^n) = exp(2 pi i tau (alpha m + beta n + alpha c_u + beta c_v)) u^m v^n.

    So dPhi_tau/dtau at tau = 0 is delta_X + 2 pi Theta_X, not nabla_X = delta_X + Theta_X: transport is
    the parallel transport of the connection 2 pi Theta, whose curvature is not the one curvature_form reports.
    """
    rng = random.Random(71)
    eps = sys.float_info.epsilon
    for _ in range(40):
        c_u, c_v = rng.uniform(-1, 1), rng.uniform(-1, 1)
        (alpha, beta), (m, n) = (rng.randint(-3, 3) for _ in range(2)), (rng.randint(-3, 3) for _ in range(2))
        conn = scalar_connection(params, c_u, c_v)
        s = mono(m, n, 1, params)
        for tau in (0.0, 1e-3, 0.3, -0.77, 1.0, 2.5):
            ((key, got),) = transport(conn, (alpha, beta), tau).apply([s])[0].terms.items()
            phase = TWO_PI * tau * (alpha * m + beta * n + alpha * c_u + beta * c_v)
            # a few roundings of the phase, scaled by its largest part; 3,000 random cases peaked at 2.2 of 8
            bound = 8 * eps * (1 + TWO_PI * abs(tau) * (abs(alpha) * (abs(m) + abs(c_u)) + abs(beta) * (abs(n) + abs(c_v))))
            assert key == (m, n, 0)
            assert abs(got - cmath.exp(1j * phase)) <= bound, (c_u, c_v, alpha, beta, m, n, tau)
        # the derivative at 0, by a central difference: 2 pi i (alpha m + beta n) + 2 pi i (alpha c_u + beta c_v)
        h = 1e-6
        (ahead,), (behind,) = (transport(conn, (alpha, beta), t).apply([s])[0].terms.values() for t in (h, -h))
        slope = (ahead - behind) / (2 * h)
        theta_x = 1j * (alpha * c_u + beta * c_v)
        assert abs(slope - TWO_PI * (1j * (alpha * m + beta * n) + theta_x)) < 1e-6
        (covariant,) = nabla(conn, (alpha, beta), [s])[0].terms.values() or (0j,)
        assert abs(slope - covariant - (TWO_PI - 1) * theta_x) < 1e-6


def _rank1_definition(cu: complex, cv: complex, weight, tau: float) -> complex:
    """exp(2 pi tau (alpha c_u + beta c_v)) in Python complex arithmetic, then cmath.exp."""
    alpha, beta = weight
    return cmath.exp(TWO_PI * tau * (alpha * cu + beta * cv))


def test_rank1_transport_is_the_python_definition(params):
    # signed zeros, subnormal parts, integer and float weights with (0, 0), tau at 0, -0.0 and a
    # subnormal; entries are held as 0j + c, the value a fold gives.  numpy's multiply may fuse its
    # multiply-adds, so only where its old value was finite does it bound the new one, by ==
    parts = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.25, -1.5)
    entries = [complex(re, im) for re in parts[::2] for im in parts] + [complex(-0.0, 1e300)]
    weights = ((0, 0), (1, 0), (-2, 3), (0.0, -0.0), (0.5, -1.5), (1e10, 1))
    taus = (0.0, -0.0, 1e-310, 1.0, -0.37)
    rng = random.Random(21)
    checked = 0
    for _ in range(2000):
        cu, cv, w, tau = rng.choice(entries), rng.choice(entries), rng.choice(weights), rng.choice(taus)
        try:
            want = _rank1_definition(0j + cu, 0j + cv, w, tau)
        except (OverflowError, ValueError):
            want = complex(math.inf, 0.0)
        with np.errstate(all="ignore"):
            old = np.exp(TWO_PI * tau * (w[0] * np.array([[0j + cu]]) + w[1] * np.array([[0j + cv]])))[0, 0]
        conn = Connection(params, [[cu]], [[cv]])
        if not cmath.isfinite(want):
            assert not np.isfinite(old)
            with pytest.raises(OverflowError):
                transport(conn, w, tau)
            continue
        (got,), = transport(conn, w, tau).matrix
        assert _signed(got) == _signed(want), (cu, cv, w, tau)
        if np.isfinite(old):
            assert got == old, (cu, cv, w, tau)
            checked += 1
    assert checked > 1000
    # a lambda-power entry gives its folded coefficient, as the rank >= 2 fold does
    conn = Connection(params, [[0.5j * lam(params, 3)]], [[complex(-0.0, 0.1)]])
    cu = (0.5j * lam(params, 3)).folded()[(0, 0)]
    assert transport(conn, (1, 2), 0.3).matrix == ((_rank1_definition(cu, 0j + complex(-0.0, 0.1), (1, 2), 0.3),),)


@pytest.mark.parametrize(
    "theta_u, weight",
    [
        ([[200.0]], (1, 0)),  # exp overflows
        ([[1e308j]], (10, 0)),  # the exponent overflows, so its phase is not finite
        ([[200.0, 0], [0, 1j]], (1, 0)),
        ([[1e308, 0], [0, 0]], (10, 0)),
    ],
)
def test_a_non_finite_transport_is_an_overflow_error(params, theta_u, weight):
    conn = Connection(params, theta_u, [[0] * len(theta_u)] * len(theta_u))
    with pytest.raises(OverflowError, match="^transport overflows: exp"):
        transport(conn, weight, 1.0)


def test_transport_requires_constant_coefficients(params):
    conn = Connection(params, [[u(params)]], [[0]])
    with pytest.raises(NonConstantConnection):
        transport(conn, (1, 0), 1.0)


def test_transport_axioms_zero_connection(params):
    from nctorus.algebra import apply_auto, random_element

    conn = Connection(params, [[0]], [[0]])
    # Phi_tau coincides with phi_tau exactly, term by term
    rng = random.Random(5)
    for _ in range(10):
        s = [random_element(rng, params)]
        tau = rng.uniform(-2, 2)
        (got,) = transport(conn, (1, 0), tau).apply(s)
        assert got.terms == apply_auto((1, 0), tau, s[0]).terms
    report = check_transport_axioms(conn, (1, 0), samples=20, seed=5)
    assert report.identity_residual == 0.0
    assert report.max_residual < 1e-12


def test_transport_axioms_paper_connections(scalar_conn, block_conn):
    for conn in (scalar_conn, block_conn):
        report = check_transport_axioms(conn, (1, 0), samples=100, seed=1)
        assert report.max_residual < 1e-10
        report = check_transport_axioms(conn, (1, 1), samples=100, seed=2)
        assert report.max_residual < 1e-10


def test_a_nan_residual_is_the_axiom_residual_in_every_order(monkeypatch, params):
    # module, identity and group residuals of two samples, NaN first or last
    conn = Connection(params, [[0.5j]], [[0.1j]])
    for values in ([math.nan] * 3 + [0.5] * 3, [0.5] * 3 + [math.nan] * 3):
        residuals = iter(values)
        monkeypatch.setattr(connections, "_distance", lambda params, x, y: next(residuals))
        report = check_transport_axioms(conn, (1, 0), samples=2)
        assert all(map(math.isnan, (report.module_residual, report.identity_residual, report.group_residual)))
    for fields in ((math.nan, 0.5, 0.1), (0.5, 0.1, math.nan)):
        assert math.isnan(TransportAxiomReport(1, *fields).max_residual)


@pytest.mark.parametrize("rank", [1, 4])
def test_axiom_check_wraps_no_element(monkeypatch, params, rank):
    # every stage from a draw to its residual runs on term dicts
    wraps = []
    wrap = TorusElement._wrap
    monkeypatch.setattr(TorusElement, "_wrap", classmethod(lambda cls, p, terms: wraps.append(1) or wrap(p, terms)))
    report = check_transport_axioms(antihermitian_connection(params, rank, 3), (1, -2), samples=20, seed=4)
    assert report.max_residual < 1e-10
    assert wraps == []


@pytest.mark.parametrize("rank", [1, 4])
def test_axiom_check_builds_no_transport_operator(monkeypatch, params, rank):
    # each matrix of _transports goes to the kernel _apply as it is, with no operator object around it
    made = []
    init = TransportOperator.__init__
    monkeypatch.setattr(TransportOperator, "__init__", lambda self, *args: made.append(1) or init(self, *args))
    conn = antihermitian_connection(params, rank, 3)
    report = check_transport_axioms(conn, (1, -2), samples=20, seed=4)
    assert report.max_residual < 1e-10
    assert made == []
    transport(conn, (1, -2), 0.5)  # the patch sees the operator that transport makes
    assert made == [1]


@pytest.mark.parametrize("rank", [1, 2, 4, 8])
def test_axiom_check_is_the_loop_of_single_transports(monkeypatch, params, rank):
    # every sample drawn first, then one expm call on the stack of all 3 samples + 1 exponents at
    # every rank (none without a sample); the report is that of the loop with one transport per time
    scalars = [[mono(0, 0, complex(-0.0, 0.25 * (i - j)), params, i + j) for j in range(rank)] for i in range(rank)]
    cases = [(antihermitian_connection(params, rank, seed), weight) for seed, weight in ((0, (1, 0)), (7, (-2, 1)))]
    cases.append((Connection(params, scalars, [[2 * e for e in row] for row in scalars]), (0.5, -1.25)))
    expm = connections.expm
    for samples in (0, 1, 5):
        for seed, (conn, weight) in enumerate(cases):
            calls = []
            monkeypatch.setattr(connections, "expm", lambda a: calls.append(a) or expm(a))
            got = check_transport_axioms(conn, weight, samples=samples, seed=seed)
            monkeypatch.undo()
            assert repr(got) == repr(reference_transport_axioms(conn, weight, samples, seed))
            assert len(calls) == (0 if samples == 0 else 1)


@pytest.mark.parametrize("theta_u", [[[300.0]], [[300.0, 0], [0, 1j]], [[0, 300.0], [-300.0, 1e308]]])
def test_an_overflowing_axiom_check_is_the_loops_overflow_error(params, theta_u):
    # exp(2 pi tau 300) overflows above tau = 0.377 but not at tau = 0, so only some of the times overflow
    conn = Connection(params, theta_u, [[0] * len(theta_u)] * len(theta_u))
    for check in (check_transport_axioms, reference_transport_axioms):
        with pytest.raises(OverflowError, match=r"^transport overflows: exp\(2 pi tau Theta_X\) has an entry"):
            check(conn, (1, 0), 5, 3)


@pytest.mark.parametrize("rank", [1, 2])
def test_a_non_constant_axiom_check_raises_as_the_loop_does(params, rank):
    theta_u = [[u(params) if i == j == 0 else 0 for j in range(rank)] for i in range(rank)]
    conn = Connection(params, theta_u, [[0] * rank] * rank)
    for check in (check_transport_axioms, reference_transport_axioms):
        with pytest.raises(NonConstantConnection):
            check(conn, (1, 0), 2, 0)
        assert check(conn, (1, 0), 0, 0) == TransportAxiomReport(0, 0.0, 0.0, 0.0)  # no sample, no transport


@pytest.mark.parametrize("samples", [-1, True, 2.5])
def test_axiom_check_rejects_a_sample_count_that_is_not_a_count(params, samples):
    # -1 once gave a report of max_residual 0.0, which reads as a pass, and True ran one sample
    with pytest.raises(ValueError, match="^samples must be"):
        check_transport_axioms(Connection(params, [[0.5j]], [[0.1j]]), (1, 0), samples=samples)


def test_axiom_check_reads_an_integral_float_sample_count(params):
    conn = Connection(params, [[0.5j]], [[0.1j]])
    report = check_transport_axioms(conn, (1, 0), samples=3.0, seed=2)
    assert type(report.samples) is int and report == check_transport_axioms(conn, (1, 0), samples=3, seed=2)


def test_the_axiom_report_stays_a_frozen_dataclass(params):
    # the benchmark's corruption table rewrites a report with dataclasses.replace
    report = check_transport_axioms(Connection(params, [[0.5j]], [[0.1j]]), (1, 0), samples=2)
    corrupted = dataclasses.replace(report, group_residual=1e-6)
    assert corrupted == TransportAxiomReport(2, report.module_residual, report.identity_residual, 1e-6)
    assert corrupted.max_residual == 1e-6 and report.max_residual < 1e-12
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.samples = 3


def test_stacked_transports_are_single_transports_bit_for_bit(params):
    # the fold 2 pi tau Theta_X broadcast over the paths, and scipy's stacked expm, give each path the bits of
    # its own transport and of the exponent folded alone: signed zeros, subnormal and huge parts, integer and
    # float weights, mixed in one call; (0.0, 1) beside (-0.0, 1), whose folds differ in zero signs
    from scipy.linalg import expm as scipy_expm

    values = (0, -0.0, 1, -2.5, 0.5j, complex(-0.0, 1), complex(1, -0.0), 5e-324, 1e-300, 3.75 - 1.25j)
    weights = [(1, 0), (0, 1), (-2, 1), (0.5, -1.25), (0, 0), (0.0, 1), (-0.0, 1), (-0.0, -0.0)]
    rng = random.Random(20261019)
    for rank in (1, 2, 3, 4, 8):
        for _ in range(8):
            conn = Connection(params, *[[[rng.choice(values) for _ in range(rank)] for _ in range(rank)] for _ in "uv"])
            times = [0.0, -0.0, 1.0, -1.5, 1e-310, 2.0**-30] + [rng.uniform(-1.5, 1.5) for _ in range(6)]
            paths = [(rng.choice(weights), t) for t in times] + [((0.0, 1), 1.0), ((-0.0, 1), 1.0)]
            got = connections._transports(conn, paths)
            want = [transport(conn, w, t) for w, t in paths]
            assert [(op.weight, op.tau) for op in want] == [(tuple(w), t) for w, t in paths]
            tu, tv = (np.array(m, dtype=complex) for m in conn.scalars)
            alone = [scipy_expm(TWO_PI * t * (a * tu + b * tv)) for (a, b), t in paths]
            if rank == 1:
                ((cu,),), ((cv,),) = conn.scalars
                alone = [[[cmath.exp(TWO_PI * t * (a * cu + b * cv))]] for (a, b), t in paths]
            bits = [[[struct.pack("<2d", z.real, z.imag) for z in row] for row in m] for m in alone]
            for mats in (got, [op.matrix for op in want]):
                assert [[[struct.pack("<2d", z.real, z.imag) for z in row] for row in m] for m in mats] == bits
    assert connections._transports(conn, []) == []


def test_weight_matrix_is_bits_of_the_element_sum(params):
    # alpha c without its zeros, then beta c merged in: the key order and bits of alpha * a + beta * b,
    # zero signs, underflowed products and cancelled sums included
    rng = random.Random(20261019)
    for rank in (1, 2, 3):
        for _ in range(40):
            conn = element_connection(params, rng, rank, same=rng.random() < 0.25)
            for weight in ((1, 0), (0, 1), (0.5, -2), (0, 0), (1, -1)):
                got = [[element_bits(e) for e in row] for row in conn.weight_matrix(weight)]
                assert got == [[element_bits(e) for e in row] for row in reference_weight_matrix(conn, weight)]


def _bits(elements) -> list:
    """Each element's terms in insertion order, every coefficient as its two doubles' bytes."""
    return [[(key, struct.pack("<dd", c.real, c.imag)) for key, c in e.terms.items()] for e in elements]


def _operator(rows) -> TransportOperator:
    """An operator with the given matrix and the trivial flow, so phi_tau leaves every term as it is."""
    return TransportOperator(matrix=tuple(tuple(map(complex, row)) for row in rows), weight=(0.0, 0.0), tau=0.0)


def test_apply_is_the_reference_sum_bit_for_bit(params):
    from nctorus.algebra import random_element

    rng = random.Random(16)
    h = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)] for _ in range(4)]
    dense = [[0.5j * (h[i][j] + h[j][i].conjugate()) for j in range(4)] for i in range(4)]
    conns = (
        Connection(params, [[0.25j]], [[0.1j]]),
        rotation_block_connection(params, C_U, C_V),
        Connection(params, dense, [row[::-1] for row in dense[::-1]]),
    )
    cases = []
    for conn in conns:
        for w in ((1, 0), (1, 1), (-2, 3)):
            # tau = 0 is the identity: every off-diagonal zero gives zero products
            for tau in (0.0, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)):
                for _ in range(4):
                    xs = [random_element(rng, params, max_terms=3) for _ in range(conn.rank)]
                    a = random_element(rng, params, max_terms=3)
                    cases += [(transport(conn, w, tau), xs), (transport(conn, w, tau), [x * a for x in xs])]

    x = random_element(rng, params, max_terms=4)
    y = TorusElement(params, {**dict(reversed(list(x.terms.items()))), (9, 9, 0): 1.5j})
    # row 0 cancels exactly, so every key is dropped and y's come back in y's order
    cancel = _operator([[1, -1, 1], [1, 1, 0], [0.5, 0.25, -0.5]])
    assert list(cancel.apply([x, x, y])[0].terms) == list(y.terms)
    cases.append((cancel, [x, x, y]))

    signed = TorusElement(params, {(1, 0, 0): complex(-0.0, 1.0)})
    later = TorusElement(params, {(2, 0, 0): complex(-0.0, 1.0)})
    # the first column's product keeps its -0.0 part; a later column's new key is 0j + p, so 0.0;
    # a -0.0 matrix entry gives only zero products
    for rows in ([[1, 1], [complex(-0.0, 0.0), 1]], [[1, 0], [complex(0.0, -0.0), -1]]):
        cases.append((_operator(rows), [signed, later]))
    got = cases[-2][0].apply([signed, later])
    assert math.copysign(1.0, got[0].terms[(1, 0, 0)].real) == -1.0
    assert math.copysign(1.0, got[0].terms[(2, 0, 0)].real) == 1.0
    assert list(got[1].terms) == [(2, 0, 0)]

    huge = TorusElement(params, {(0, 1, 0): complex(1e300, 1e300), (1, 0, 0): 2.0})
    infinite = TorusElement(params, {(0, 1, 0): complex(math.inf, 0.0)})
    # (1e300 + 1e300i)^2 is nan + inf i, and inf * 0 is nan: a nan product or sum is kept
    overflow = _operator([[complex(1e300, 1e300), 0], [1e300, 1e300]])
    got = overflow.apply([huge, infinite])
    assert math.isnan(got[0].terms[(0, 1, 0)].real) and math.isnan(got[0].terms[(0, 1, 0)].imag)
    assert math.isinf(got[1].terms[(0, 1, 0)].real)
    cases.append((overflow, [huge, infinite]))

    for op, xs in cases:
        got = op.apply(xs)
        assert _bits(got) == _bits(reference_apply(op, xs))
        assert all(e.params == params for e in got)


# -- structure and serialization ----------------------------------------------


def test_entry_params_must_match(params):
    with pytest.raises(ParamMismatch):
        Connection(params, [[u(TorusParams(0.5))]], [[0]])
    # a vector that mixes two thetas, at the last index, fails in every accumulation
    conn = rotation_block_connection(TorusParams(0.3), C_U, C_V)
    xi = [u(TorusParams(0.3)), v(TorusParams(0.3)), one(TorusParams(0.3)), u(TorusParams(0.7))]
    with pytest.raises(ParamMismatch):
        transport(conn, (1, 0), 0.25).apply(xi)
    with pytest.raises(ParamMismatch):
        nabla(conn, (1, 1), xi)
    # at every other index too, and on the identity operator
    for i in range(3):
        with pytest.raises(ParamMismatch):
            transport(conn, (1, 0), 0.0).apply([*xi[i + 1 :], *xi[: i + 1]])


def test_connection_from_scenario_payload(params, scalar_conn, block_conn):
    scalar = {"rank": 1, "theta_u": [[[0.0, C_U]]], "theta_v": [[[0.0, C_V]]], "constant": True}
    z = [0.0, 0.0]
    block = {
        "rank": 4,
        "theta_u": [[z, [-C_U, 0.0], z, z], [[C_U, 0.0], z, z, z], [z, z, z, z], [z, z, z, z]],
        "theta_v": [[z, z, z, z], [z, z, z, z], [z, z, z, [-C_V, 0.0]], [z, z, [C_V, 0.0], z]],
        "constant": True,
    }
    for payload, conn in ((scalar, scalar_conn), (block, block_conn)):
        back = Connection.from_dict(payload, params)
        assert back.rank == conn.rank
        assert back.scalars == conn.scalars
        for mat_a, mat_b in ((back.theta_u, conn.theta_u), (back.theta_v, conn.theta_v)):
            for row_a, row_b in zip(mat_a, mat_b):
                for a, b in zip(row_a, row_b):
                    assert_close(a, b)
    symbolic = {
        "rank": 1,
        "theta_u": [[{"theta": THETA, "terms": [{"m": 1, "n": 0, "re": 1.0, "im": 0.0, "lk": 0}]}]],
        "theta_v": [[0.5]],
    }
    back = Connection.from_dict(symbolic, params)
    assert back.theta_u[0][0].terms == {(1, 0, 0): 1}
    assert back.theta_v[0][0].terms == {(0, 0, 0): 0.5}
    with pytest.raises(NonConstantConnection):
        transport(back, (1, 0), 1.0)
    with pytest.raises(RankMismatch):
        Connection.from_dict({**scalar, "rank": 2}, params)


def reference_entry(raw):
    """Reference copy of the general entry parse, which every payload took before the float-pair path."""
    if isinstance(raw, dict):
        return TorusElement.from_dict(raw)
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return complex(real(raw[0], "entry re"), real(raw[1], "entry im"))
    return complex(real(raw, "connection entry"))


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as exc:  # the class and message are the outcome
        return type(exc), str(exc)


BIG = sys.float_info.max
GOOD_ENTRIES = [
    [0.0, -0.0], [-0.0, 0.0], [BIG, -BIG], [5e-324, -1e-310], [1.5, -2.5], [1, 2.0], [0.5, 3], 2.5, -1, (0.25, -0.0),
    (1, 2), [2**60, 0.0],
]  # fmt: skip
BAD_ENTRIES = [
    [True, 0.0], [0.0, False], True, [math.nan, 0.0], [0.0, math.nan], math.nan, [math.inf, 0.0], [0.0, -math.inf],
    -math.inf, [10**400, 0.0], [0.0, -(10**400)], 10**400, (math.nan, 1.0), (1.0, "2"), (1.0, 2.0, 3.0),
    [1.0, 2.0, 3.0], [1.0], [], ["1", 2.0], "1", None, [[1.0, 2.0], 0.0], {"a": {"b": 1}}, {"theta": 0.5},
    {"theta": 0.5, "terms": [{"m": 0, "n": 0, "re": math.inf, "im": 0.0}]}, [{"re": 1.0}, 0.0],
]  # fmt: skip


def test_entry_parse_keeps_values_and_errors(params):
    # the float-pair path gives the general parse's complex bit for bit, and any other entry takes
    # the general parse, with its exception class and message, through from_dict and cli.run
    from nctorus.cli import ScenarioError, run

    rng = random.Random(20261020)
    for entry in GOOD_ENTRIES:
        conn = Connection.from_dict({"rank": 1, "theta_u": [[entry]], "theta_v": [[0.0]]}, params)
        want = reference_entry(entry)
        assert _signed(conn.scalars[0][0][0]) == _signed(0j + want)
        assert {key: _signed(c) for key, c in conn.theta_u[0][0].terms.items()} == (
            {(0, 0, 0): _signed(want)} if want else {}
        )
    for entry in GOOD_ENTRIES:  # beside float pairs, a row takes every entry through the general parse
        row = [[0.5, -0.0], entry, [-1.5, 2.0]]
        conn = Connection.from_dict({"rank": 3, "theta_u": [row] * 3, "theta_v": [row] * 3}, params)
        assert [_signed(c) for c in conn.scalars[0][0]] == [_signed(0j + reference_entry(e)) for e in row]
    for entry in BAD_ENTRIES:
        kind, message = _outcome(reference_entry, entry)
        assert kind != "ok"
        for _ in range(3):
            mats = [[[[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(2)] for _ in range(2)] for _ in range(2)]
            mats[rng.randrange(2)][rng.randrange(2)][rng.randrange(2)] = entry
            payload = {"rank": 2, "theta_u": mats[0], "theta_v": mats[1], "constant": True}
            assert _outcome(Connection.from_dict, payload, params) == (kind, message)
            scenario = {"v": 1, "command": "flat", "theta": params.theta, "connection": payload}
            assert _outcome(run, scenario) == (ScenarioError, f"bad connection: {message}")


def test_constructor_checks_shape_before_entries(params):
    # the complex-row pass falls back to the general one on any bad entry, which checks the shape first
    other = TorusParams(0.5)
    cases = [
        ([[10**400, 1]], RankMismatch), ([[None, u(params)]], RankMismatch), ([[u(params)], [1]], RankMismatch),
        ([[10**400]], OverflowError), ([[None]], TypeError), ([["x"]], ValueError), ([[u(other)]], ParamMismatch),
    ]  # fmt: skip
    for theta_u, error in cases:
        with pytest.raises(error):
            Connection(params, theta_u, [[0]])


def test_non_constant_transport_raises_every_time(params):
    # a failed fold leaves nothing behind: each transport reads the coefficients again
    nonconstant = Connection(params, [[u(params)]], [[0]])
    for _ in range(2):
        with pytest.raises(NonConstantConnection):
            transport(nonconstant, (1, 0), 1.0)


def test_scalars_are_decided_once_from_exact_multiples_of_one(params):
    # a plain zero or -0.0 entry is the zero element and any other number is kept as given;
    # scalars holds 0j + c, so a -0.0 part reads 0.0
    conn = Connection(params, [[0, -0.0], [complex(-0.0, 1), 2]], [[mono(0, 0, 0.5, params), 0], [0, 0]])
    terms = [[e.terms for e in row] for row in conn.theta_u]
    assert terms == [[{}, {}], [{(0, 0, 0): complex(-0.0, 1)}, {(0, 0, 0): 2}]]
    assert conn.scalars == (((0j, 0j), (1j, 2 + 0j)), ((0.5 + 0j, 0j), (0j, 0j)))
    assert math.copysign(1.0, conn.scalars[0][1][0].real) == 1.0
    with pytest.raises(AttributeError):
        conn.scalars = None
    # constant but not exact: lambda powers; not constant: u
    for entry in (lam(params, 1), u(params)):
        assert Connection(params, [[0, 0], [0, 0]], [[0, entry], [0, 0]]).scalars is None


def test_weight_matrix_folds_each_entry_once(monkeypatch, params):
    # lambda powers: the scalar test and the coefficient of 1 come from one fold per entry and
    # transport, bit for bit as before; plain numbers fold no entry and give 0j + c, the value a fold gives
    from scipy.linalg import expm as scipy_expm

    mixed = Connection(params, [[0.5j, lam(params, 2)], [1, 0]], [[0, lam(params, -1)], [2j, 1 - 0.5j]])
    plain = [[0.5j, complex(-0.0, 1)], [1, -0.0]], [[0, complex(2, -0.0)], [2j, 1 - 0.5j]]
    folded = [[[e.folded().get((0, 0), 0j) for e in row] for row in mat] for mat in (mixed.theta_u, mixed.theta_v)]
    cases = [
        (mixed, 8, folded),
        (Connection(params, *plain), 0, [[[0j + c for c in row] for row in mat] for mat in plain]),
    ]
    original = TorusElement.folded
    for conn, fold_count, scalars in cases:
        tu, tv = (np.array(mat, dtype=complex) for mat in scalars)
        folds = []
        monkeypatch.setattr(TorusElement, "folded", lambda e: folds.append(e) or original(e))
        for alpha, beta in ((1, 0), (0, 1)):
            folds.clear()
            got = transport(conn, (alpha, beta), 1.0).matrix
            assert len(folds) == fold_count
            assert np.array(got).tobytes() == scipy_expm(TWO_PI * 1.0 * (alpha * tu + beta * tv)).tobytes()
        monkeypatch.undo()


def test_scalar_connection_builds_no_theta_element(monkeypatch, params):
    # a rank-16 [re, im] payload: parse, transport, curvature, flatness and the report read complex
    # rows; no element is built until someone reads the curvature's entries
    gen = np.random.default_rng(20261018)
    n = 16

    def pairs():
        entry = [[float(gen.normal()), float(gen.choice([0.0, -0.0, gen.normal()]))] for _ in range(n * n)]
        return [entry[i : i + n] for i in range(0, n * n, n)]

    payload = {"rank": n, "theta_u": pairs(), "theta_v": pairs()}
    built = []
    init, wrap = TorusElement.__init__, TorusElement._wrap
    monkeypatch.setattr(TorusElement, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    monkeypatch.setattr(TorusElement, "_wrap", classmethod(lambda cls, *a: built.append(1) or wrap(*a)))
    conn = Connection.from_dict(payload, params)
    transport(conn, (1, 2), 0.5).to_dict()
    form = curvature_form(conn)
    assert not is_flat(conn) and not form.is_zero()
    form.to_dict()
    assert built == []
    form.entries
    assert len(built) == n * n


def _signed(c: complex) -> tuple:
    """c with the sign bits of both parts, which == ignores on zeros."""
    return c, math.copysign(1, c.real), math.copysign(1, c.imag)


def test_lazy_theta_elements_match_the_eager_build(params):
    # zero and -0.0 entries are the zero element; every other sign bit is kept as given
    values = [0, -0.0, complex(-0.0, 1), complex(1, -0.0), complex(-0.0, -0.0), 2.5, -1j, complex(-3, 0.5), 0j]
    theta_u = [values[0:3], values[3:6], values[6:9]]
    theta_v = [values[8::-3], values[7::-3], values[6::-3]]
    lazy = Connection(params, theta_u, theta_v)
    # one element entry makes the connection build its elements eagerly, as it does for any payload
    # with an element; TorusElement's public constructor drops exactly the zeros
    eager = Connection(params, [[TorusElement(params, {(0, 0, 0): e}) for e in row] for row in theta_u], theta_v)

    def bits(conn):
        mats = (conn.theta_u, conn.theta_v)
        return [[[{key: _signed(c) for key, c in e.terms.items()} for e in row] for row in mat] for mat in mats]

    assert bits(lazy) == bits(eager)
    assert _signed(lazy.theta_u[1][0].terms[(0, 0, 0)]) == _signed(complex(1, -0.0))
    assert lazy.theta_u[0][1].terms == {} and lazy.theta_u is lazy.theta_u
    with pytest.raises(AttributeError):
        lazy.theta_u = eager.theta_u
    # scalars is each entry as 0j + c
    expected = [[[_signed(0j + complex(e)) for e in row] for row in mat] for mat in (theta_u, theta_v)]
    for conn in (lazy, eager):
        assert [[list(map(_signed, row)) for row in mat] for mat in conn.scalars] == expected


def _seeded_complex(rng, rank: int, scale: float) -> np.ndarray:
    return scale * (rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank)))


@pytest.mark.parametrize("rank", [1, 2, 4, 8, 16])
def test_expm_is_scipy_expm_bit_for_bit(rank):
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(20261018 + rank)
    for scale in (1e-3, 0.3, 1.0, 7.0):
        a = _seeded_complex(rng, rank, scale)
        (got,) = connections.expm(a[None])  # a one-slice stack
        assert np.array(got).tobytes() == scipy_expm(a).tobytes()


def test_expm_of_builtin_transport_exponents_is_scipy_expm():
    # 2 pi tau Theta_X as _transports forms it for the builtin wilson scenarios: paper-4x4's a one-slice
    # numpy stack, paper-scalar's 1 x 1 complex rows, whose one cmath.exp gives numpy's bits
    from scipy.linalg import expm as scipy_expm

    for name in ("paper-scalar", "paper-4x4"):
        scenario = builtin(name)
        conn = Connection.from_dict(scenario["connection"], TorusParams(scenario["theta"]))
        (alpha, beta), tau = scenario["params"]["deck"], 1.0
        if conn.rank == 1:
            ((cu,),), ((cv,),) = conn.scalars
            a = [((TWO_PI * tau * (alpha * cu + beta * cv),),)]
        else:
            alpha, beta, scale = (np.array([x], dtype=float)[:, None, None] for x in (alpha, beta, TWO_PI * tau))
            tu, tv = (np.array(m, dtype=complex) for m in conn.scalars)
            a = scale * (alpha * tu + beta * tv)
        assert np.array(connections.expm(a)).tobytes() == scipy_expm(np.array(a)).tobytes(), name


@pytest.mark.parametrize("rank", [1, 2, 4, 8])
def test_expm_of_a_stack_is_scipy_expm_of_each_slice(rank):
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(20261019 + rank)
    stack = np.array([_seeded_complex(rng, rank, scale) for scale in (0.0, 1e-3, 0.3, 1.0, 7.0)])
    for k in (1, len(stack)):
        got = connections.expm(stack[:k])
        assert isinstance(got, list) and len(got) == k
        for rows, a in zip(got, stack):
            assert isinstance(rows, tuple) and np.array(rows).tobytes() == scipy_expm(a).tobytes()


def test_transport_operator_json(scalar_conn, block_conn):
    op = transport(scalar_conn, (1, 0), 1.0)
    d = op.to_dict()
    assert d["weight"] == [1, 0] and d["tau"] == 1.0
    z = complex(d["matrix"][0][0][0], d["matrix"][0][0][1])
    assert abs(z - np.exp(TWO_PI_I * C_U)) < 1e-13
    assert d["value"] == d["matrix"][0][0]
    assert "value" not in transport(block_conn, (1, 0), 1.0).to_dict()


def test_symbolic_bytes_are_pinned():
    """The exact bytes of curvature, flatness and the transport axioms over seeded connections."""
    from nctorus.algebra import random_element

    rng = random.Random(83)
    digest = hashlib.sha256()

    def update(value):
        digest.update(json.dumps(value, sort_keys=True).encode())

    for n in (2, 3, 4, 2, 3, 4):
        params = TorusParams(rng.uniform(0.01, 0.99))

        def entries():
            return [[random_element(rng, params, max_terms=4) for _ in range(n)] for _ in range(n)]

        def scalar():
            return mono(0, 0, complex(-0.0, rng.uniform(-1, 1)), params, rng.randint(-3, 3))

        theta_u = entries()
        scalars = [[scalar() for _ in range(n)] for _ in range(n)]
        # Theta_v = Theta_u cancels every product term; Theta_v = 2 Theta_u of lambda powers is flat
        for conn in (
            Connection(params, theta_u, entries()),
            Connection(params, theta_u, theta_u),
            Connection(params, scalars, [[2 * e for e in row] for row in scalars]),
        ):
            update(exact_form_dict(curvature_form(conn)))
            update([[e.to_dict() for e in row] for row in curvature_commutator(conn, (1, 0), (0, 1))])
            update(is_flat(conn))
    for n in (1, 4, 1, 4):
        params = TorusParams(rng.uniform(0.01, 0.99))
        h = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)])
        a = (0.5j * (h + h.conj().T)).tolist()
        conn = Connection(params, a, (0.3 * np.array(a)).tolist())
        weight = (rng.randint(-2, 2), rng.randint(1, 2))
        digest.update(repr(check_transport_axioms(conn, weight, samples=5, seed=rng.getrandbits(32))).encode())
    assert digest.hexdigest() == "74524377093b2cc52503412b752aa650f1300c63b2bfa6582a8d5cf9e6fd1980"
