"""Covariant derivatives, curvature (two routes), flatness, transport."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import THETA, assert_close
from nctorus.algebra import TorusParams, one, u, v, vector_distance, zero
from nctorus.connections import (
    Connection,
    check_transport_axioms,
    curvature_commutator,
    curvature_form,
    is_flat,
    nabla,
    rotation_block_connection,
    scalar_connection,
    transport,
)
from nctorus.errors import NonConstantConnection, ParamMismatch, RankMismatch

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
        got = np.array([[e.scalar_value() for e in row] for row in comm])
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
    assert abs(op.matrix[0, 0] - np.exp(TWO_PI_I * C_U)) < 1e-13
    op = transport(scalar_conn, (0, 1), 1.0)
    assert abs(op.matrix[0, 0] - np.exp(TWO_PI_I * C_V)) < 1e-13


def test_transport_at_zero_is_identity(scalar_conn, block_conn, params):
    for conn in (scalar_conn, block_conn):
        op = transport(conn, (1, 0), 0.0)
        assert np.array_equal(op.matrix, np.eye(conn.rank))
        xs = [u(params)] * conn.rank
        assert vector_distance(op.apply(xs), xs) == 0.0


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
            prod = transport(conn, w, tau).matrix @ transport(conn, w, sigma).matrix
            joint = transport(conn, w, tau + sigma).matrix
            assert np.max(np.abs(prod - joint)) < 1e-10


def test_transport_unitary_for_antihermitian(scalar_conn, block_conn):
    for conn in (scalar_conn, block_conn):
        assert conn.is_antihermitian()
        m = transport(conn, (1, 1), 0.77).matrix
        assert np.max(np.abs(m @ m.conj().T - np.eye(conn.rank))) < 1e-10


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


# -- structure and serialization ----------------------------------------------


def test_antihermitian_detection(params):
    assert scalar_connection(params, 0.3, 0.7).is_antihermitian()
    assert not Connection(params, [[0.5]], [[0]]).is_antihermitian()
    assert not Connection(params, [[u(params)]], [[0]]).is_antihermitian()


def test_constant_coefficient_flag(params, scalar_conn):
    assert scalar_conn.constant_coefficients
    assert not Connection(params, [[u(params)]], [[0]]).constant_coefficients


def test_entry_params_must_match(params):
    with pytest.raises(ParamMismatch):
        Connection(params, [[u(TorusParams(0.5))]], [[0]])


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
        assert back.rank == conn.rank and back.constant_coefficients
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
    assert not back.constant_coefficients
    with pytest.raises(RankMismatch):
        Connection.from_dict({**scalar, "rank": 2}, params)


def test_transport_operator_json(scalar_conn, block_conn):
    op = transport(scalar_conn, (1, 0), 1.0)
    d = op.to_dict()
    assert d["weight"] == [1, 0] and d["tau"] == 1.0
    z = complex(d["matrix"][0][0][0], d["matrix"][0][0][1])
    assert abs(z - np.exp(TWO_PI_I * C_U)) < 1e-13
    assert d["value"] == d["matrix"][0][0]
    assert "value" not in transport(block_conn, (1, 0), 1.0).to_dict()
