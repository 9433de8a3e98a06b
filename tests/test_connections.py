"""Covariant derivatives, curvature (two routes), flatness, transport."""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np
import pytest

from conftest import THETA, assert_close
from nctorus import connections
from nctorus.algebra import TWO_PI, TorusElement, TorusParams, lam, mono, one, u, v, vector_distance, zero
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
        a = conn.constant_weight_matrix((1, 1))
        assert np.array_equal(a.conj().T, -a)
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
        assert np.array_equal(back.constant_weight_matrix((1, 1)), conn.constant_weight_matrix((1, 1)))
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
        back.constant_weight_matrix((1, 0))
    with pytest.raises(RankMismatch):
        Connection.from_dict({**scalar, "rank": 2}, params)


def test_cached_fold_is_not_exposed(block_conn):
    # every weight matrix is a fresh array, so writing to one leaves later transports intact
    before = transport(block_conn, (1, 2), 0.5).matrix
    block_conn.constant_weight_matrix((1, 2))[:] = 7.0
    assert np.array_equal(transport(block_conn, (1, 2), 0.5).matrix, before)
    nonconstant = Connection(block_conn.params, [[u(block_conn.params)]], [[0]])
    for _ in range(2):
        with pytest.raises(NonConstantConnection):
            nonconstant.constant_weight_matrix((1, 0))


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
    # lambda powers: the scalar test and the coefficient of 1 come from one fold per entry, bit
    # for bit as before; plain numbers fold no entry and give 0j + c, the value a fold gives
    mixed = Connection(params, [[0.5j, lam(params, 2)], [1, 0]], [[0, lam(params, -1)], [2j, 1 - 0.5j]])
    plain = [[0.5j, complex(-0.0, 1)], [1, -0.0]], [[0, complex(2, -0.0)], [2j, 1 - 0.5j]]
    folded = [[[e.folded().get((0, 0), 0j) for e in row] for row in mat] for mat in (mixed.theta_u, mixed.theta_v)]
    cases = [
        (mixed, 8, folded),
        (Connection(params, *plain), 0, [[[0j + c for c in row] for row in mat] for mat in plain]),
    ]
    original = TorusElement.folded
    for conn, fold_count, scalars in cases:
        expected = [np.array(mat, dtype=complex) for mat in scalars]
        folds = []
        monkeypatch.setattr(TorusElement, "folded", lambda e: folds.append(e) or original(e))
        got = [conn.constant_weight_matrix(w) for w in ((1, 0), (0, 1))]
        assert len(folds) == fold_count
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
        monkeypatch.undo()


def _seeded_complex(rng, rank: int, scale: float) -> np.ndarray:
    return scale * (rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank)))


@pytest.mark.parametrize("rank", [1, 2, 4, 8, 16])
def test_expm_is_scipy_expm_bit_for_bit(rank):
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(20261018 + rank)
    for scale in (1e-3, 0.3, 1.0, 7.0):
        a = _seeded_complex(rng, rank, scale)
        assert connections.expm(a).tobytes() == scipy_expm(a).tobytes()


def test_expm_of_builtin_transport_exponents_is_scipy_expm():
    # 2 pi tau Theta_X exactly as transport forms it for the builtin wilson scenarios
    from scipy.linalg import expm as scipy_expm

    for name in ("paper-scalar", "paper-4x4"):
        scenario = builtin(name)
        conn = Connection.from_dict(scenario["connection"], TorusParams(scenario["theta"]))
        a = TWO_PI * 1.0 * conn.constant_weight_matrix(tuple(scenario["params"]["deck"]))
        assert connections.expm(a).tobytes() == scipy_expm(a).tobytes(), name


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
            update(curvature_form(conn).to_dict())
            update([[e.to_dict() for e in row] for row in curvature_commutator(conn, (1, 0), (0, 1))])
            update(is_flat(conn))
    for n in (1, 4, 1, 4):
        params = TorusParams(rng.uniform(0.01, 0.99))
        h = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)])
        a = (0.5j * (h + h.conj().T)).tolist()
        conn = Connection(params, a, (0.3 * np.array(a)).tolist())
        weight = (rng.randint(-2, 2), rng.randint(1, 2))
        digest.update(repr(check_transport_axioms(conn, weight, samples=5, seed=rng.getrandbits(32))).encode())
    assert digest.hexdigest() == "a1d0103409f5d01380f829cfa311916ae7cd5fafc09e0ce93d9a94f2b46ada73"
