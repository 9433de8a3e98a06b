"""Curvature form F = d Theta + Theta ^ Theta, term by term."""

from __future__ import annotations

import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    THETA,
    assert_close,
    clock_shift,
    element_bits,
    element_connection,
    exact_form_dict,
    l1,
    reference_curvature,
    rotation_block_connection,
)
from nctorus.algebra import (
    EQ_TOL, TorusElement, TorusParams, apply_derivation, lam, mono, one, random_element, u, v, zero,
)
from nctorus.connections import Connection, is_flat
from nctorus.forms import MatrixForm, TwoForm, curvature_form
from test_algebra import DYADIC_THETAS, elements

TWO_PI_I = 2j * math.pi


def curvature(params, theta_u, theta_v):
    return curvature_form(Connection(params, theta_u, theta_v))


def test_d0_on_generators(params):
    # d Theta = (delta_u Theta_v - delta_v Theta_u) du^dv: both signs on u v
    uv = u(params) * v(params)
    assert curvature(params, [[uv]], [[0]]).entries[0][0].dudv.terms == {(1, 1, 0): -TWO_PI_I}
    assert curvature(params, [[0]], [[uv]]).entries[0][0].dudv.terms == {(1, 1, 0): TWO_PI_I}


def test_d1_constant_coefficients_vanishes(params):
    # constant coefficients: d Theta = 0 and F is the numeric matrix commutator
    rng = np.random.default_rng(7)
    tu, tv = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
    curv = curvature(params, tu.tolist(), tv.tolist())
    expect = tu @ tv - tv @ tu
    for i in range(3):
        for j in range(3):
            folded = curv.entries[i][j].dudv.folded()
            assert set(folded) <= {(0, 0)}
            assert abs(folded.get((0, 0), 0j) - expect[i, j]) < 1e-12


def test_d1_frozen_value(params):
    # Theta_v = u alone: F = delta_u(u) = 2 pi i u
    assert curvature(params, [[0]], [[u(params)]]).entries[0][0].dudv.terms == {(1, 0, 0): TWO_PI_I}


@given(a=elements())
def test_d1_after_d0_is_zero(a):
    # Theta = d a: d d a = 0 leaves only the product term [delta_u a, delta_v a]
    du, dv = apply_derivation((1, 0), a), apply_derivation((0, 1), a)
    got = curvature(a.params, [[du]], [[dv]]).entries[0][0].dudv
    assert_close(got, du * dv - dv * du, tol=1e-9)


def test_wedge_scalar_coefficients_vanishes(params):
    curv = curvature(params, [[0.25j]], [[0.1j]])
    assert curv.entries[0][0].dudv.terms == {}


def test_wedge_frozen_values(params):
    # Theta_u = u, Theta_v = v: d Theta = 0 and F = u v - v u = u v - lambda^{-1} u v
    got = curvature(params, [[u(params)]], [[v(params)]]).entries[0][0].dudv
    assert got.terms == {(1, 1, 0): 1, (1, 1, -1): -1}


@given(s=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
def test_wedge_of_scalar_form_with_itself_vanishes(s):
    params = TorusParams(THETA)
    curv = curvature(params, [[mono(0, 0, s, params)]], [[mono(0, 0, 1j * s, params)]])
    assert curv.entries[0][0].dudv.terms == {}


def test_matrix_wedge_is_matrix_commutator_component(params):
    # Theta_u = [[0, u], [v, 0]], Theta_v = [[0, v], [u, 0]] exercises the matrix product path
    z = zero(params)
    curv = curvature(params, [[z, u(params)], [v(params), z]], [[z, v(params)], [u(params), z]])
    # (0,0): Theta_u[0][1] Theta_v[1][0] - Theta_v[0][1] Theta_u[1][0] = u u - v v
    assert_close(curv.entries[0][0].dudv, u(params) * u(params) - v(params) * v(params))
    # (0,1) vanishes and (1,0) = delta_u(u) - delta_v(v): a transposed layout shows
    assert curv.entries[0][1].dudv.terms == {}
    assert curv.entries[1][0].dudv.terms == {(0, 1, 0): -TWO_PI_I, (1, 0, 0): TWO_PI_I}
    d = curv.to_dict()
    assert d["rank"] == 2
    assert d["entries"][0][1]["dudv"]["terms"] == []
    # the report prints 2 pi to 15 significant digits
    assert d["entries"][1][0]["dudv"]["terms"] == [
        {"m": 0, "n": 1, "re": 0.0, "im": -6.28318530717959, "lk": 0},
        {"m": 1, "n": 0, "re": 0.0, "im": 6.28318530717959, "lk": 0},
    ]


def test_matrix_d1_entrywise(params):
    # Theta_v = diag(u, v): d Theta acts entry by entry, the product term is zero
    z = zero(params)
    curv = curvature(params, [[z, z], [z, z]], [[u(params), z], [z, v(params)]])
    assert curv.entries[0][0].dudv.terms == {(1, 0, 0): TWO_PI_I}
    assert all(curv.entries[i][j].dudv.terms == {} for i, j in ((0, 1), (1, 0), (1, 1)))


def test_two_form_is_an_immutable_value(params):
    # a slotted class, not a dataclass, with the dataclass's equality (the element's) and repr
    form = TwoForm(u(params))
    assert form == TwoForm(dudv=u(params) + mono(0, 0, 1e-13, params)) and form != TwoForm(v(params))
    assert form != u(params) and repr(form) == f"TwoForm(dudv={u(params)!r})"
    with pytest.raises(AttributeError, match="TwoForm is immutable"):
        form.dudv = v(params)
    with pytest.raises(AttributeError):
        form.other = 1
    with pytest.raises(TypeError):
        hash(form)  # the element is unhashable, as it was in the dataclass


def test_matrix_form_to_dict_row_major(params):
    z = zero(params)
    mf = MatrixForm([[TwoForm(u(params)), TwoForm(z)], [TwoForm(z), TwoForm(v(params))]])
    d = mf.to_dict()
    assert d["rank"] == 2
    assert d["entries"][0][0]["dudv"]["terms"][0]["m"] == 1
    assert d["entries"][0][1]["dudv"]["terms"] == []
    assert d["entries"][1][1]["dudv"]["terms"][0]["n"] == 1


def test_matrix_form_is_zero_at_tolerance(params):
    small = MatrixForm([[TwoForm(mono(0, 0, 1e-13, params)), TwoForm(zero(params))]])
    large = MatrixForm([[TwoForm(mono(1, 0, 1e-11, params))]])
    assert small.is_zero() and not large.is_zero()


def test_a_derivation_term_that_cancels_the_products_drops_its_key(params):
    # Theta_u = u, Theta_v = b v + c uv: delta_u(c uv) = (c 2 pi i) uv meets the product term b uv, and
    # b = -(c 2 pi i) cancels it exactly, so F keeps only the lambda-shifted terms and c u^2 v
    c = 0.3 + 0.1j
    b = -apply_derivation((1, 0), mono(1, 1, c, params)).terms[(1, 1, 0)]
    conn = Connection(params, [[u(params)]], [[mono(0, 1, b, params) + mono(1, 1, c, params)]])
    ((f,),) = curvature_form(conn).entries
    assert f.dudv.terms.keys() == {(2, 1, 0), (1, 1, -1), (2, 1, -1)}
    assert element_bits(f.dudv) == element_bits(reference_curvature(conn)[0][0])


# -- the element loop: the scalar path's reference; element entries follow conftest.reference_curvature --


def element_loop(conn) -> list:
    """The element loop as first written, run on every connection: the F_ij elements, whose sums the
    scalar path follows bit for bit."""
    tu, tv, n = conn.theta_u, conn.theta_v, conn.rank
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero(conn.params)
            for k in range(n):
                acc = acc + (tu[i][k] * tv[k][j] - tv[i][k] * tu[k][j])
            d = apply_derivation((1, 0), tv[i][j]) - apply_derivation((0, 1), tu[i][j])
            row.append(d + acc)
        entries.append(row)
    return entries


def element_curvature(conn) -> dict:
    """The element loop's F in the exact report layout."""
    return {"rank": conn.rank, "entries": [[{"dudv": e.to_dict()} for e in row] for row in element_loop(conn)]}


def haar_connection(params, gen, rank):
    """Theta_X = i Q D_X Q* with Q Haar-random unitary: dense, antihermitian, flat."""
    z = gen.standard_normal((rank, rank)) + 1j * gen.standard_normal((rank, rank))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    tu, tv = (1j * (q * gen.uniform(-1, 1, rank)) @ q.conj().T for _ in range(2))
    return Connection(params, tu.tolist(), tv.tolist())


def signed_zero_connection(params, gen, rank):
    """Structural zeros and small-integer parts beside 0.0 or -0.0: exact products
    that cancel to signed zeros, where a different summation order would show."""

    def entry():
        x, z = float(gen.integers(1, 3)) * gen.choice([-1.0, 1.0]), gen.choice([0.0, -0.0])
        return [0, complex(z, x), complex(x, z), complex(x, -x)][gen.integers(4)]

    return Connection(params, *([[entry() for _ in range(rank)] for _ in range(rank)] for _ in range(2)))


def test_constant_curvature_matches_element_loop_bit_for_bit(params):
    # JSON text, not dict equality: 0.0 == -0.0, but the two print differently
    gen = np.random.default_rng(20260808)
    conns = [
        rotation_block_connection(params, 0.125, -1 / 6),
        # F_10 = -1 + 0i, printed as -1 - 0i by a sum started at its first term, not at 0j
        Connection(
            params,
            [[0, 0], [complex(-0.0, -1), complex(-1, -0.0)]],
            [[0, complex(1, -0.0)], [0, complex(-0.0, 1)]],
        ),
    ]
    for rank in range(1, 9):
        conns += [haar_connection(params, gen, rank) for _ in range(4)]
        conns += [signed_zero_connection(params, gen, rank) for _ in range(8)]
    for conn in conns:
        assert all(e.terms.keys() <= {(0, 0, 0)} for mat in (conn.theta_u, conn.theta_v) for row in mat for e in row)
        got = json.dumps(exact_form_dict(curvature_form(conn)), sort_keys=True)
        assert got == json.dumps(element_curvature(conn), sort_keys=True)


def _signed_terms(e) -> dict:
    """The terms of an element with the sign bits of both parts of each coefficient."""
    return {key: (c, math.copysign(1, c.real), math.copysign(1, c.imag)) for key, c in e.terms.items()}


def test_scalar_curvature_entries_are_built_on_first_access(params):
    # the constant path holds complex rows; its TwoForm entries, built when read, are the loop's
    gen = np.random.default_rng(20261019)
    for rank in range(1, 7):
        for conn in (haar_connection(params, gen, rank), signed_zero_connection(params, gen, rank)):
            form = curvature_form(conn)
            form.is_zero(), form.to_dict()
            got = [[_signed_terms(e.dudv) for e in row] for row in form.entries]
            assert got == [[_signed_terms(e) for e in row] for row in element_loop(conn)]
            assert all(e.dudv.params is conn.params for row in form.entries for e in row)
            assert form.entries is form.entries


#: 0, -0.0, ints, subnormal, tiny, at-tolerance and large parts, whose products
#: cancel to signed zeros, underflow, or overflow to inf and NaN
parts = st.sampled_from([0, -0.0, 0.0, 1, -2, 3, 5e-324, 1e-310, 1e-13, 1e-12, 0.5, -1.25, 1e150, -1e154, 1e300])
scalar_entries = st.one_of(parts, st.builds(complex, parts, parts))


@st.composite
def scalar_matrices(draw):
    rank = draw(st.integers(min_value=1, max_value=4))
    square = st.lists(st.lists(scalar_entries, min_size=rank, max_size=rank), min_size=rank, max_size=rank)
    return draw(square), draw(square)


# F_01 = -8i: a sum started at -0j rather than 0j would print its real part as -0.0
@example(mats=([[complex(-1, -0.0), complex(-1, 2)], [1j, 2]], [[complex(2, -1), 1j], [-1j, complex(-0.0, -0.0)]]))
@given(mats=scalar_matrices())
def test_scalar_form_reports_as_its_element_form(mats):
    # the complex-row MatrixForm and the TwoForm MatrixForm of the element loop: same bytes, same verdict
    conn = Connection(TorusParams(THETA), *mats)
    scalar, element = curvature_form(conn), MatrixForm([[TwoForm(e) for e in row] for row in element_loop(conn)])
    assert json.dumps(scalar.to_dict(), sort_keys=True) == json.dumps(element.to_dict(), sort_keys=True)
    assert scalar.is_zero() == element.is_zero()
    assert scalar.rank == element.rank == conn.rank


def test_scalar_form_is_zero_at_tolerance(params):
    # rows and TwoForm entries of the same coefficients: EQ_TOL itself is zero, the next double is not
    above = math.nextafter(EQ_TOL, 1.0)
    for c, zero_verdict in ((EQ_TOL, True), (complex(0, -EQ_TOL), True), (above, False), (complex(0, above), False)):
        rows = [[0j, c], [0j, 0j]]
        entries = [[TwoForm(mono(0, 0, x, params)) for x in row] for row in rows]
        assert MatrixForm(params=params, rows=rows).is_zero() is MatrixForm(entries).is_zero() is zero_verdict


def test_lambda_power_entries_keep_exact_exponents(params):
    # constant but not plain scalars: F_00 = lambda^2 lambda^-1 - 1 = lambda - 1, with lk = 1 exact
    z, e = zero(params), one(params)
    curv = curvature(params, [[z, lam(params, 2)], [e, z]], [[z, e], [lam(params, -1), z]])
    assert curv.entries[0][0].dudv.terms == {(0, 0, 1): 1, (0, 0, 0): -1}
    assert curv.entries[1][1].dudv.terms == {(0, 0, 0): 1, (0, 0, 1): -1}
    assert [t["lk"] for t in curv.to_dict()["entries"][0][0]["dudv"]["terms"]] == [0, 1]


def test_element_curvature_is_bits_of_the_element_loop(params):
    # keys, key order and coefficient bytes of every entry, against conftest's plain loop in the kernel's
    # order: sum_k tu tv and sum_k tv tu pair by pair in two dicts, their difference, then d Theta
    rng = random.Random(20261019)
    z, e = zero(params), one(params)
    conns = [
        # lambda powers with the exponents kept exact, and u, v, whose commutator carries lambda^-1
        Connection(params, [[z, lam(params, 2)], [e, u(params)]], [[v(params), e], [lam(params, -1), z]]),
        Connection(params, [[u(params)]], [[v(params)]]),
    ]
    for rank in range(1, 6):
        conns += [element_connection(params, rng, rank, same=same) for same in (False, True) for _ in range(6)]
    seen = {"nan": False, "inf": False, "signed zero": False}
    for conn in conns:
        assert conn.scalars is None
        got = [[element_bits(f.dudv) for f in row] for row in curvature_form(conn).entries]
        reference = reference_curvature(conn)
        assert got == [[element_bits(f) for f in row] for row in reference]
        coefficients = [c for row in reference for f in row for c in f.terms.values()]
        seen["nan"] |= any(math.isnan(c.real) or math.isnan(c.imag) for c in coefficients)
        seen["inf"] |= any(math.isinf(c.real) or math.isinf(c.imag) for c in coefficients)
        seen["signed zero"] |= any(math.copysign(1, c.real) < 0 and c.real == 0 for c in coefficients)
    assert all(seen.values()), seen
    # Theta_v = Theta_u of finite products: every product cancels to exact zero, leaving d Theta
    conn = element_connection(params, rng, 4, same=True, coefficients=(1, -2, 0.5j, complex(-0.0, 1)))
    for row, frow in zip(conn.theta_u, curvature_form(conn).entries):
        for a, f in zip(row, frow):
            assert element_bits(f.dudv) == element_bits(apply_derivation((1, 0), a) - apply_derivation((0, 1), a))


#: parts 0.01 to 2 in magnitude and signed zeros: sums round, and no product underflows or overflows
cancel_parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.01, 2.0), st.floats(-2.0, -0.01))


@st.composite
def element_matrices(draw, lambda_powers: bool = False):
    """A square matrix of rank 1-4 over THETA, entries of up to three terms (only 1 and lambda^k if asked)."""
    rank = draw(st.integers(1, 4))
    powers = st.just(0) if lambda_powers else st.integers(-2, 2)
    keys = st.tuples(powers, powers, st.integers(-2, 2))
    params = TorusParams(THETA)
    entry = st.dictionaries(keys, st.builds(complex, cancel_parts, cancel_parts), max_size=3)
    row = st.lists(entry.map(lambda terms: TorusElement(params, terms)), min_size=rank, max_size=rank)
    return draw(st.lists(row, min_size=rank, max_size=rank))


@given(a=element_matrices(), powers=element_matrices(lambda_powers=True))
def test_equal_product_sums_cancel_exactly(a, powers):
    # Theta_v = Theta_u, and Theta_v = 2 Theta_u over lambda powers (a (2 b) = (2 a) b exactly):
    # sum_k tu tv and sum_k tv tu are the same bits, so each entry is d Theta alone, key for key
    for theta_u, theta_v in ((a, a), (powers, [[2 * e for e in row] for row in powers])):
        conn = Connection(TorusParams(THETA), theta_u, theta_v)
        form = curvature_form(conn)
        d = [
            [apply_derivation((1, 0), y) - apply_derivation((0, 1), x) for x, y in zip(row_u, row_v)]
            for row_u, row_v in zip(theta_u, theta_v)
        ]
        assert [[element_bits(f.dudv) for f in row] for row in form.entries] == [list(map(element_bits, r)) for r in d]
        assert is_flat(conn) is form.is_zero() is all(e.is_zero() for row in d for e in row)


def test_curvature_products_are_the_clock_and_shift_commutator():
    """The product part sum_k (tu_ik tv_kj - tv_ik tu_kj) of each element entry, as q x q matrices.

    Derivations have no finite-dimensional representation, so d = delta_u(tv_ij) - delta_v(tu_ij), which
    the entry adds last, is taken off through the library's own apply_derivation.  Block (i, j) of
    [Theta_u, Theta_v] in the clock-and-shift representation is then within 2 q eps of
    sum_k (|tu_ik||tv_kj| + |tv_ik||tu_kj|) + |d|, |x| being the sum of x's |c|.
    """
    eps = sys.float_info.epsilon
    rng = random.Random(20261025)
    for theta in DYADIC_THETAS:
        params, q = TorusParams(theta), theta.as_integer_ratio()[1]
        for rank in (1, 2, 3, 3):
            tu, tv = ([[random_element(rng, params) for _ in range(rank)] for _ in range(rank)] for _ in range(2))
            big_u, big_v = (np.block([[clock_shift(e) for e in row] for row in m]) for m in (tu, tv))
            commutator = big_u @ big_v - big_v @ big_u
            form = curvature_form(Connection(params, tu, tv))
            for i, j in np.ndindex(rank, rank):
                d = apply_derivation((1, 0), tv[i][j]) - apply_derivation((0, 1), tu[i][j])
                got = clock_shift(form.entries[i][j].dudv) - clock_shift(d)
                bound = sum(l1(tu[i][k]) * l1(tv[k][j]) + l1(tv[i][k]) * l1(tu[k][j]) for k in range(rank)) + l1(d)
                assert np.abs(got - commutator[i * q : (i + 1) * q, j * q : (j + 1) * q]).max() <= 2 * q * eps * bound
