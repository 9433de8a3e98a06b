"""Exterior derivative and wedge product over the torus algebra."""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from conftest import THETA, assert_close
from nctorus.algebra import TorusParams, mono, one, u, v, zero
from nctorus.forms import MatrixForm, OneForm, TwoForm, d0, d1, matrix_d1, matrix_wedge, wedge
from test_algebra import elements

TWO_PI_I = 2j * math.pi


def test_d0_kills_identity(params):
    w = d0(one(params))
    assert w.du.terms == {} and w.dv.terms == {}


def test_d0_on_generators(params):
    w = d0(u(params))
    assert w.du.terms == {(1, 0, 0): TWO_PI_I}
    assert w.dv.terms == {}
    w = d0(u(params) * v(params))
    assert w.du.terms == {(1, 1, 0): TWO_PI_I}
    assert w.dv.terms == {(1, 1, 0): TWO_PI_I}


def test_d1_constant_coefficients_vanishes(params):
    w = OneForm(mono(0, 0, 0.25j, params), mono(0, 0, 0.1j, params))
    assert d1(w).dudv.terms == {}


def test_d1_frozen_value(params):
    assert d1(OneForm(zero(params), u(params))).dudv.terms == {(1, 0, 0): TWO_PI_I}


@given(a=elements())
def test_d1_after_d0_is_zero(a):
    assert d1(d0(a)).dudv.is_zero(1e-12)


@given(a=elements(), b=elements())
def test_d0_leibniz(a, b):
    lhs = d0(a * b)
    rhs_du = d0(a).du * b + a * d0(b).du
    rhs_dv = d0(a).dv * b + a * d0(b).dv
    assert_close(lhs.du, rhs_du, tol=1e-11)
    assert_close(lhs.dv, rhs_dv, tol=1e-11)


def test_wedge_scalar_coefficients_vanishes(params):
    w = OneForm(mono(0, 0, 0.25j, params), mono(0, 0, 0.1j, params))
    assert wedge(w, w).dudv.terms == {}


def test_wedge_frozen_values(params):
    # only the a_u b_v term survives
    got = wedge(OneForm(u(params), zero(params)), OneForm(zero(params), v(params)))
    assert got.dudv.terms == {(1, 1, 0): 1}
    # -a_v b_u = -v u = -lambda^{-1} u v
    got = wedge(OneForm(zero(params), v(params)), OneForm(u(params), zero(params)))
    assert got.dudv.terms == {(1, 1, -1): -1}


@given(a=elements(), b=elements(), c=elements())
def test_wedge_bilinear(a, b, c):
    w1 = OneForm(a, b)
    w2 = OneForm(b, c)
    w3 = OneForm(c, a)
    lhs = wedge(w1, OneForm(w2.du + w3.du, w2.dv + w3.dv))
    rhs = wedge(w1, w2) + wedge(w1, w3)
    assert_close(lhs.dudv, rhs.dudv, tol=1e-10)


@given(s=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
def test_wedge_of_scalar_form_with_itself_vanishes(s):
    params = TorusParams(THETA)
    w = OneForm(mono(0, 0, s, params), mono(0, 0, 1j * s, params))
    assert wedge(w, w).dudv.terms == {}


def test_matrix_wedge_is_matrix_commutator_component(params):
    # [[0, u],[v, 0]] wedged with itself exercises the matrix product path
    z = zero(params)
    theta = MatrixForm(
        [
            [OneForm(z, z), OneForm(u(params), v(params))],
            [OneForm(v(params), u(params)), OneForm(z, z)],
        ]
    )
    got = matrix_wedge(theta, theta)
    # (0,0) entry: a_01 ^ b_10 = u*u - v*v
    expect = u(params) * u(params) - v(params) * v(params)
    assert_close(got[0, 0].dudv, expect)


def test_matrix_d1_entrywise(params):
    z = zero(params)
    theta = MatrixForm([[OneForm(z, u(params))]])
    got = matrix_d1(theta)
    assert got[0, 0].dudv.terms == {(1, 0, 0): TWO_PI_I}


def test_matrix_form_to_dict_row_major(params):
    z = zero(params)
    mf = MatrixForm([[TwoForm(u(params)), TwoForm(z)], [TwoForm(z), TwoForm(v(params))]])
    d = mf.to_dict()
    assert d["rank"] == 2
    assert d["entries"][0][0]["dudv"]["terms"][0]["m"] == 1
    assert d["entries"][0][1]["dudv"]["terms"] == []
    assert d["entries"][1][1]["dudv"]["terms"][0]["n"] == 1
