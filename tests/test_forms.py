"""Curvature form F = d Theta + Theta ^ Theta, term by term."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import THETA, assert_close
from nctorus.algebra import TorusParams, apply_derivation, mono, u, v, zero
from nctorus.connections import Connection
from nctorus.forms import MatrixForm, TwoForm, curvature_form
from test_algebra import elements

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
    d = curv.to_dict()
    assert d["rank"] == 2
    assert d["entries"][0][1]["dudv"]["terms"] == []
    assert d["entries"][1][0]["dudv"]["terms"] == [
        {"m": 0, "n": 1, "re": 0.0, "im": -2 * math.pi, "lk": 0},
        {"m": 1, "n": 0, "re": 0.0, "im": 2 * math.pi, "lk": 0},
    ]


def test_matrix_d1_entrywise(params):
    # Theta_v = diag(u, v): d Theta acts entry by entry, the product term is zero
    z = zero(params)
    curv = curvature(params, [[z, z], [z, z]], [[u(params), z], [z, v(params)]])
    assert curv.entries[0][0].dudv.terms == {(1, 0, 0): TWO_PI_I}
    assert all(curv.entries[i][j].dudv.terms == {} for i, j in ((0, 1), (1, 0), (1, 1)))


def test_matrix_form_to_dict_row_major(params):
    z = zero(params)
    mf = MatrixForm([[TwoForm(u(params)), TwoForm(z)], [TwoForm(z), TwoForm(v(params))]])
    d = mf.to_dict()
    assert d["rank"] == 2
    assert d["entries"][0][0]["dudv"]["terms"][0]["m"] == 1
    assert d["entries"][0][1]["dudv"]["terms"] == []
    assert d["entries"][1][1]["dudv"]["terms"][0]["n"] == 1
